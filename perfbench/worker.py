"""Measurement loop of one workload, run in a fresh interpreter.

Usage:
    python3 perfbench/worker.py JOB.json RESULT.json
    python3 perfbench/worker.py --setup GROUP.grp...

The first form runs the workload described by JOB.json (written by run.py)
as a closed loop with one client and writes raw samples, outputs and, for a
traced run, per-layer metrics to RESULT.json.  The second form imports
linhyp, parses the given group files and prints the ``perf_counter`` value
at which the inputs are ready; run.py turns that into ``setup_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def classification_digest(path: Path) -> dict:
    """sha256 of a classification JSON without its manifest, plus counts."""
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("manifest", None)
    body = json.dumps(data, indent=2) + "\n"
    return {"sha256": hashlib.sha256(body.encode()).hexdigest(),
            "order": data["group_order"], "aut": data["aut_group_size"],
            "admissible": data["admissible_triples"],
            "classes": data["class_count"]}


# --- operations --------------------------------------------------------------


def query_op(t) -> dict:
    regular = sys.modules["linhyp.regular"]
    report = regular.validate_regular(t)
    out = {"ok": report.ok, "failed": report.failed_names()}
    if report.ok:
        m = regular.RegularLinearHypermap.from_triple(t)
        out["mseq"] = str(m.m_sequence())
        out["dual"] = str(m.dual().m_sequence())
        out["core"] = m.core_dichotomy().value
    return out


def flag_op(path: str) -> dict:
    catalog = sys.modules["linhyp.catalog"]
    hm = sys.modules["linhyp.hypermap"]
    h = catalog.load_flag_hypermap(path)
    report = hm.validate_hypermap(h)
    out = {"ok": report.ok, "failed": report.failed_names()}
    if report.ok:
        cells = hm.extract_cells(h)
        surface = hm.surface_invariant(h)
        cc = hm.configuration_check(hm.underlying_hypergraph(h))
        out["cells"] = list(cells.counts)
        out["surface"] = [surface.euler_characteristic, surface.orientable,
                          surface.genus]
        out["config"] = [cc.points, cc.blocks, cc.linear, cc.block_size,
                         cc.point_degree, cc.is_configuration]
    return out


def parse_groups(paths: dict) -> dict:
    catalog = sys.modules["linhyp.catalog"]
    return {name: catalog.parse_group_file(p).group for name, p in paths.items()}


def build_triples(groups: dict, ops: list) -> list:
    from linhyp.permgroup import parse_cycles
    from linhyp.regular import InvolutionTriple
    out = []
    for name, *words in ops:
        g = groups[name]
        out.append(InvolutionTriple(
            g, *(g.index_of(parse_cycles(w, g.degree)) for w in words)))
    return out


class InProcess:
    """A stream of in-process operations, in a fixed order every pass."""

    def __init__(self, fn, args):
        self.fn, self.args = fn, args
        self.size = len(args)
        self.peak_rss_kb = 0

    def order(self, _pass_no: int) -> list[int]:
        return list(range(len(self.args)))

    def run(self, i: int, tracer):
        if tracer is not None:
            tracer.op = i
            root = tracer.begin("harness.op")
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = self.fn(self.args[i])
        except Exception as exc:  # an op that raises is a failed op
            out = {"error": f"{type(exc).__name__}: {exc}"}
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.end(root)
        return wall, cpu, out

    def finish(self) -> None:
        self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Ladder:
    """One ``lhm classify --jobs 1`` subprocess per group; the seed orders
    each pass."""

    def __init__(self, job: dict, work: Path):
        self.names = job["ops"]
        self.size = len(self.names)
        self.paths = job["groups"]
        self.work = work
        self.rng = random.Random(job["seed"])
        self.peak_rss_kb = 0

    def order(self, _pass_no: int) -> list[int]:
        out = list(range(len(self.names)))
        self.rng.shuffle(out)
        return out

    def run(self, i: int, tracer):
        name = self.names[i]
        result = self.work / f"{name}.json"
        args = ["classify", "--jobs", "1", "--group", self.paths[name],
                "--out", str(result)]
        if tracer is None:
            cmd = [sys.executable, "-m", "linhyp.cli"] + args
        else:
            spans = self.work / f"{name}.spans.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans)] + args
            tracer.op = i
            root_index = len(tracer.spans)
            root = tracer.begin("startup.process")
        with open(self.work / f"{name}.stderr", "wb") as err:
            w0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                    env=CHILD_ENV, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - w0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if tracer is not None:
            tracer.end(root)
            if spans.exists():
                tracer.adopt(json.loads(spans.read_text()), root_index)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if code != 0:
            detail = (self.work / f"{name}.stderr").read_text(errors="replace")
            out = {"error": f"exit {code}: {detail.strip()[-300:]}"}
        else:
            out = classification_digest(result)
        return wall, usage.ru_utime + usage.ru_stime, out

    def finish(self) -> None:
        pass


# --- the closed loop ---------------------------------------------------------


def measure(workload, seconds: float, min_passes: int, tracer=None) -> dict:
    """Complete passes until the next one would end after ``seconds``.

    An untraced run interleaves the reference loop of :mod:`calib` with
    the ops and reports its ``scale``; a traced run does not.
    """
    n = workload.size
    samples: list[list] = [[] for _ in range(n)]
    first: list = [None] * n
    mismatches = []
    calibrator = Calibrator() if tracer is None else None
    passes, last = 0, 0.0
    start = time.perf_counter()
    while passes < min_passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        if calibrator:
            calibrator.next_pass()
        for i in workload.order(passes):
            wall, cpu, out = workload.run(i, tracer)
            samples[i].append([wall, cpu])
            if passes == 0:
                first[i] = out
            elif out != first[i]:
                mismatches.append([i, passes, out])
            if calibrator:
                calibrator.after(wall)
        if calibrator:
            calibrator.end_pass()
        last = time.perf_counter() - t0
        passes += 1
    result = {"samples": samples, "outputs": first, "mismatches": mismatches,
              "passes": passes}
    if calibrator:
        result["reference_call_s"] = calibrator.speed()
        result["scale"] = calibrator.scale()
    return result


def pass_wall(samples: list) -> float:
    """One full pass, as the sum over ops of each op's median time."""
    return sum(statistics.median(s[0] for s in op) for op in samples)


# --- traced run: per-layer metrics -------------------------------------------

def _dur(span) -> int:
    return span[2] - span[1]


def _inclusive(span, children) -> int:
    return _dur(span)


def _self(span, children) -> int:
    return _dur(span) - sum(_dur(c) for c in children)


def _minus(name):
    return lambda span, children: _dur(span) - sum(
        _dur(c) for c in children if c[0] == name)


def _children_in(layer):
    from tracing import layer_of
    return lambda span, children: sum(
        _dur(c) for c in children if layer_of(c[0]) == layer)


# metric -> (span name, scale from ns, value of one span given its children)
CALL_METRICS = {
    "catalog.parse_group_file_ms": ("catalog.parse_group_file", 1e-6, _inclusive),
    "catalog.load_flag_hypermap_ms": ("catalog.load_flag_hypermap", 1e-6, _inclusive),
    "permgroup.closure_ms": ("permgroup.closure", 1e-6,
                             _minus("permgroup.group_init")),
    "permgroup.group_init_ms": ("permgroup.group_init", 1e-6, _inclusive),
    "permgroup.automorphism_group_s": ("permgroup.automorphism_group", 1e-9,
                                       _inclusive),
    "classify.classify_s": ("classify.classify", 1e-9,
                            _minus("permgroup.automorphism_group")),
    "regular.validate_regular_us": ("regular.validate_regular", 1e-3, _inclusive),
    "regular.from_triple_us": ("regular.from_triple", 1e-3, _inclusive),
    "regular.m_sequence_us": ("regular.m_sequence", 1e-3, _inclusive),
    "regular.core_dichotomy_us": ("regular.core_dichotomy", 1e-3, _inclusive),
    "regular.dual_us": ("regular.dual", 1e-3, _inclusive),
    "regular.build_classes_ms": ("classify.classify", 1e-6, _children_in("regular")),
    "hypermap.validate_hypermap_ms": ("hypermap.validate_hypermap", 1e-6, _inclusive),
    "hypermap.extract_cells_ms": ("hypermap.extract_cells", 1e-6, _inclusive),
    "hypermap.surface_invariant_ms": ("hypermap.surface_invariant", 1e-6, _inclusive),
    "hypermap.underlying_hypergraph_ms": ("hypermap.underlying_hypergraph", 1e-6,
                                          _inclusive),
    "hypermap.configuration_check_ms": ("hypermap.configuration_check", 1e-6,
                                        _inclusive),
    "cli.residual_ms": ("cli.main", 1e-6, _self),
}
# metric -> span name whose ok-verdicts it counts
VERDICT_METRICS = {"regular.admissible_frac": "regular.validate_regular",
                   "hypermap.valid_frac": "hypermap.validate_hypermap"}


def call_values(spans: list, keep) -> tuple[dict, dict]:
    """Mean per-call value of each call metric over spans whose op passes
    ``keep``, and the number of calls behind each."""
    kids: dict[int, list] = {}
    for s in spans:
        if s[3] >= 0:
            kids.setdefault(s[3], []).append(s)
    values, calls = {}, {}
    for metric, (name, scale, value) in CALL_METRICS.items():
        got = [value(s, kids.get(i, ())) * scale for i, s in enumerate(spans)
               if s[0] == name and keep(s[4])]
        if got:
            values[metric] = statistics.fmean(got)
            calls[metric] = len(got)
    for metric, name in VERDICT_METRICS.items():
        tags = [s[5] for s in spans if s[0] == name and keep(s[4])]
        if tags:
            values[metric] = sum(tags) / len(tags)
            calls[metric] = len(tags)
    return values, calls


def classify_counts(groups: dict, digests: dict) -> dict:
    """Counts of the classify layer over the groups with a classification."""
    from linhyp.permgroup import involutions
    inv = {name: len(involutions(g)) for name, g in groups.items()}
    digests = {n: d for n, d in digests.items() if "error" not in d}
    cand = sum(inv[n] * (inv[n] - 1) * (inv[n] - 2) for n in digests)
    adm = sum(d["admissible"] for d in digests.values())
    return {"classify.candidates": cand, "classify.admissible": adm,
            "classify.classes": sum(d["classes"] for d in digests.values()),
            "classify.admissible_ratio": adm / cand if cand else 0.0,
            "permgroup.aut_size": sum(d["aut"] for d in digests.values())}


def micro_benches(groups: dict, seed: int) -> dict:
    """``mul`` and ``subgroup_bits`` on seeded involution triples of the
    workload's groups."""
    from linhyp.permgroup import involutions
    rng = random.Random(seed)
    sb_ns = sb_calls = mul_ns = mul_calls = 0
    clock = time.perf_counter_ns
    for g in groups.values():
        invs = involutions(g)
        seeds = []
        for _ in range(100):
            a, b, c = rng.sample(invs, 3)
            seeds += [(b, c), (a, c), (a, b, c)]
        bits = g.subgroup_bits
        t0 = clock()
        for s in seeds:
            bits(s)
        sb_ns += clock() - t0
        sb_calls += len(seeds)
        xs = [x for s in seeds for x in s]
        pairs = list(zip(xs, xs[1:] + xs[:1])) * 20
        mul = g.mul
        t0 = clock()
        for x, y in pairs:
            mul(x, y)
        mul_ns += clock() - t0
        mul_calls += len(pairs)
    return {"permgroup.subgroup_bits_us": sb_ns / sb_calls / 1e3,
            "permgroup.mul_ns": mul_ns / mul_calls,
            "permgroup.involutions": sum(len(involutions(g))
                                         for g in groups.values())}


def cli_startup_ms(repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter running ``import linhyp.cli``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import linhyp.cli"],
                       env=CHILD_ENV, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def run_probe(probe: dict, work: Path) -> dict:
    """The smoke inputs of all three workloads, run in-process."""
    cli = sys.modules["linhyp.cli"]
    outputs = {"ladder": {}, "queries": [], "flags": []}
    for name, path in probe["ladder"].items():
        out = work / f"probe-{name}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["classify", "--jobs", "1", "--group", path,
                             "--out", str(out)])
        outputs["ladder"][name] = (classification_digest(out) if code == 0
                                   else {"error": f"exit {code}"})
    groups = parse_groups(probe["queries"]["groups"])
    for t in build_triples(groups, probe["queries"]["ops"]):
        outputs["queries"].append(query_op(t))
    for path in probe["flags"]["ops"]:
        outputs["flags"].append(flag_op(path))
    return outputs


def traced_metrics(tracer, traced: dict, untraced_wall: float, groups: dict,
                   probe_groups: dict, pass_digests: dict, probe_out: dict,
                   seed: int, names: list | None) -> dict:
    from tracing import self_times
    spans = tracer.spans
    in_pass = lambda op: op != "probe"  # noqa: E731
    values, calls = call_values(spans, in_pass)
    probe_values, probe_calls = call_values(spans, lambda op: op == "probe")
    source = dict.fromkeys(values, "pass")
    for metric, v in probe_values.items():
        if metric not in values:
            values[metric], calls[metric] = v, probe_calls[metric]
            source[metric] = "probe"
    if pass_digests:
        counts = classify_counts(groups, pass_digests)
        source.update(dict.fromkeys(counts, "pass"))
    else:
        counts = classify_counts(probe_groups, probe_out["ladder"])
        source.update(dict.fromkeys(counts, "probe"))
    values.update(counts)
    values.update(micro_benches(groups, seed))
    values["cli.startup_ms"] = cli_startup_ms()
    traced_wall = pass_wall(traced["samples"])
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    ns = self_times(spans, lambda op: isinstance(op, int))
    total = sum(ns.values())
    for layer, v in ns.items():
        values[f"self.{layer}_frac"] = v / total
    detail = {"self_s_per_pass": {k: v / 1e9 / traced["passes"]
                                  for k, v in ns.items()},
              "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
              "calls": calls, "source": source}
    if names is not None:  # per group of the ladder
        for i, name in enumerate(names):
            v, _ = call_values(spans, lambda op, i=i: op == i)
            for metric, x in v.items():
                detail[f"{metric}.{name}"] = x
            for key in ("aut", "admissible", "classes"):
                detail[f"classify.{key}.{name}"] = pass_digests[name].get(key)
            detail[f"op_s.{name}"] = statistics.median(
                s[0] for s in traced["samples"][i])
    return {"per_layer": values, "detail": detail}


# --- entry points ------------------------------------------------------------


def run_job(job: dict) -> dict:
    work = Path(job["work"])
    trace = bool(job["trace"])
    seconds = job["seconds"]
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.op = "setup"
        tracer.install()
    import linhyp.cli  # noqa: F401
    # groups in memory only where the ops use them or the traced run's
    # micro-benchmarks need them, so that peak_rss_mb is the program's
    groups = (parse_groups(job["groups"])
              if trace or job["workload"] == "triple-queries" else {})
    names = None
    if job["workload"] == "classify-ladder":
        workload = Ladder(job, work)
        names = job["ops"]
    elif job["workload"] == "triple-queries":
        workload = InProcess(query_op, build_triples(groups, job["ops"]))
    else:
        workload = InProcess(flag_op, job["ops"])
    if tracer is not None:
        tracer.uninstall()

    budget = seconds / 2 if trace else seconds
    untraced = measure(workload, budget, 1 if trace else 2)
    workload.finish()
    result = {"untraced": untraced, "peak_rss_kb": workload.peak_rss_kb}
    if not trace:
        return result

    tracer.install()
    traced = measure(workload, budget, 1, tracer)
    tracer.op = "probe"
    probe_out = run_probe(job["probe"], work)
    probe_groups = parse_groups(job["probe"]["ladder"])
    tracer.uninstall()
    digests = ({names[i]: out for i, out in enumerate(traced["outputs"])}
               if names is not None else {})
    result["traced"] = traced
    result["probe_outputs"] = probe_out
    result.update(traced_metrics(
        tracer, traced, pass_wall(untraced["samples"]), groups, probe_groups,
        digests, probe_out, job["seed"], names))
    with open(job["trace_file"], "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "ops": job["ops"] if names else None},
                  fh)
    return result


def setup_probe(paths: list[str]) -> None:
    import linhyp  # noqa: F401
    from linhyp.catalog import parse_group_file
    for p in paths:
        parse_group_file(p)
    print(repr(time.perf_counter()))


def main(argv: list[str]) -> int:
    if argv[0] == "--setup":
        setup_probe(argv[1:])
        return 0
    job = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = run_job(job)
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
