"""The linhyp benchmark: three closed-loop workloads, one client each.

Usage (from the root of a checkout):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--jobs 1]
    python3 perfbench/run.py --make-goldens

Workloads:

* ``classify-ladder``: one ``lhm classify --jobs 1`` subprocess per group of
  a fixed ladder of eight groups; the seed orders each pass.
* ``triple-queries``: seeded random triples of distinct involutions on a6,
  s6xz2 and a7, each validated and, when admissible, given its invariants.
* ``flag-files``: seeded ``.flags`` files (regular ones and two-cycle swaps
  of them) loaded, validated and, when valid, given cells, surface and
  hypergraph configuration.

Every output is checked: the ladder against pinned digests and counts, the
other two against an independent oracle (:mod:`oracle`) and, on the
default seed, against pinned digests.  A run prints a summary on stderr,
writes a run record under ``.perfbench_out/`` and prints, as the last line
of stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

WORKLOADS = ("classify-ladder", "triple-queries", "flag-files")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_REPEATS = 7
TAIL_MIN_OPS = 100
TAIL_BEYOND = 10
WORKER_TIMEOUT = 150

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "catalog.parse_group_file_ms": "ms",
    "catalog.load_flag_hypermap_ms": "ms",
    "permgroup.closure_ms": "ms",
    "permgroup.group_init_ms": "ms",
    "permgroup.automorphism_group_s": "s",
    "permgroup.aut_size": "count",
    "permgroup.subgroup_bits_us": "us",
    "permgroup.mul_ns": "ns",
    "permgroup.involutions": "count",
    "classify.classify_s": "s",
    "classify.candidates": "count",
    "classify.admissible": "count",
    "classify.classes": "count",
    "classify.admissible_ratio": "ratio",
    "regular.validate_regular_us": "us",
    "regular.from_triple_us": "us",
    "regular.m_sequence_us": "us",
    "regular.core_dichotomy_us": "us",
    "regular.dual_us": "us",
    "regular.build_classes_ms": "ms",
    "regular.admissible_frac": "ratio",
    "hypermap.validate_hypermap_ms": "ms",
    "hypermap.extract_cells_ms": "ms",
    "hypermap.surface_invariant_ms": "ms",
    "hypermap.underlying_hypergraph_ms": "ms",
    "hypermap.configuration_check_ms": "ms",
    "hypermap.valid_frac": "ratio",
    "cli.startup_ms": "ms",
    "cli.residual_ms": "ms",
    "trace.overhead_frac": "ratio",
    **{f"self.{layer}_frac": "ratio" for layer in LAYERS},
}

# The ladder's pinned group order, |Aut|, admissible triples and classes.
PINNED = {
    "z2cubed": (8, 168, 0, 0), "s4": (24, 24, 96, 4), "s4xz2": (48, 48, 384, 8),
    "a5": (60, 120, 840, 7), "a5xz2": (120, 120, 2280, 19),
    "s5": (120, 120, 2160, 18), "psl27": (168, 336, 1680, 5),
    "s5xz2": (240, 240, 10080, 42),
}


class Refused(Exception):
    """The benchmark cannot produce a valid result in this environment."""


def check_environment(jobs: int) -> None:
    if not (SRC / "linhyp" / "__init__.py").is_file():
        raise Refused(f"no linhyp sources under {SRC}; run from a checkout")
    if "LHM_MAX_GROUP_ORDER" in os.environ:
        raise Refused("LHM_MAX_GROUP_ORDER is set; unset it so that every "
                      "run uses the default closure cap")
    if jobs != 1:
        raise Refused(f"--jobs {jobs}: the benchmark measures the "
                      "single-process engine and runs only with --jobs 1")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> int:
    """Keep the benchmark and every process it starts on one CPU, so that
    the reference loop of :mod:`calib` gauges the CPU that runs the ops
    (the ladder's ``lhm`` subprocesses too)."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def digest(values) -> str:
    return hashlib.sha256(
        json.dumps(values, sort_keys=True).encode()).hexdigest()


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


# --- inputs ------------------------------------------------------------------


def make_inputs(workload: str, seed: int, smoke: bool, work: Path,
                goldens: dict) -> dict:
    import inputs
    if workload == "classify-ladder":
        job = inputs.ladder_inputs(
            seed, inputs.SMOKE_LADDER if smoke else inputs.LADDER)
        job["expected"] = [goldens["ladder"][n] for n in job["ops"]]
    elif workload == "triple-queries":
        job = inputs.query_inputs(
            seed, inputs.SMOKE_QUOTAS if smoke else inputs.QUERY_QUOTAS)
    else:
        job = inputs.flag_inputs(
            seed, inputs.SMOKE_FLAG_PLAN if smoke else inputs.FLAG_PLAN, work)
    return job


def make_probe(seed: int, work: Path, goldens: dict) -> dict:
    """The smoke inputs of every workload, for the traced run's probe."""
    import inputs
    queries = inputs.query_inputs(seed, inputs.SMOKE_QUOTAS)
    probe_dir = work / "probe"
    probe_dir.mkdir()
    flags = inputs.flag_inputs(seed, inputs.SMOKE_FLAG_PLAN, probe_dir)
    ladder = {n: str(inputs.group_path(n)) for n in inputs.SMOKE_LADDER}
    return {"ladder": ladder, "queries": queries, "flags": flags,
            "expected": {"ladder": {n: goldens["ladder"][n] for n in ladder},
                         "queries": queries["expected"],
                         "flags": flags["expected"]}}


# --- measurement -------------------------------------------------------------


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(WORK_DIR))


def measure_setup(group_files: list[str], repeats: int) -> list[float]:
    """Fresh interpreters importing linhyp and parsing the workload's groups."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--setup", *group_files],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return times


def run_worker(job: dict, work: Path) -> dict:
    job_file, result_file = work / "job.json", work / "result.json"
    job_file.write_text(json.dumps(job), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "worker.py"), str(job_file),
           str(result_file)]
    # its own process group, so that on any way out, a ladder subprocess
    # of the worker's is stopped with it
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return json.loads(result_file.read_text(encoding="utf-8"))


def count_failures(run: dict, expected: list) -> tuple[int, int, list]:
    """Attempted and failed ops of one measured phase, and what failed.

    ``outputs`` holds each op's first-pass output and ``mismatches`` every
    later output that differed from it.
    """
    passes = run["passes"]
    later: dict[int, list] = {}
    for i, p, out in run["mismatches"]:
        later.setdefault(i, []).append((p, out))
    failed, bad = 0, []
    for i, first in enumerate(run["outputs"]):
        changed = later.get(i, [])
        if first != expected[i]:
            failed += passes - len(changed)
            bad.append({"op": i, "got": first, "expected": expected[i]})
        for p, out in changed:
            if out != expected[i]:
                failed += 1
                bad.append({"op": i, "pass": p, "got": out})
    return passes * len(expected), failed, bad


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, never
    below the median, as (percentile, value)."""
    s = sorted(values)
    idx = len(s) - TAIL_BEYOND - 1
    if idx < (len(s) - 1) / 2:
        return 50.0, statistics.median(s)
    return 100.0 * (idx + 1) / len(s), s[idx]


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, timings in reference seconds (see
    :mod:`calib`), and the raw timings beside the scale.  The set-ups run
    just before the untraced passes, and their own gaps are too short to
    gauge the machine's speed, so ``setup_s`` takes the passes' scale."""
    untraced = result["untraced"]
    samples = untraced["samples"]
    per_op = [statistics.median(s[0] for s in op) for op in samples]
    wall = sum(per_op)
    cpu = sum(statistics.median(s[1] for s in op) for op in samples)
    pooled = [s[0] for op in samples for s in op]
    # Given enough distinct ops, the tail is over each op's median, so that
    # a host hiccup in one pass cannot set it; otherwise over all samples.
    # With too few samples for any percentile above the median to have ten
    # beyond it (the ladder), it is the slowest op's median.
    if len(per_op) >= TAIL_MIN_OPS:
        basis, (pct, tail_value) = "op medians", tail(per_op)
    elif len(pooled) > 2 * TAIL_BEYOND:
        basis, (pct, tail_value) = "op samples", tail(pooled)
    else:
        basis, pct, tail_value = "op medians", 100.0, max(per_op)
    raw = {"wall_s": wall, "cpu_s": cpu, "setup_s": statistics.median(setup),
           "op_p50_ms": statistics.median(per_op) * 1e3,
           "op_tail_ms": tail_value * 1e3}
    scale = untraced["scale"]
    metrics = {k: v * scale for k, v in raw.items()}
    metrics["ops_per_s"] = len(samples) / metrics["wall_s"]
    metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024
    metrics = {k: metrics[k] for k in END_TO_END}
    info = {"op_tail_percentile": pct, "op_tail_basis": basis,
            "op_ops": len(per_op), "op_samples": len(pooled),
            "passes": untraced["passes"], "setup_samples_s": setup,
            "raw": raw, "scale": scale,
            "reference_call_s": untraced["reference_call_s"]}
    return metrics, info


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    goldens = load_goldens()
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}{'-smoke' if smoke else ''}-seed{seed}"
    try:
        job = make_inputs(workload, seed, smoke, work, goldens)
        expected = job.pop("expected")
        job.update(workload=workload, seconds=seconds, trace=int(trace),
                   seed=seed, work=str(work),
                   trace_file=str(OUT_DIR / f"trace-{tag}.json"))
        if trace:
            job["probe"] = make_probe(seed, work, goldens)
        setup = measure_setup(list(job["groups"].values()),
                              2 if smoke else SETUP_REPEATS)
        result = run_worker(job, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, bad = count_failures(result["untraced"], expected)
    checks = {}
    key = workload + (".smoke" if smoke else "")
    if workload != "classify-ladder" and seed == DEFAULT_SEED:
        checks["golden_digest"] = (
            digest(result["untraced"]["outputs"]) == goldens["digests"][key])
    if trace:
        a, f, b = count_failures(result["traced"], expected)
        attempted, failed, bad = attempted + a, failed + f, bad + b
        probe_expected = job["probe"]["expected"]
        for part, outs in result["probe_outputs"].items():
            exp = probe_expected[part]
            pairs = (zip(outs.values(), exp.values()) if part == "ladder"
                     else zip(outs, exp))
            for got, want in pairs:
                attempted += 1
                if got != want:
                    failed += 1
                    bad.append({"probe": part, "got": got, "expected": want})
    metrics, info = end_to_end(result, setup)
    if trace:
        layer = result["per_layer"]
        metrics = {name: layer[name] for name in PER_LAYER}
        info["detail"] = result["detail"]
        info["trace_file"] = os.path.relpath(job["trace_file"], ROOT)
    units = PER_LAYER if trace else END_TO_END
    record = {
        "workload": workload, "smoke": smoke, "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "checks": checks,
        "failures": bad[:20],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "info": info, "machine": machine(),
    }
    path = OUT_DIR / f"run-{tag}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def machine() -> dict:
    import numpy
    sha = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "cpu_model": cpu, "setup_repeats": SETUP_REPEATS}


def summarize(record: dict) -> str:
    lines = [f"== {record['workload']}{' (smoke)' if record['smoke'] else ''} "
             f"seed {record['seed']}, trace {record['trace']}: "
             f"correct={record['correct']} attempted={record['attempted']} "
             f"failed={record['failed']} "
             f"failed_frac={record['failed_frac']:.4g}"]
    for name, m in record["metrics"].items():
        lines.append(f"   {name:36s} {m['value']:14.6g} {m['unit']}")
    info = record["info"]
    if "scale" in info and not record["trace"]:
        lines.append(f"   timings scaled by {info['scale']:.4g} (reference call "
                     f"{info['reference_call_s'] * 1e3:.4g} ms); raw " + ", ".join(
                         f"{k} {v:.6g}" for k, v in info["raw"].items()))
    if "op_tail_percentile" in info and not record["trace"]:
        lines.append(f"   op_tail_ms is p{info['op_tail_percentile']:.4g} of "
                     f"the {info['op_tail_basis']} of {info['op_ops']} ops, "
                     f"{info['op_samples']} samples over "
                     f"{info['passes']} passes")
    detail = info.get("detail")
    if detail:
        per_pass = detail["self_s_per_pass"]
        lines.append(
            f"   layer self time per traced pass: {sum(per_pass.values()):.4g} s "
            f"(traced wall_s {detail['traced_wall_s']:.4g} s, untraced "
            f"{detail['untraced_wall_s']:.4g} s)")
        lines.append("   " + ", ".join(f"{k} {v:.4g}" for k, v in per_pass.items()))
        probed = sorted(k for k, v in detail["source"].items() if v == "probe")
        if probed:
            lines.append("   from the layer probe: " + ", ".join(probed))
        for key, v in detail.items():
            if key.count(".") >= 2 or key.startswith("op_s."):
                shown = f"{v:14.6g}" if isinstance(v, (int, float)) else v
                lines.append(f"   {key:48s} {shown}")
    for failure in record["failures"]:
        lines.append(f"   FAILED {json.dumps(failure)[:300]}")
    return "\n".join(lines)


# --- goldens -----------------------------------------------------------------


def make_goldens() -> None:
    """Recompute goldens.json and cross-check it once against brute force
    and the flag-level validator."""
    import inputs
    import worker
    from linhyp.catalog import parse_group_file
    from linhyp.classify import admissible_triples
    from linhyp.hypermap import FlagHypermap, validate_hypermap
    from linhyp.permgroup import Permutation
    from linhyp.regular import RegularLinearHypermap, triple_from_words

    goldens = {"ladder": {}, "digests": {}}
    WORK_DIR.mkdir(exist_ok=True)
    for name in inputs.LADDER:
        out = WORK_DIR / f"golden-{name}.json"
        subprocess.run([sys.executable, "-m", "linhyp.cli", "classify",
                        "--jobs", "1", "--group", str(inputs.group_path(name)),
                        "--out", str(out)], env=child_env(), cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        d = worker.classification_digest(out)
        if (d["order"], d["aut"], d["admissible"], d["classes"]) != PINNED[name]:
            raise SystemExit(f"{name}: counts {d} differ from {PINNED[name]}")
        group = parse_group_file(inputs.group_path(name)).group
        brute = sum(1 for _ in admissible_triples(group))
        if brute != d["admissible"]:
            raise SystemExit(f"{name}: brute force finds {brute} triples")
        for cls in json.loads(out.read_text())["classes"]:
            m = RegularLinearHypermap.from_triple(triple_from_words(
                group, ";".join((cls["r0"], cls["r1"], cls["r2"]))))
            if not validate_hypermap(m.to_flag_hypermap()).ok:
                raise SystemExit(f"{name}: class {cls['index']} fails the "
                                 "flag-level validator")
        out.unlink()
        goldens["ladder"][name] = d
        print(f"ladder {name}: {d}", file=sys.stderr)

    for smoke in (False, True):
        suffix = ".smoke" if smoke else ""
        q = inputs.query_inputs(DEFAULT_SEED, inputs.SMOKE_QUOTAS if smoke
                                else inputs.QUERY_QUOTAS)
        groups = worker.parse_groups(q["groups"])
        outs = []
        for t, exp in zip(worker.build_triples(groups, q["ops"]), q["expected"]):
            got = worker.query_op(t)
            g = t.group
            flags = FlagHypermap(*(Permutation([g.mul(x, r) for x in range(g.order)])
                                   for r in t.indices))
            if got != exp or validate_hypermap(flags).ok != got["ok"]:
                raise SystemExit(f"triple {t}: program {got}, oracle {exp}")
            outs.append(got)
        goldens["digests"]["triple-queries" + suffix] = digest(outs)

        work = WORK_DIR / "golden-flags"
        work.mkdir(exist_ok=True)
        f = inputs.flag_inputs(DEFAULT_SEED, inputs.SMOKE_FLAG_PLAN if smoke
                               else inputs.FLAG_PLAN, work)
        outs = [worker.flag_op(p) for p in f["ops"]]
        shutil.rmtree(work)
        if outs != f["expected"]:
            raise SystemExit("flag files: program and oracle disagree")
        goldens["digests"]["flag-files" + suffix] = digest(outs)
    GOLDENS.write_text(json.dumps(goldens, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDENS}", file=sys.stderr)


# --- command line ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="must be 1: the benchmark measures one process")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--make-goldens", action="store_true")
    args = parser.parse_args(argv)
    # a termination unwinds like an error, so every child is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        check_environment(args.jobs)
    except Refused as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    if args.make_goldens:
        make_goldens()
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace),
                            args.smoke) for w in names]
    for record in records:
        print(summarize(record), file=sys.stderr)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
