"""The benchmark's own tests, on its smoke inputs.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402


def bench(*args, env=None, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_smoke_run_checks_every_workload():
    proc = bench("--smoke", "--seconds", "0.5")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{w}.{m}" for w in run.WORKLOADS for m in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    proc = bench("--smoke", "--seconds", "0.5", "--trace", "1",
                 "--workload", "triple-queries")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    shares = [v["value"] for k, v in result["metrics"].items()
              if k.startswith("self.")]
    assert sum(shares) == pytest.approx(1.0)


@pytest.mark.parametrize("args, env_extra", [
    (("--jobs", "2"), {}),
    ((), {"LHM_MAX_GROUP_ORDER": "5000"}),
])
def test_refuses_settings_that_change_what_is_measured(args, env_extra):
    proc = bench("--smoke", *args, env=dict(os.environ, **env_extra))
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "refusing" in proc.stderr


def test_fails_without_the_program_sources():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "triple-queries", "--seconds", "1",
                     cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_group_oracle_agrees_with_linhyp_on_every_s4_triple():
    from linhyp.catalog import parse_group_file
    from linhyp.permgroup import involutions
    from linhyp.regular import InvolutionTriple
    import worker

    group = parse_group_file(HERE / "groups" / "s4.grp").group
    ref = oracle.GroupOracle([e.images for e in group.elements])
    admissible = 0
    for t in itertools.permutations(involutions(group), 3):
        want = ref.hypermap(*(group.elements[i].images for i in t))
        assert worker.query_op(InvolutionTriple(group, *t)) == want
        admissible += want["ok"]
    assert admissible == run.PINNED["s4"][2]


def test_flag_oracle_agrees_with_linhyp_on_the_torus():
    from linhyp.catalog import load_flag_hypermap
    import worker

    path = ROOT / "data" / "torus9.flags"
    h = load_flag_hypermap(path)
    want, facts = oracle.flag_hypermap(h.r0.images, h.r1.images, h.r2.images)
    assert not facts["degenerate"]
    assert worker.flag_op(str(path)) == want
    assert want["cells"] == [9, 6, 3]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(100))
    pct, value = run.tail(values)
    assert value == 89 and sum(v > value for v in values) == 10
    assert pct == 90.0
    assert run.tail(list(range(12))) == (50.0, 5.5)


def test_calibrator_samples_every_pass_and_scales_to_reference_seconds():
    import calib

    c = calib.Calibrator()
    c.next_pass()
    c.after(0.0)  # nothing owed yet
    c.end_pass()  # still one call, so the pass has a speed
    c.next_pass()
    c.after(0.5)  # 5% of 0.5 s owed: at least one call
    assert all(len(p) >= 1 for p in c.passes)
    assert c.scale() == pytest.approx(calib.REF_S / c.speed())
