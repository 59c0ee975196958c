"""The benchmark's own tests: every metric is emitted, and corrupted results fail.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(declared)
    for name, m in got.items():
        assert m["unit"] == declared[name]
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_runs_fail_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- checkers ---------------------------------------------------------------

def _runner(workload):
    return run.Runner(Namespace(workload=workload, seed=5, size="tiny"))


def _edit_report(result, key, edit):
    obj = json.loads(result[key])
    edit(obj)
    return {**result, key: json.dumps(obj).encode()}


def _set(path, value):
    def edit(obj):
        target = obj
        for k in path[:-1]:
            target = target[k]
        target[path[-1]] = value
    return edit


# each is caught by the check itself, without a reference op to compare to
CORRUPTIONS = {
    "decompose": [
        lambda r: {**r, "rc": [0, 2]},
        lambda r: _edit_report(r, "dec", _set(["nu"], 99)),
        lambda r: _edit_report(r, "dec", lambda o: o["profiles"][0]["atoms"][0].update(
            re=o["profiles"][0]["atoms"][0]["re"] + 1e-6)),
        lambda r: _edit_report(r, "dec", lambda o: o["profiles"].pop()),
        lambda r: _edit_report(r, "dec", _set(["energy_defects", "0"], [1e-6])),
    ],
    "frame": [
        lambda r: {**r, "rc": 1},
        lambda r: _edit_report(r, "report", _set(["frame_residual"], 1e-3)),
        lambda r: _edit_report(r, "report", _set(["frame_iterations"], 50)),
        lambda r: _edit_report(r, "report", _set(["corrected_rel_error"], 1e-3)),
        lambda r: _edit_report(r, "report", _set(["roundtrip_rel_error"], None)),
    ],
    "lattice": [
        lambda r: {**r, "certs": [[*c[:4], math.nan, *c[5:]] for c in r["certs"]]},
        lambda r: {**r, "certs": [[*c[:5], c[5] - 1, *c[6:]] for c in r["certs"]]},
        # a dropped or doubled lattice point moves the partial sum, not its finiteness
        lambda r: {**r, "certs": [[*c[:6], c[6] * (1 + 1e-9), c[7]] for c in r["certs"]]},
        lambda r: {**r, "certs": [[*c[:7], c[7] + 1e-6] for c in r["certs"]]},
        lambda r: {**r, "tiling": [1 / 8, 0.0, r["tiling"][2]]},
        lambda r: {**r, "tiling": [0.0, 1 / 8, r["tiling"][2]]},
    ],
}

# each passes the check alone and is caught only as a change from the first op
DRIFT = {
    "decompose": lambda r: {**r, "dec": r["dec"] + b" "},
    "frame": lambda r: {**r, "report": r["report"] + b" "},
    "lattice": lambda r: {**r, "certs": [[*c[:4], c[4] * (1 + 1e-15), *c[5:]]
                                         for c in r["certs"]]},
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_results_count_as_failures(workload):
    runner = _runner(workload)
    try:
        op = runner.wl.op
        good = op()
        for n, corrupt in enumerate(CORRUPTIONS[workload], start=1):
            runner.wl.op = lambda: corrupt(good)
            _, digest = runner.op()
            assert digest is None and runner.failed == n, f"corruption {n} passed"
        assert runner.reference is None
        failed = runner.failed
        runner.wl.op = lambda: DRIFT[workload](good)
        assert runner.op()[1] is not None
        runner.wl.op = op
        _, digest = runner.op()
        assert digest is None and runner.failed == failed + 1
    finally:
        runner.close()


def test_tracer_restores_every_binding():
    runner = _runner("decompose")
    try:
        import tracer
        import stratwave
        from stratwave import groups, profiles, transform

        originals = (groups.dilate, transform.dilate, stratwave.dilate,
                     vars(profiles.ScaleCorePair)["kappa"],
                     vars(stratwave.CoefficientField)["build"])
        t = tracer.Tracer()
        assert t.install([runner.W]) > 100
        assert transform.dilate is groups.dilate is stratwave.dilate
        assert transform.dilate is not originals[0]
        assert vars(profiles.ScaleCorePair)["kappa"] is not originals[3]
        t.begin_op(0)
        runner.op()
        t.end_op()
        assert t.uninstall([runner.W]) == []
        assert (groups.dilate, transform.dilate, stratwave.dilate,
                vars(profiles.ScaleCorePair)["kappa"],
                vars(stratwave.CoefficientField)["build"]) == originals
        assert t.calls[t.nid("profiles.ScaleCorePair.kappa")] > 0
        assert t.calls[t.nid("cli.main")] == 2
    finally:
        runner.close()


def test_tracer_keeps_its_own_cost_out_of_span_times():
    import time
    import tracer

    def leaf(x):
        return x

    def loop(f, n):
        for i in range(n):
            f(i)

    n = 20_000
    bare = []
    for _ in range(5):
        t0 = time.perf_counter()
        loop(leaf, n)
        bare.append(time.perf_counter() - t0)
    t = tracer.Tracer()
    t.calibrate()
    wrapped_loop, wrapped_leaf = t._wrap(loop, "loop"), t._wrap(leaf, "leaf")
    wall, reported = [], []
    for _ in range(5):
        before = t.incl[t.nid("loop")]
        t0 = time.perf_counter()
        wrapped_loop(wrapped_leaf, n)
        wall.append(time.perf_counter() - t0)
        reported.append(t.incl[t.nid("loop")] - before)
    # wrapping makes the loop many times slower; at most a fifth of that
    # extra time may show in what the loop's span reports
    assert min(reported) - min(bare) < 0.2 * (min(wall) - min(bare))
    assert t.calls[t.nid("leaf")] == 5 * n
