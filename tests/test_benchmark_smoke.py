"""The benchmark's workloads, run in-process at their full size: each op is
correct by the benchmark's own check and repeats its result bit for bit, so
a wrong or unstable answer shows here before a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)  # for its dataclasses
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.SETUP))
def test_workload_op_is_correct_and_repeats(tmp_path, name):
    wl = workloads.SETUP[name](1, workloads.SIZES["full"][name], tmp_path)
    first = wl.op()
    assert workloads.CHECK[name](first, None, wl.expected) == []
    second = wl.op()
    assert workloads.CHECK[name](second, first, wl.expected) == []
    assert workloads.result_digest(second) == workloads.result_digest(first)
