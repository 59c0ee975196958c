"""The demo scripts run to completion; the frame round-trip and two-profile
demos print their golden output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stratwave as sw

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"
GOLDEN = {name: Path(__file__).resolve().parent / "data" / f"golden_{name}.txt"
          for name in ("frame_roundtrip_demo", "two_profile_demo")}


@pytest.mark.parametrize("name", ["frame_roundtrip_demo", "measure_constants",
                                  "two_profile_demo"])
def test_script_exits_zero(name, tmp_path):
    # the package under test, wherever it is imported from, comes first
    src = str(Path(sw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(SCRIPT_DIR / f"{name}.py")], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr[-2000:]
    if name in GOLDEN:  # stdout byte for byte, and nothing on stderr
        assert run.stderr == ""
        assert run.stdout == GOLDEN[name].read_text()
