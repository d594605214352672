"""The narrative demos run to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# Demo 02 writes its CSV beside itself, so it is not run here.
@pytest.mark.parametrize("prefix", ["01", "03", "04", "05", "06"])
def test_demo_exits_zero(prefix):
    (script,) = (ROOT / "demos").glob(f"{prefix}_*.py")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
