"""The narrative demos run to completion against the source tree."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("prefix", ["01", "02", "03", "04", "05", "06"])
def test_demo_exits_zero(prefix, tmp_path):
    (script,) = (ROOT / "demos").glob(f"{prefix}_*.py")
    # Demo 02 writes its CSV (and PNG) beside itself, so it runs from a copy.
    script = Path(shutil.copy(script, tmp_path))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
