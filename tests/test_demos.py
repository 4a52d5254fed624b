import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", ["04_certificate_length5.py", "06_beyond_length_five.py"])
def test_certificate_demo_runs(demo):
    run_demo(demo)


def test_homogeneity_demo_runs():
    run_demo("02_homogeneity_boundary.py")
