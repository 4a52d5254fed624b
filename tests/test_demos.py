import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gradenorm.graded_space import POWER_LOOP

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
    return proc.stdout


@pytest.mark.parametrize("demo", ["04_certificate_length5.py", "06_beyond_length_five.py"])
def test_certificate_demo_runs(demo):
    run_demo(demo)


def test_homogeneity_demo_runs():
    run_demo("02_homogeneity_boundary.py")


def test_orbits_and_shadows_demo_output_is_pinned():
    # the r = 5 orbit and shadow ledger and a seeded Hölder-bound sweep
    stdout = run_demo("03_orbits_and_shadows.py")
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    assert digest == "f0da42e2d2797b2f0e9cef861861f6217fb78019fe0e9d1286d1d5fb6461df55"


# the demo's hunts keep the bits of one float64 power loop, as the hunt
# pins in test_numeric_search do; the baseline digest was recorded with
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
DEMO_05_SHA256 = {
    "X86_V4": "24c8555df242118b3e8574db721841ce6b2f9122062b0cdca488effec469caef",
    "baseline(X86_V2)": "2f205e2f248a3f07a6acd7d1f840fa74842f1d3f5358744d850c79d582951a41",
}


def test_counterexample_hunt_demo_output_is_pinned():
    # four 200k-sample hunts: a hunt that changes shows in the rounded
    # defect, evaluation count or argmax profiles the demo prints
    if POWER_LOOP not in DEMO_05_SHA256:
        pytest.skip(f"no demo 05 digest for numpy's float64 power loop {POWER_LOOP!r}")
    stdout = run_demo("05_counterexample_hunt.py")
    assert "VIOLATION" not in stdout
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    assert digest == DEMO_05_SHA256[POWER_LOOP]
