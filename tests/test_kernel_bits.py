"""Bit-reference tests of the hunt kernel's shortcuts (``graded_space``).

The lattice's zero bases are raised as 1.0 and their powers set back to
0; ``_rescaled_norms`` takes its integer split by integer division, reads
2^(rem/2r) from a table and leaves out the terms whose 2r-th power
underflows; ``_batch_norms`` sends rows that must overflow to it without
a power pass. Each shortcut must keep the bits of the plain formula. The
last test runs these tests, a short pinned hunt and demo 05 once more
under numpy's baseline float64 power loop, in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gradenorm import graded_space
from gradenorm.graded_space import POWER_LOOP, GradingSignature, _batch_norms, _rescaled_norms

ROOT = Path(__file__).resolve().parent.parent

R_VALUES = [1, 2, 3, 5, 7, 8, 12, 24, 47, 60, 200, 1000]


def exponents(r):
    return np.asarray(GradingSignature(r).exponents, dtype=float)


def parent_rescaled_norms(mags, exponents):
    """``_rescaled_norms`` as it stood before the kernel shortcuts: a float
    divmod, 2^(rem/2r) raised per level and every scaled term raised."""
    exps = np.asarray(exponents, dtype=float)
    two_r = exps[0]
    m, p = np.frexp(mags)
    n, rem = np.divmod(p * exps, two_r)
    q = np.ldexp(m ** (exps / two_r) * 2.0 ** (rem / two_r), n.astype(int))
    top = q.max(axis=1)
    scaled = q / np.where(top > 0.0, top, 1.0)[:, None]
    return top * (scaled**two_r).sum(axis=1) ** (1.0 / two_r)


def reference_norms(mags, exps):
    """The row-sum norm where the power sum is a normal double, the parent's
    rescaled norm elsewhere: what ``_batch_norms`` gives one block."""
    r = exps.shape[0]
    if r == 1:
        return mags[:, 0]
    with np.errstate(over="ignore"):
        total = np.power(mags, exps[None, :]).sum(axis=1)
    normal = (total >= np.finfo(float).tiny) & (total < np.inf)
    out = total ** (1.0 / (2 * r))
    out[~normal] = parent_rescaled_norms(mags[~normal], exps)
    return out


def lattice_block(r, resolution, seed):
    """A lattice block as ``numeric_search._scan_lattice`` builds it: the
    points, and 1.0 where a point sits at level 0 (an exact zero)."""
    rng = np.random.default_rng(seed)
    rows = 48 if r >= 200 else 256
    levels = rng.integers(0, resolution, size=(rows, 2 * r))
    values = np.linspace(0.0, 1.0, resolution)
    pts = values[levels] * 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, 2 * r))
    return pts, (levels == 0).astype(float)


@pytest.mark.parametrize("resolution", range(1, 7))
@pytest.mark.parametrize("r", R_VALUES)
def test_lattice_blocks_keep_their_bits_through_the_substituted_path(r, resolution):
    # resolution 1 makes every entry zero
    exps = exponents(r)
    pts, ones = lattice_block(r, resolution, seed=100 * r + resolution)
    if resolution == 1:
        assert not pts.any() and ones.all()
    a, b = pts[:, :r], pts[:, r:]
    zeros = (ones[:, :r], ones[:, r:], ones[:, :r] * ones[:, r:])
    blocks = (a, b, a + b)
    # at r = 1 the kernel returns the magnitudes and raises nothing; numpy
    # raises a strided column (a, b) with its scalar loop there, whose
    # bits differ from its vector loop's on a few points
    for mags, zero in zip(blocks, zeros) if r > 1 else ():
        with np.errstate(over="ignore"):
            want = np.power(mags, exps[None, :])
            got = graded_space._powers(mags, exps, zeros=zero)
        assert got.tobytes() == want.tobytes()
    got = _batch_norms(exps, *blocks, zeros=zeros)
    assert got.tobytes() == _batch_norms(exps, *blocks).tobytes()
    assert got.tobytes() == np.stack([reference_norms(m, exps) for m in blocks]).tobytes()


def rescaled_inputs(r):
    """Level lengths 10^U(-300, 300); rows of subnormals, alone and among
    normal levels; all-zero rows; 1e300 and 1e-300; and lattice rows with
    exact zeros, for profiles of length r."""
    rng = np.random.default_rng(7000 + r)
    tiny = np.nextafter(0.0, 1.0)
    mixed = 10.0 ** rng.uniform(-300.0, 300.0, size=(8, r))
    mixed[:, ::3] = tiny * rng.integers(1, 2**52, size=mixed[:, ::3].shape)
    rows = [
        10.0 ** rng.uniform(-300.0, 300.0, size=(64, r)),
        (10.0 ** rng.uniform(-3.0, 3.0, size=(16, r))) ** rng.uniform(1.0, 100.0, size=(16, 1)),
        tiny * rng.integers(1, 2**52, size=(8, r)).astype(float),
        np.full((1, r), tiny),
        mixed,
        np.zeros((2, r)),
        np.full((1, r), 1e300),
        np.full((1, r), 1e-300),
        rng.choice([0.0, tiny, 1e-300, 1.0, 1e300], size=(16, r)),
    ]
    return np.concatenate(rows)


@pytest.mark.parametrize("r", R_VALUES)
def test_rescaled_norms_keep_the_parent_formulas_bits(r):
    exps = exponents(r)
    mags = rescaled_inputs(r)
    want = parent_rescaled_norms(mags, exps)
    assert _rescaled_norms(mags, exps).tobytes() == want.tobytes()
    # ``_norm`` passes the exponents as a tuple of ints
    ints = GradingSignature(r).exponents
    assert _rescaled_norms(mags, ints).tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [47, 52, 60, 200, 1000])
def test_rows_sent_past_the_power_pass_keep_their_bits(r):
    # from r = 52 on, rows with a level at or above 2^ceil(1024/e_i) skip
    # the power pass; the others keep the row-sum bits, and at r = 47 every
    # row takes the power pass
    exps = exponents(r)
    rng = np.random.default_rng(r)
    limits = 2.0 ** np.ceil(1024 / exps)
    mags = 10.0 ** rng.uniform(-3.0, 3.0, size=(64, r))
    mags[::4, rng.integers(0, r)] = limits.max()  # at a limit: must overflow
    mags[1::4] = np.nextafter(limits, 0.0) * rng.uniform(0.0, 1.0, size=(16, r)) ** 8
    assert (mags >= limits).any(axis=1).any()
    (got,) = _batch_norms(exps, mags)
    assert got.tobytes() == reference_norms(mags, exps).tobytes()
    assert np.isfinite(got).all()


# The baseline loop's run: these tests, a short pinned hunt and demo 05.
# The CI workflow runs the same selection in its own step.
BASELINE_FEATURES = "X86_V4 AVX512_ICL AVX512_SPR"
BASELINE_RUN = [
    "tests/test_kernel_bits.py",
    "tests/test_numeric_search.py::test_hunt_outcome_is_pinned[r5-n1000-seed0]",
    "tests/test_demos.py::test_counterexample_hunt_demo_output_is_pinned",
]


def test_pins_and_kernel_bits_hold_under_the_baseline_power_loop():
    if POWER_LOOP not in ("X86_V4", "baseline(X86_V2)"):
        pytest.skip(f"not an x86-64 power loop: {POWER_LOOP!r}")
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": BASELINE_FEATURES,
        "PYTHONPATH": str(ROOT / "src"),
    }
    loop = subprocess.run(
        [sys.executable, "-c", "from gradenorm.graded_space import POWER_LOOP; print(POWER_LOOP)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert loop.stdout.strip() == "baseline(X86_V2)", loop.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "not baseline_power_loop", *BASELINE_RUN],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
