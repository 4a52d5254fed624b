"""The counterexample hunter for the scalar triangle inequality, plus the
float checks of the proof: the value of one certificate line at a
point, and the expansion identities the certificates rest on. The norms
come from ``graded_space``'s batch kernel.

The hunter maximizes the defect N(a + b) - N(a) - N(b) over pairs of
nonnegative profiles with three stages: a coarse lattice rescaled into
six decades of magnitude, a large seeded random sweep, and a short
projected coordinate-ascent refinement of the best candidates. The
scalar defect is homogeneous: under D_t a = (t^{2r/e_i} a_i)_i every
a_i^{e_i} scales by t^{2r}, so each norm, and the defect, scales by t.
A common scale of a and b thus only rescales the defect; what the six
decades spread is the ratio of one level to another and of a to b, each
entry drawn log-uniformly on its own. The dilation that is not homogeneous for
r >= 3 is the vector one, level i by t^i (``graded_space``).

A defect only counts as a violation when it exceeds
tolerance * max(1, N(a) + N(b)); absolute thresholds misfire across
magnitude decades. The hunter is a falsifier, not a verifier: a clean
run is evidence, the certificate checker is the proof.

Everything is deterministic given the configured seed, including the
parallel path: work is split into fixed chunks with per-chunk spawned
seeds and merged by first-best, so thread count never changes results.
Each random stream (the lattice's levels and its scales, a and b of
each sweep chunk) has a generator of its own on a child of the hunt's
SeedSequence, so drawing it in blocks of bounded size gives the bits of
its whole draw and memory stays flat as r grows. ``hunt`` says how the
seeds are laid out, and ``_ascend`` how the ascent batches its moves.

The lattice's level 0 is an exact zero, a third of its entries at the
default resolution. Under numpy's X86_V4 float64 power loop, where a
zero base costs about 4 times a normal one, ``_scan_lattice`` marks
those entries and the kernel raises them as 1.0 and sets their powers
back to 0, for a, b and a + b, with the same bits. Under the baseline
loop a zero costs no more, and nothing is marked (``graded_space``). The
sweep and the ascent know of no zeros and mark none.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .exactmath import GradingSignature, binom
from .expansion import shadow
from .graded_space import (
    ZERO_BASES_ARE_SLOW,
    ScalarProfile,
    _batch_norms,
    profile_to_json,
    scalar_norm,
)

if TYPE_CHECKING:  # a hunt needs no certificate module
    from .certificate import CertificateLine

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "hunt",
    "line_defect",
    "pure_terms_cancel",
    "holder_shadow_bound_check",
]

LOG10_MAGNITUDE_RANGE = (-3.0, 3.0)
# the same range in natural logs, which ``_log_uniform_blocks`` draws over
LOG_MAGNITUDE_RANGE = tuple(bound * math.log(10) for bound in LOG10_MAGNITUDE_RANGE)

_GRID_POINT_CAP = 100_000
_CHUNK_ROWS = 200_000
_BLOCK_ROWS = 4096
_BLOCK_ELEMENTS = 2**19
_ASCENT_CANDIDATES = 8
_ASCENT_STEP_SIZE = 0.25


@dataclass(frozen=True)
class SearchConfig:
    r: int
    sample_count: int = 1_000_000
    grid_resolution: int = 3
    ascent_steps: int = 200
    rng_seed: int = 0
    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        GradingSignature(self.r)  # validates r
        counts = ("sample_count", "grid_resolution", "ascent_steps", "rng_seed")
        for name, low in zip(counts, (1, 1, 1, 0)):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
        # a NaN or infinite tolerance would make every verdict False
        if not 0 < self.tolerance < float("inf"):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance!r}")


@dataclass(frozen=True)
class SearchOutcome:
    max_defect: float
    max_relative_defect: float
    argmax: tuple[ScalarProfile, ScalarProfile]
    samples_evaluated: int
    violation_found: bool

    def to_json(self) -> dict:
        return {
            "r": self.argmax[0].signature.r,
            "max_defect": self.max_defect,
            "max_relative_defect": self.max_relative_defect,
            "argmax_a": profile_to_json(self.argmax[0]),
            "argmax_b": profile_to_json(self.argmax[1]),
            "samples_evaluated": self.samples_evaluated,
            "violation_found": self.violation_found,
        }


def _batch_defects(exponents: np.ndarray, a: np.ndarray, b: np.ndarray):
    return _defects(*_batch_norms(exponents, a, b, a + b))


def _defects(na: np.ndarray, nb: np.ndarray, nsum: np.ndarray):
    defect = nsum - na - nb
    rel = defect / np.maximum(1.0, na + nb)
    return defect, rel


@dataclass
class _Best:
    rel: float = -np.inf
    raw: float = -np.inf
    a: np.ndarray | None = None
    b: np.ndarray | None = None

    def offer(self, rel: float, raw: float, a: np.ndarray, b: np.ndarray) -> None:
        if rel > self.rel:
            self.rel, self.raw = float(rel), float(raw)
            self.a, self.b = np.array(a, copy=True), np.array(b, copy=True)


def _scan_block(exponents, a, b, best: _Best, zeros=None) -> None:
    """Offer the block's best row to ``best``.

    ``zeros``, from the lattice, marks the exact zeros of a, b and a + b
    as ``_batch_norms`` takes them. Those blocks call the kernel here:
    ``_batch_defects`` keeps the three-argument form that
    ``bench/tracing.py`` wraps, so its counters see the sweep and the
    ascent only.
    """
    if zeros is None:
        defect, rel = _batch_defects(exponents, a, b)
    else:
        defect, rel = _defects(*_batch_norms(exponents, a, b, a + b, zeros=zeros))
    idx = int(np.argmax(rel))
    best.offer(rel[idx], defect[idx], a[idx], b[idx])


def _block_rows(width: int) -> int:
    """Rows in one kernel block of ``width`` columns: at most _BLOCK_ROWS
    rows and _BLOCK_ELEMENTS elements, so a block stays a few MB
    whatever r is."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_ELEMENTS // width))


def _product_lattice(r: int, resolution: int) -> np.ndarray:
    """The integer levels of all resolution ** 2r points of the lattice
    over [0, 1]^{2r}, one row per point. Row k is the k-th tuple of
    product(range(resolution), repeat=2r), as from np.indices, which
    allows only 64 dimensions."""
    width = 2 * r
    levels = np.empty((width, resolution**width), dtype=np.intp)
    for j, digit in enumerate(levels):
        digit.reshape(resolution**j, resolution, -1)[...] = np.arange(resolution)[:, None]
    return levels.T


def _streams(seed: np.random.SeedSequence, count: int) -> list[np.random.Generator]:
    """Generators on the first ``count`` children of ``seed``, one per
    random stream. They are spawned from a fresh copy, so that ``seed``
    is left as it was and a second call draws the same numbers."""
    fresh = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size)
    return [np.random.default_rng(child) for child in fresh.spawn(count)]


def _level_blocks(rng: np.random.Generator, resolution: int, rows: int, width: int):
    """Yield the rows of ``rng.integers(0, resolution, (rows, width))`` in
    blocks of _block_rows(width) rows.

    The blocks are bit for bit the rows of the whole draw: PCG64 keeps
    the unused half of a 64-bit output for the next 32-bit word from one
    call to the next.
    """
    size = min(rows, _block_rows(width))
    for start in range(0, rows, size):
        yield rng.integers(0, resolution, size=(min(size, rows - start), width))


def _scan_lattice(exponents, values, level_blocks, scale_blocks) -> _Best:
    """The best lattice point values[levels] * scale over the paired
    blocks of integer levels and log-uniform scales."""
    r = exponents.shape[0]
    # 1.0 at level 0, whose points are exact zeros
    at_zero = (values == 0.0).astype(float)
    best = _Best()
    for levels, scale in zip(level_blocks, scale_blocks):
        pts = values[levels]
        pts *= scale
        zeros = None
        if ZERO_BASES_ARE_SLOW:
            z = at_zero[levels]
            zeros = (z[:, :r], z[:, r:], z[:, :r] * z[:, r:])
        _scan_block(exponents, pts[:, :r], pts[:, r:], best, zeros)
    return best


def _grid_stage(exponents, resolution: int, seed: np.random.SeedSequence) -> tuple[_Best, int]:
    """Stage 1: the best point of the lattice over [0, 1]^{2r}, each
    point times log-uniform magnitudes, and the number of points.

    The full product is taken when it has at most _GRID_POINT_CAP
    points; otherwise the integer levels of _GRID_POINT_CAP points are
    drawn from the first child of ``seed`` (``_level_blocks``). Either
    way the scales come from the second child (``_streams``).
    """
    r = exponents.shape[0]
    width = 2 * r
    level_rng, scale_rng = _streams(seed, 2)
    if resolution**width <= _GRID_POINT_CAP:
        levels = _product_lattice(r, resolution)
        rows, size = len(levels), _block_rows(width)
        level_blocks = (levels[start : start + size] for start in range(0, rows, size))
    else:
        rows = _GRID_POINT_CAP
        level_blocks = _level_blocks(level_rng, resolution, rows, width)
    scales = _log_uniform_blocks(scale_rng, rows, width)
    values = np.linspace(0.0, 1.0, resolution)
    return _scan_lattice(exponents, values, level_blocks, scales), rows


def _log_uniform_blocks(rng: np.random.Generator, rows: int, width: int):
    """Yield the log-uniform magnitudes exp(U(lo, hi)) of a (rows, width)
    draw from ``rng`` in blocks of _block_rows(width) rows.

    lo and hi are LOG10_MAGNITUDE_RANGE times ln 10, each rounded once
    (LOG_MAGNITUDE_RANGE), so the magnitudes span the six decades of
    10 ** U(-3, 3): exp(hi) is 1000.0000000000007, below the 2^11 that
    ``_batch_norms`` relies on. numpy's float64 exp takes about a third
    of the time of its power with a base of 10.0 (4096 x 12 blocks on a
    2-vCPU Xeon VM, under the X86_V4 and the baseline loops).

    The blocks are bit for bit the rows of ``np.exp(rng.uniform(lo, hi,
    (rows, width)))``. uniform rounds (hi - lo) * random(), then adds lo,
    and draws one double after another in C order; each block takes the
    next random() doubles into a reused buffer, scales, then shifts it,
    the same two roundings in the same order, and numpy's exp gives an
    element the same bits wherever it sits in the array. Each block is
    one reused buffer, valid until the next block is drawn.
    """
    lo, hi = LOG_MAGNITUDE_RANGE
    size = min(rows, _block_rows(width))
    buf = np.empty((size, width))
    for start in range(0, rows, size):
        block = buf[: min(size, rows - start)]
        rng.random(out=block)
        block *= hi - lo
        block += lo
        yield np.exp(block, out=block)


def _sweep_blocks(seed: np.random.SeedSequence, rows: int, r: int):
    """Yield the (a, b) row blocks of one sweep chunk of ``rows`` pairs:
    a and b are each a (rows, r) log-uniform draw, a from the first child
    of ``seed`` and b from the second (``_streams``)."""
    rng_a, rng_b = _streams(seed, 2)
    return zip(_log_uniform_blocks(rng_a, rows, r), _log_uniform_blocks(rng_b, rows, r))


def _ascend(exponents, a, b, steps: int, step_size: float):
    """Derivative-free coordinate ascent on the relative defect,
    projected onto the nonnegative orthant.

    A step is one Gauss-Seidel sweep over the 2r coordinates that tries
    x[j] + h*max(|x[j]|, 1e-3), then the same minus, clipped at zero,
    and takes the first move that raises the relative defect before it
    goes on at coordinate j + 1. A step without a move halves h; the
    ascent ends after ``steps`` steps or once h < 1e-10.

    The sweep is scored speculatively: the live moves left in it are
    built from the current x as the rows of a block, in sweep order, and
    each block of _block_rows(2r) of them goes through ``_batch_defects``
    in one call. The first improving row is accepted and the rest of the
    sweep is re-batched from the new point; rows after it are discarded
    and not counted in ``evals``. A block without one is counted whole
    and the next block is scored. A move that leaves x[j] unchanged is
    not a row. The result is bit-identical to scoring the moves one at a
    time.

    Returns (a, b, relative defect, evaluations, defect) at the final
    point. Only a strict improvement moves x, so an ascent without one
    returns its start point's own bits.
    """
    x = np.concatenate([a, b])
    r = a.shape[0]
    width = 2 * r
    size = _block_rows(width)

    defect, rel = _batch_defects(exponents, x[None, :r], x[None, r:])
    current, raw = float(rel[0]), float(defect[0])
    evals = 1
    h = step_size
    for _ in range(steps):
        # a move at coordinate j changes x[j] only, so the moves at the
        # later coordinates stay valid after one of them is accepted
        delta = h * np.maximum(np.abs(x), 1e-3)
        moved = np.stack([x + delta, x - delta], axis=1).ravel()
        moved = np.where(moved > 0.0, moved, 0.0)
        live = moved != x.repeat(2)
        coords, moved = np.arange(width).repeat(2)[live], moved[live]
        improved = False
        while coords.size:
            n = min(coords.size, size)
            block = np.repeat(x[None, :], n, axis=0)
            block[np.arange(n), coords[:n]] = moved[:n]
            defect, rel = _batch_defects(exponents, block[:, :r], block[:, r:])
            wins = np.flatnonzero(rel > current)
            if wins.size == 0:
                evals += n
                coords, moved = coords[n:], moved[n:]
                continue
            k = int(wins[0])
            evals += k + 1
            current, raw, x = float(rel[k]), float(defect[k]), block[k]
            improved = True
            later = coords > coords[k]
            coords, moved = coords[later], moved[later]
        if not improved:
            h *= 0.5
            if h < 1e-10:
                break
    return x[:r], x[r:], current, evals, raw


def hunt(config: SearchConfig, threads: int = 1) -> SearchOutcome:
    """Maximize the scalar defect; deterministic for a fixed config.

    Stages: rescaled lattice, seeded random sweep (chunked, across
    ``threads`` workers), then coordinate ascent from the best
    candidates. Ascent never leaves the nonnegative orthant. The kernel
    rescales power sums outside the double range, so the defects are
    finite for every ``r``; were the best not, ``ValueError`` is raised.

    Every stage goes through the kernel in blocks of at most _BLOCK_ROWS
    rows and _BLOCK_ELEMENTS numbers (``_block_rows``), so a stage holds
    one block of points at a time (one per worker in the sweep), and only
    a full-product lattice holds all its integer levels.

    The root SeedSequence on ``rng_seed`` has two children, one for the
    lattice and one for the sweep, whose children seed the sweep's
    chunks. Every random stream draws from a generator of its own on a
    child of these: the lattice's levels and its scales (``_grid_stage``)
    and a chunk's a and b (``_sweep_blocks``), so a stream drawn in
    blocks is bit for bit its whole draw. Each block is scanned on its
    own and the block bests merge first-best, which picks the row one
    argmax over the whole stage would pick, so neither the block size
    nor the thread count changes the result.
    """
    sig = GradingSignature(config.r)
    exps = np.asarray(sig.exponents, dtype=float)
    root = np.random.SeedSequence(config.rng_seed)
    grid_ss, sweep_ss = root.spawn(2)

    evaluated = 0
    candidates: list[_Best] = []

    # stage 1: lattice rescaled by log-uniform magnitudes
    grid_best, grid_points = _grid_stage(exps, config.grid_resolution, grid_ss)
    evaluated += grid_points
    candidates.append(grid_best)

    # stage 2: random sweep in fixed chunks so thread count is irrelevant
    n_chunks = (config.sample_count + _CHUNK_ROWS - 1) // _CHUNK_ROWS
    chunk_seeds = sweep_ss.spawn(n_chunks)

    def run_chunk(index: int) -> _Best:
        rows = min(_CHUNK_ROWS, config.sample_count - index * _CHUNK_ROWS)
        best = _Best()
        for a, b in _sweep_blocks(chunk_seeds[index], rows, config.r):
            _scan_block(exps, a, b, best)
        return best

    with ThreadPoolExecutor(max_workers=threads) as pool:
        candidates.extend(pool.map(run_chunk, range(n_chunks)))
    evaluated += config.sample_count

    # stage 3: refine the top candidates
    ranked = sorted(
        (c for c in candidates if c.a is not None),
        key=lambda c: -c.rel,
    )[:_ASCENT_CANDIDATES]
    # each ascent ends at or above its candidate's score, so only ascended points compete
    overall = _Best()
    for c in ranked:
        a, b, rel, evals, defect = _ascend(exps, c.a, c.b, config.ascent_steps, _ASCENT_STEP_SIZE)
        evaluated += evals
        overall.offer(rel, defect, a, b)

    if not np.isfinite([overall.raw, overall.rel]).all():
        raise ValueError(f"the hunt at r={config.r} found no finite defect")
    argmax = (ScalarProfile(sig, overall.a), ScalarProfile(sig, overall.b))
    return SearchOutcome(
        max_defect=overall.raw,
        max_relative_defect=overall.rel,
        argmax=argmax,
        samples_evaluated=evaluated,
        violation_found=bool(overall.rel > config.tolerance),
    )


# ---------------------------------------------------------------------------
# Per-line float evaluation
# ---------------------------------------------------------------------------

def line_defect(sig: GradingSignature, line: CertificateLine, x: float, y: float) -> float:
    """c_L (x^{e-s} y^s + x^s y^{e-s}) - c_R (x^a y^b + x^b y^a) at one point.

    Nonpositive for admissible lines and nonnegative x, y.
    """
    e = sig.exponent(line.level)
    s = line.split
    c_left = float(binom(e, s))
    c_right = float(binom(2 * sig.r, line.target))
    alpha, beta = shadow(sig, line.target, line.level).exponents.as_floats()
    lhs = c_left * (x ** float(e - s) * y ** float(s) + x ** float(s) * y ** float(e - s))
    rhs = c_right * (x**alpha * y**beta + x**beta * y**alpha)
    return lhs - rhs


# ---------------------------------------------------------------------------
# Expansion identities in floating point
# ---------------------------------------------------------------------------

def pure_terms_cancel(sig: GradingSignature) -> bool:
    """Confirm the s = 0 / s = e_i pure terms equal the k = 0 / k = 2r terms.

    Every boundary binomial coefficient is 1, so both sides reduce to
    A^{2r} = sum_i a_i^{e_i}; eight seeded random profiles confirm that
    identity numerically to 1e-12 relative.
    """
    rng = np.random.default_rng(0)
    exps = np.asarray(sig.exponents, dtype=float)
    for _ in range(8):
        mags = 10.0 ** rng.uniform(-2.0, 2.0, size=sig.r)
        profile = ScalarProfile(sig, mags)
        power_sum = float(np.sum(mags**exps))
        rebuilt = scalar_norm(profile) ** (2 * sig.r)
        if abs(rebuilt - power_sum) > 1e-12 * max(1.0, power_sum):
            return False
    return True


def holder_shadow_bound_check(
    sig: GradingSignature, k: int, a: ScalarProfile, b: ScalarProfile
) -> float:
    """sum_i a_i^{alpha(k,i)} b_i^{beta(k,i)} - A^{2r-k} B^k.

    Nonpositive by Hölder's inequality; callers allow it up to
    1e-12 * max(1, A^{2r-k} B^k) in floating point.
    """
    if a.signature != sig or b.signature != sig:
        raise ValueError("profiles do not match the signature")
    if not 1 <= k <= sig.r:
        raise ValueError(f"target k={k} out of range for r={sig.r}")
    lhs = 0.0
    for i in range(1, sig.r + 1):
        alpha, beta = shadow(sig, k, i).exponents.as_floats()
        lhs += a.magnitudes[i - 1] ** alpha * b.magnitudes[i - 1] ** beta
    big_a, big_b = scalar_norm(a), scalar_norm(b)
    return lhs - big_a ** (2 * sig.r - k) * big_b**k
