"""Floating-point falsification of the scalar triangle inequality, the
float value of one certificate line at a point, and float checks of the
expansion identities the certificates rest on.

The hunter maximizes the defect N(a + b) - N(a) - N(b) over pairs of
nonnegative profiles with three stages: a coarse lattice rescaled into
six decades of magnitude, a large seeded random sweep, and a short
projected coordinate-ascent refinement of the best candidates. Because
the norm is not dilation homogeneous for r >= 3, a violation could in
principle hide at extreme scales, hence the explicit log-uniform
magnitude coverage instead of normalizing samples.

The ascent scores the moves left in each coordinate sweep as one
speculative block, accepts the first row that improves and re-batches
the rest of the sweep from there; it reaches the same point with the
same evaluation count as trying the moves one at a time.

A defect only counts as a violation when it exceeds
tolerance * max(1, N(a) + N(b)); absolute thresholds misfire across
magnitude decades. The hunter is a falsifier, not a verifier: a clean
run is evidence, the certificate checker is the proof.

Everything is deterministic given the configured seed, including the
parallel path: work is split into fixed chunks with per-chunk spawned
seeds and merged by first-best, so thread count never changes results.

The lattice and every sweep chunk stream through the kernel in blocks
of _BLOCK_ROWS rows, whose buffers stay in cache. The blocks are drawn
from the same streams, in the same order, as whole-chunk draws, and a
block's best merges first-best, so the result is the same bit for bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from .certificate import CertificateLine
from .exactmath import GradingSignature, binom
from .expansion import shadow
from .graded_space import _TINY, _rescaled_norms
from .graded_space import ScalarProfile, profile_from_json, profile_to_json, scalar_norm

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "scalar_defect",
    "hunt",
    "line_defect",
    "pure_terms_cancel",
    "holder_shadow_bound_check",
]

LOG10_MAGNITUDE_RANGE = (-3.0, 3.0)

_GRID_POINT_CAP = 100_000
_CHUNK_ROWS = 200_000
_BLOCK_ROWS = 4096
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

    @classmethod
    def from_json(cls, obj: Any) -> "SearchOutcome":
        return cls(
            max_defect=float(obj["max_defect"]),
            max_relative_defect=float(obj["max_relative_defect"]),
            argmax=(profile_from_json(obj["argmax_a"]), profile_from_json(obj["argmax_b"])),
            samples_evaluated=int(obj["samples_evaluated"]),
            violation_found=bool(obj["violation_found"]),
        )


@np.errstate(over="ignore")
def _batch_norms(exponents: np.ndarray, *blocks: np.ndarray) -> np.ndarray:
    """Scalar norms of (N, r) blocks of profiles, one result row per block.

    The powers of all blocks fill one array, so the sum below and the
    range check run once per call. Below 8 columns numpy sums a row left
    to right, so the power sum is built column by column in that order:
    the same bits, without a numpy reduction loop per row. From 8
    columns on numpy sums pairwise, and ``sum`` along each row is kept. A
    row whose power sum is not a normal finite double (from r = 47 on,
    1e3 ** 2r overflows) goes to ``_rescaled_norms``.
    """
    r = exponents.shape[0]
    if r == 1:
        # (a^2)^(1/2) is the magnitude itself; keep it bit-exact
        return np.stack([mags[:, 0] for mags in blocks])
    powers = np.empty((len(blocks),) + blocks[0].shape)
    for out, mags in zip(powers, blocks):
        np.power(mags, exponents, out=out)
    if r < 8:
        totals = powers[..., 0] + powers[..., 1]
        for j in range(2, r):
            totals += powers[..., j]
    else:
        totals = powers.sum(axis=-1)
    if _TINY <= totals.min() and totals.max() < np.inf:
        return np.power(totals, 1.0 / (2 * r), out=totals)
    rescale = ~((totals >= _TINY) & (totals < np.inf))
    norms = np.power(totals, 1.0 / (2 * r), out=totals)
    for row, mags, rows in zip(norms, blocks, rescale):
        row[rows] = _rescaled_norms(mags[rows], exponents)
    return norms


def _batch_defects(exponents: np.ndarray, a: np.ndarray, b: np.ndarray):
    na, nb, nsum = _batch_norms(exponents, a, b, a + b)
    defect = nsum - na - nb
    rel = defect / np.maximum(1.0, na + nb)
    return defect, rel


def scalar_defect(a: ScalarProfile, b: ScalarProfile) -> float:
    """N(a + b) - N(a) - N(b) with the componentwise profile sum."""
    return scalar_norm(a + b) - scalar_norm(a) - scalar_norm(b)


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


def _scan_block(exponents, a, b, best: _Best) -> None:
    defect, rel = _batch_defects(exponents, a, b)
    idx = int(np.argmax(rel))
    best.offer(rel[idx], defect[idx], a[idx], b[idx])


def _grid_lattice(r: int, resolution: int, rng: np.random.Generator):
    """Lattice over [0, 1]^{2r} as integer levels, one row per point,
    and the float value of each level; ``values[levels]`` is the lattice.
    Full product when small enough, else a seeded subsample of lattice
    points."""
    width = 2 * r
    if resolution**width <= _GRID_POINT_CAP:
        # row k is the k-th tuple of product(range(resolution), repeat=width),
        # as from np.indices, which allows only 64 dimensions
        levels = np.empty((width, resolution**width), dtype=np.intp)
        for j, digit in enumerate(levels):
            digit.reshape(resolution**j, resolution, -1)[...] = np.arange(resolution)[:, None]
        return levels.T, np.linspace(0.0, 1.0, resolution)
    levels = rng.integers(0, resolution, size=(_GRID_POINT_CAP, width))
    # k / (resolution - 1), the bits of dividing the whole level array
    return levels, np.arange(resolution) / (resolution - 1)


def _log_uniform_blocks(rng: np.random.Generator, rows: int, width: int):
    """Yield the log-uniform magnitudes 10 ** U(lo, hi) of a (rows, width)
    draw from ``rng`` in row blocks of at most _BLOCK_ROWS.

    The blocks are bit for bit the rows of ``10.0 ** rng.uniform(lo, hi,
    (rows, width))``: uniform is lo + (hi - lo) * random() and draws one
    double after another in C order, and numpy's power gives a tiled
    base of 10.0 the same bits as the scalar one, only faster. Each block
    is one reused buffer, valid until the next block is drawn.
    """
    lo, hi = LOG10_MAGNITUDE_RANGE
    size = min(rows, _BLOCK_ROWS)
    buf = np.empty((size, width))
    tens = np.full((size, width), 10.0)
    for start in range(0, rows, size):
        block = buf[: min(size, rows - start)]
        rng.random(out=block)
        block *= hi - lo
        block += lo
        yield np.power(tens[: block.shape[0]], block, out=block)


def _sweep_blocks(seed: np.random.SeedSequence, rows: int, r: int):
    """Yield the (a, b) row blocks of one sweep chunk of ``rows`` pairs.

    The chunk's stream holds all of a, then all of b, each a (rows, r)
    log-uniform draw. a is drawn block by block from a generator on
    ``seed``; b from a second one on the same seed, advanced past a's
    rows * r doubles (one 64-bit output each).
    """
    rng_b = np.random.Generator(np.random.PCG64(seed).advance(rows * r))
    return zip(
        _log_uniform_blocks(np.random.default_rng(seed), rows, r),
        _log_uniform_blocks(rng_b, rows, r),
    )


def _ascend(exponents, a, b, steps: int, step_size: float):
    """Derivative-free coordinate ascent on the relative defect,
    projected onto the nonnegative orthant.

    A step is one Gauss-Seidel sweep over the 2r coordinates that tries
    x[j] + h*max(|x[j]|, 1e-3), then the same minus, clipped at zero,
    and takes the first move that raises the relative defect before it
    goes on at coordinate j + 1. A step without a move halves h; the
    ascent ends after ``steps`` steps or once h < 1e-10.

    The sweep is scored speculatively: every live move left in it is
    built from the current x as one row of a block, in sweep order, and
    the block goes through ``_batch_defects`` in one call. The first
    improving row is accepted and the rest of the sweep is re-batched
    from the new point; rows after it are discarded and not counted in
    ``evals``. A move that leaves x[j] unchanged is not a row. The
    result is bit-identical to scoring the moves one at a time.
    """
    x = np.concatenate([a, b])
    r = a.shape[0]
    width = 2 * r

    _, rel = _batch_defects(exponents, x[None, :r], x[None, r:])
    current = float(rel[0])
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
            block = np.repeat(x[None, :], coords.size, axis=0)
            block[np.arange(coords.size), coords] = moved
            _, rel = _batch_defects(exponents, block[:, :r], block[:, r:])
            wins = np.flatnonzero(rel > current)
            if wins.size == 0:
                evals += coords.size
                break
            k = int(wins[0])
            evals += k + 1
            current, x = float(rel[k]), block[k]
            improved = True
            later = coords > coords[k]
            coords, moved = coords[later], moved[later]
        if not improved:
            h *= 0.5
            if h < 1e-10:
                break
    return x[:r], x[r:], current, evals


def hunt(config: SearchConfig, threads: int = 1) -> SearchOutcome:
    """Maximize the scalar defect; deterministic for a fixed config.

    Stages: rescaled lattice, seeded random sweep (chunked, across
    ``threads`` workers), then coordinate ascent from the best
    candidates. Ascent never leaves the nonnegative orthant. The kernel
    rescales power sums outside the double range, so the defects are
    finite for every ``r``; were the best not, ``ValueError`` is raised.

    The lattice's integer levels are drawn whole; their float values and
    log-uniform scales are made per block of _BLOCK_ROWS rows, in the
    order of ``grid_rng``'s stream. A sweep chunk draws its profiles a
    and then b: a comes block by block from the chunk's generator, and b
    from a second generator on the same seed, advanced past a's
    rows * r doubles (``_sweep_blocks``). Each block is scanned on its
    own and the block bests merge first-best, which picks the row one
    argmax over the whole chunk would pick.
    """
    sig = GradingSignature(config.r)
    exps = np.asarray(sig.exponents, dtype=float)
    root = np.random.SeedSequence(config.rng_seed)
    grid_ss, sweep_ss = root.spawn(2)

    evaluated = 0
    candidates: list[_Best] = []

    # stage 1: lattice rescaled by log-uniform magnitudes
    grid_rng = np.random.default_rng(grid_ss)
    levels, values = _grid_lattice(config.r, config.grid_resolution, grid_rng)
    scales = _log_uniform_blocks(grid_rng, levels.shape[0], 2 * config.r)
    grid_best = _Best()
    for start, scale in zip(range(0, levels.shape[0], _BLOCK_ROWS), scales):
        pts = values[levels[start : start + _BLOCK_ROWS]]
        pts *= scale
        _scan_block(exps, pts[:, : config.r], pts[:, config.r :], grid_best)
    evaluated += levels.shape[0]
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
    overall = _Best()
    for c in ranked:
        overall.offer(c.rel, c.raw, c.a, c.b)
    for c in ranked:
        a, b, rel, evals = _ascend(exps, c.a, c.b, config.ascent_steps, _ASCENT_STEP_SIZE)
        evaluated += evals
        defect, _ = _batch_defects(exps, a[None, :], b[None, :])
        overall.offer(rel, float(defect[0]), a, b)

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

def pure_terms_cancel(sig: GradingSignature, trials: int = 8, rng_seed: int = 0) -> bool:
    """Confirm the s = 0 / s = e_i pure terms equal the k = 0 / k = 2r terms.

    Structurally both reduce to A^{2r} = sum_i a_i^{e_i}, which holds by
    the definition of A with every boundary binomial coefficient equal
    to 1; random profiles then confirm the identity numerically to
    1e-12 relative.
    """
    two_r = 2 * sig.r
    for i in range(1, sig.r + 1):
        e = sig.exponent(i)
        if binom(e, 0) != 1 or binom(e, e) != 1:
            return False
    if binom(two_r, 0) != 1 or binom(two_r, two_r) != 1:
        return False

    rng = np.random.default_rng(rng_seed)
    exps = np.asarray(sig.exponents, dtype=float)
    for _ in range(trials):
        mags = 10.0 ** rng.uniform(-2.0, 2.0, size=sig.r)
        profile = ScalarProfile(sig, mags)
        power_sum = float(np.sum(mags**exps))
        rebuilt = scalar_norm(profile) ** two_r
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
