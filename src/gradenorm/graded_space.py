"""Graded real vector spaces, the candidate homogeneous norm, the
dilation family, and the reduction to per-level scalar profiles.

A graded vector X = (v_1, ..., v_r) carries one Euclidean component per
level; level dimensions are free per space. The candidate norm attaches
the even exponent e_i = 2(r - i + 1) to level i and takes the 2r-th root
of the sum:

    N(X) = (|v_1|^{2r} + |v_2|^{2r-2} + ... + |v_r|^2)^{1/2r}

The dilation of parameter t scales level i by t^i. N is nonnegative and
vanishes only at zero, and N(-X) = N(X) because every exponent is even.
It commutes with dilations, N(dilate(t, X)) = |t| N(X), exactly when
r <= 2; ``homogeneity_defect`` measures the failure for longer gradings
(witness: a vector supported on level 2 alone).

Because each component enters N only through its Euclidean norm, and N
is monotone in each of those norms, the triangle inequality for N
reduces to the same inequality for scalar profiles, the vectors of
per-level norms. The certificate module proves that scalar statement
with exact arithmetic; this module is double-precision throughout and
never enters the proof-checking path.

A GradedVector copies its input once into one flat read-only float64
array; ``components`` are per-level views into it and ``dims`` is
stored. ``x + y``, ``-x`` and ``dilate`` are one numpy operation on the
flat array each, and their results skip the input validation, since
they keep the layout of a vector that already passed it.

The norm formula has its two evaluators here. ``_norm``, behind
``hnorm`` and ``scalar_norm``, runs on Python floats: ``math.hypot``
per level, then the power sum and its 2r-th root. ``_batch_norms``,
the hunter's kernel, evaluates (N, r) blocks of profiles with numpy.
When a power sum is not a normal finite double (a_i^{e_i} overflowed,
or underflowed to zero or a subnormal from a nonzero profile), both
recompute the norm from the rescaled levels q_i = a_i^{e_i/2r} as
max q * (sum_i (q_i / max q)^{2r})^{1/2r} in ``_rescaled_norms``, the
shift used for log-sum-exp (Blanchard, Higham & Higham, IMA J. Numer.
Anal. 2021), which is finite for any finite level lengths. A level
length beyond the double range raises ValueError in ``_norm``.

The two evaluators do not agree bit for bit: on 20,000 log-uniform
rows (10^U(-3, 3)) per length, 4-7% of the norms differ by one unit in
the last place at every r = 2..12, 24, 47 and 60, and none at r = 1.
So neither can stand in for the other without re-pinning the hunts
and digests recorded with it.

All operations are pure functions over immutable values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate
from math import hypot
from typing import Any, Sequence

import numpy as np

from .exactmath import GradingSignature

__all__ = [
    "GradingSignature",
    "GradedVector",
    "ScalarProfile",
    "hnorm",
    "dilate",
    "homogeneity_defect",
    "scalar_profile",
    "scalar_norm",
    "scalar_defect",
    "triangle_defect",
    "random_vector",
    "vector_to_json",
    "vector_from_json",
    "profile_to_json",
]

_INF = math.inf
_TINY = sys.float_info.min  # the smallest normal double


@dataclass(frozen=True, eq=False, slots=True)
class GradedVector:
    """One real Euclidean component per level, held in one flat array."""

    signature: GradingSignature
    components: tuple[np.ndarray, ...]
    dims: tuple[int, ...] = field(init=False, repr=False)
    _flat: np.ndarray = field(init=False, repr=False)
    _levels: tuple[slice, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        parts = [np.asarray(c, dtype=float).ravel() for c in self.components]
        if len(parts) != self.signature.r:
            raise ValueError(
                f"expected {self.signature.r} components, got {len(parts)}"
            )
        dims = tuple(p.size for p in parts)
        if 0 in dims:
            raise ValueError(f"level {dims.index(0) + 1} must have dimension >= 1")
        levels = tuple([slice(end - d, end) for end, d in zip(accumulate(dims), dims)])
        self._store(np.concatenate(parts), dims, levels)

    def _store(self, flat: np.ndarray, dims: tuple[int, ...], levels: tuple[slice, ...]) -> None:
        flat.setflags(write=False)
        put = object.__setattr__
        put(self, "_flat", flat)
        put(self, "dims", dims)
        put(self, "_levels", levels)
        put(self, "components", tuple([flat[s] for s in levels]))

    def _derive(self, flat: np.ndarray) -> "GradedVector":
        """A vector over this one's space holding the fresh array ``flat``.

        The layout is already validated, so ``__post_init__`` is skipped.
        """
        out = object.__new__(GradedVector)
        object.__setattr__(out, "signature", self.signature)
        out._store(flat, self.dims, self._levels)
        return out

    def __reduce__(self) -> tuple:
        # rebuild through __init__, so that a copy's components are again
        # read-only views into one flat array
        return GradedVector, (self.signature, self.components)

    @classmethod
    def from_components(cls, components: Sequence[Any]) -> "GradedVector":
        """Build a vector inferring r from the component count."""
        return cls(GradingSignature(len(components)), tuple(components))

    @classmethod
    def zero(cls, signature: GradingSignature, dims: Sequence[int] | None = None) -> "GradedVector":
        dims = tuple(dims) if dims is not None else (3,) * signature.r
        return cls(signature, tuple(np.zeros(d) for d in dims))

    def __add__(self, other: "GradedVector") -> "GradedVector":
        _require_same_space(self, other)
        return self._derive(self._flat + other._flat)

    def __neg__(self) -> "GradedVector":
        return self._derive(-self._flat)


@dataclass(frozen=True, eq=False)
class ScalarProfile:
    """Per-level nonnegative magnitudes, the shadow of a graded vector."""

    signature: GradingSignature
    magnitudes: np.ndarray

    def __post_init__(self) -> None:
        mags = np.array(self.magnitudes, dtype=float, copy=True).reshape(-1)
        if mags.size != self.signature.r:
            raise ValueError(f"expected {self.signature.r} magnitudes, got {mags.size}")
        if np.any(mags < 0) or not np.all(np.isfinite(mags)):
            raise ValueError("profile magnitudes must be finite and nonnegative")
        mags.setflags(write=False)
        object.__setattr__(self, "magnitudes", mags)

    def __add__(self, other: "ScalarProfile") -> "ScalarProfile":
        if self.signature != other.signature:
            raise ValueError("profiles live over different gradings")
        return ScalarProfile(self.signature, self.magnitudes + other.magnitudes)


def _require_same_space(x: GradedVector, y: GradedVector) -> None:
    # dims has one entry per level, so equal dims also mean equal r
    if x.dims != y.dims:
        raise ValueError("vectors live in different graded spaces")


def _level_norms(x: GradedVector) -> list[float]:
    values = tuple(x._flat.tolist())  # tuple slices unpack into hypot without a copy
    return [hypot(*values[s]) for s in x._levels]


def _norm(mags: list[float], exponents: tuple[int, ...]) -> float:
    """(sum_i a_i^{e_i})^{1/2r} of nonnegative level lengths, on Python floats.

    For r = 1 this is a_1 itself, so the one-level norm stays bit-exact
    Euclidean. A power sum that is not a normal finite double goes to
    ``_rescaled_norms``.
    """
    two_r = exponents[0]
    if two_r == 2:
        (length,) = mags
        if length < _INF:
            return length
        raise ValueError("a level length exceeds the double range")
    try:
        total = sum(map(pow, mags, exponents))
    except OverflowError:
        total = _INF
    if _TINY <= total < _INF:
        return total ** (1.0 / two_r)
    if not all(a < _INF for a in mags):
        raise ValueError("a level length exceeds the double range")
    return float(_rescaled_norms(np.array([mags]), exponents)[0])


def _rescaled_norms(mags: np.ndarray, exponents: np.ndarray | Sequence[int]) -> np.ndarray:
    """max q * (sum_i (q_i / max q)^{2r})^{1/2r} with q_i = a_i^{e_i/2r},
    per row of an (N, r) block of finite level lengths.

    Each scaled term lies in [0, 1] and the largest is 1, so the sum
    neither overflows nor underflows. The result is finite: only q_1 = a_1
    can come near the largest double, and then every other term rounds
    away against 1. ``a ** (e / 2r)`` would carry the rounding of e/2r
    times |ln a|, about 2e-14 relative at a = 1e-200; splitting a = m 2^p
    leaves that ratio to act on m in [0.5, 1) and on 2^{rem/2r} with
    rem < 2r, while ldexp applies the integer part of p e / 2r exactly.
    """
    exps = np.asarray(exponents, dtype=float)
    two_r = exps[0]
    m, p = np.frexp(mags)
    n, rem = np.divmod(p * exps, two_r)
    q = np.ldexp(m ** (exps / two_r) * 2.0 ** (rem / two_r), n.astype(int))
    top = q.max(axis=1)
    scaled = q / np.where(top > 0.0, top, 1.0)[:, None]
    return top * (scaled**two_r).sum(axis=1) ** (1.0 / two_r)


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


def scalar_norm(a: ScalarProfile) -> float:
    """(sum_i a_i^{e_i})^{1/2r} for a nonnegative profile."""
    return _norm(a.magnitudes.tolist(), a.signature.exponents)


def scalar_defect(a: ScalarProfile, b: ScalarProfile) -> float:
    """N(a + b) - N(a) - N(b) with the componentwise profile sum."""
    return scalar_norm(a + b) - scalar_norm(a) - scalar_norm(b)


def scalar_profile(x: GradedVector) -> ScalarProfile:
    """Per-level Euclidean norms of a graded vector."""
    return ScalarProfile(x.signature, np.array(_level_norms(x)))


def hnorm(x: GradedVector) -> float:
    """The candidate homogeneous norm; equals scalar_norm(scalar_profile(x))."""
    return _norm(_level_norms(x), x.signature.exponents)


def dilate(t: float, x: GradedVector) -> GradedVector:
    """Scale level i by t^i. The parameter must be finite and nonzero."""
    if t == 0 or not abs(t) < _INF:  # NaN fails the comparison too
        raise ValueError(f"dilation parameter t must be finite and nonzero, got {t!r}")
    try:
        powers = np.array([t ** (i + 1) for i in range(x.signature.r)], dtype=float)
    except OverflowError:
        raise ValueError(f"dilation parameter {t!r} overflows t^{x.signature.r}") from None
    return x._derive(x._flat * powers.repeat(x.dims))


def homogeneity_defect(x: GradedVector, t: float) -> float:
    """hnorm(dilate(t, x)) - |t| hnorm(x).

    Zero (to rounding) for r <= 2 and any x, t; strictly positive
    witnesses exist for every r >= 3.
    """
    return hnorm(dilate(t, x)) - abs(t) * hnorm(x)


def triangle_defect(x: GradedVector, y: GradedVector) -> float:
    """hnorm(x + y) - hnorm(x) - hnorm(y); nonpositive for r = 5 by the
    paper, and for every r by the per-length certificates."""
    return hnorm(x + y) - hnorm(x) - hnorm(y)


def random_vector(
    signature: GradingSignature,
    rng: np.random.Generator,
    dims: Sequence[int] | None = None,
    magnitude_decades: tuple[float, float] | None = None,
) -> GradedVector:
    """Standard-normal components, optionally rescaled per level by a
    log-uniform magnitude 10^u with u drawn from ``magnitude_decades``."""
    dims = tuple(dims) if dims is not None else (3,) * signature.r
    comps = []
    for d in dims:
        c = rng.standard_normal(d)
        if magnitude_decades is not None:
            lo, hi = magnitude_decades
            c = c * 10.0 ** rng.uniform(lo, hi)
        comps.append(c)
    return GradedVector(signature, tuple(comps))


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def _floats(values: Any, key: str) -> np.ndarray:
    """A JSON list of numbers as a float array; anything else, strings,
    booleans and null included, is a ValueError."""
    if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
        raise ValueError(f"{key} must hold numbers")
    if not all(abs(v) <= sys.float_info.max for v in values):  # exact for ints; false for NaN
        raise ValueError(f"{key} must hold numbers in the double range")
    return np.array(values, dtype=float)


def vector_to_json(x: GradedVector) -> dict:
    """``{"r": int, "components": [[float, ...], ...]}``"""
    return {"r": x.signature.r, "components": [c.tolist() for c in x.components]}


def vector_from_json(obj: Any) -> GradedVector:
    if not isinstance(obj, dict) or "r" not in obj or "components" not in obj:
        raise ValueError("graded vector JSON needs keys 'r' and 'components'")
    r, components = obj["r"], obj["components"]
    if not isinstance(r, int) or isinstance(r, bool):
        raise ValueError(f"'r' must be an integer, got {r!r}")
    if not isinstance(components, list) or len(components) != r:
        raise ValueError(f"'components' must be a list of {r} level vectors")
    return GradedVector(GradingSignature(r), tuple(_floats(c, "'components'") for c in components))


def profile_to_json(a: ScalarProfile) -> dict:
    """``{"r": int, "a": [float, ...]}``"""
    return {"r": a.signature.r, "a": a.magnitudes.tolist()}

