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

GradedVector and ScalarProfile are frozen classes on ``_Frozen`` with
the constructor, repr, identity equality, pickling and
``FrozenInstanceError`` of the frozen dataclasses they replaced. A
vector holds its entries as one tuple of Python floats, ``_values``,
beside ``dims``. Construction takes levels that are all lists or tuples
of floats as they are. Otherwise it converts the levels in one loop, in
order, so that the first bad level raises: a 1-D float64 array by
``tolist()``, a list or tuple of floats as it is, anything else as
``np.asarray(level, dtype=float).ravel()`` holds it. ``components`` are
read-only float64 views into one array, made on first read and kept.
Vectors of equal ``dims`` share one tuple of level slices from a table
of at most 64 layouts. The level count is checked for every vector;
each level's dimension is checked once, when its ``dims`` enter the
table, and ``dims`` that fail never enter it. ``x + y``, ``-x`` and
``dilate`` use the IEEE add, negation and multiply that numpy applies,
so an overflowed entry is inf without a warning; they, ``zero`` and
``random_vector`` skip the input validation (``_wrap``).

``hnorm`` keeps each vector's norm in a slot; a norm that raises is not
kept. ``triangle_defect`` and ``homogeneity_defect`` build no vector and
keep the bits of ``hnorm(x + y) - hnorm(x) - hnorm(y)`` and
``hnorm(dilate(t, x)) - abs(t) * hnorm(x)`` (``_kept_norm``).

numpy is imported only where it is used: ``ScalarProfile``, the batch
kernel, ``_rescaled_norms``, ``random_vector``, ``components``, and the
construction of a level that is neither a float64 array nor floats;
so ``norm``, ``dilate`` and ``triangle-sample --in`` load none unless a
norm is rescaled.

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

The batch kernel skips work whose answer it knows, and keeps its bits.
Its powers of the level lengths take their exponents as one C-contiguous
block of the bases' shape (``_tiled``), so numpy runs one flat loop
instead of one per row. Which other shortcut pays depends on numpy's
float64 power loop, which ``POWER_LOOP`` names, read on first use
(``numpy.lib.introspect.opt_func_info``). Under ``"X86_V4"`` (AVX-512)
an exact zero base costs about 4 times a normal one, so bases the caller
knows to be zero (the hunt's lattice) are raised as 1.0 and their powers
set back to 0; under ``"baseline(X86_V2)"`` a zero costs no more, and
the two extra passes would be a loss, so nothing is substituted. The
hunt pins and the per-object bit pins hold the bits of one loop, so the
tests pick their literals by ``POWER_LOOP``. A row that must overflow,
judged from its levels' frexp exponents, goes to ``_rescaled_norms``
without a power pass, and that leaves out every term too small to
change its sum.

The two evaluators do not agree bit for bit: on 20,000 log-uniform
rows (10^U(-3, 3)) per length, 4-7% of the norms differ by one unit in
the last place at every r = 2..12, 24, 47 and 60, and none at r = 1.
So neither can stand in for the other without re-pinning the hunts
and digests recorded with it.

All operations are pure functions over immutable values; the kept
level views and norm are computed from a vector's own fixed entries.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, chain
from math import hypot
from operator import add, index, neg

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
_FLOATS = {float}
_PLAIN = {list, tuple}


class _Frozen:
    """A frozen dataclass's repr and ``FrozenInstanceError``, without
    loading ``dataclasses`` until an assignment raises."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class GradedVector(_Frozen):
    """One real Euclidean component per level, held as one tuple of floats.

    ``GradedVector(signature, components)`` copies the levels once into
    the tuple ``_values``; equality is identity.
    """

    __slots__ = ("signature", "dims", "_values", "_levels", "_components", "_hnorm")
    __match_args__ = ("signature", "components")

    def __init__(self, signature: GradingSignature, components: Sequence[object]) -> None:
        self.__post_init__(signature, components)

    def __post_init__(self, signature: GradingSignature, components: Sequence[object]) -> None:
        # the checked construction entry; bench/tracing.py counts the
        # vectors built by rebinding it, and _wrap skips it
        if type(components) is not tuple:
            components = tuple(components)
        values = []
        if _PLAIN.issuperset(map(type, components)) and _FLOATS.issuperset(
            map(type, chain.from_iterable(components))
        ):
            for level in components:
                values += level
            dims = tuple(map(len, components))
        else:
            # each level as np.asarray(level, dtype=float).ravel() holds it,
            # in order so that the first bad level raises; a 1-D float64
            # array and a list or tuple of floats skip numpy's copy
            np = sys.modules.get("numpy")  # without numpy loaded, no level is an array
            ndarray, float64 = (None, None) if np is None else _array_kinds(np)
            dims = []
            for level in components:
                if type(level) is ndarray and level.dtype is float64 and level.ndim == 1:
                    level = level.tolist()
                elif not (type(level) in _PLAIN and _FLOATS.issuperset(map(type, level))):
                    import numpy as np

                    level = np.asarray(level, dtype=float).ravel().tolist()
                values += level
                dims.append(len(level))
            dims = tuple(dims)
        levels = _layout(signature.r, dims)
        _set_signature(self, signature)
        _set_values(self, tuple(values))
        _set_dims(self, dims)
        _set_levels(self, levels)
        _set_hnorm(self, None)

    @staticmethod
    def _wrap(signature: GradingSignature, values: tuple, dims: tuple, levels: tuple) -> "GradedVector":
        """A vector holding the floats ``values`` in a layout that
        ``_layout`` already checked, so ``__post_init__`` is skipped."""
        out = _new(GradedVector)
        _set_signature(out, signature)
        _set_values(out, values)
        _set_dims(out, dims)
        _set_levels(out, levels)
        _set_hnorm(out, None)
        return out

    @property
    def components(self) -> tuple[np.ndarray, ...]:
        """The per-level read-only views into one float64 array of ``_values``."""
        try:
            return self._components
        except AttributeError:
            import numpy as np

            flat = np.array(self._values, dtype=float)
            flat.setflags(write=False)
            views = tuple([flat[s] for s in self._levels])
            _set_components(self, views)
            return views

    def __reduce__(self) -> tuple:
        # rebuild through __init__ from the levels' floats, which needs no numpy
        return GradedVector, (self.signature, tuple([self._values[s] for s in self._levels]))

    @classmethod
    def from_components(cls, components: Sequence[object]) -> "GradedVector":
        """Build a vector inferring r from the component count."""
        return cls(GradingSignature(len(components)), tuple(components))

    @classmethod
    def zero(cls, signature: GradingSignature, dims: Sequence[int] | None = None) -> "GradedVector":
        dims = tuple(map(index, dims)) if dims is not None else (3,) * signature.r
        return GradedVector._wrap(signature, (0.0,) * sum(dims), dims, _layout(signature.r, dims))

    def __add__(self, other: "GradedVector") -> "GradedVector":
        _require_same_space(self, other)
        values = tuple(map(add, self._values, other._values))
        return self._wrap(self.signature, values, self.dims, self._levels)

    def __neg__(self) -> "GradedVector":
        return self._wrap(self.signature, tuple(map(neg, self._values)), self.dims, self._levels)


_new = object.__new__
# the slots' own setters: __setattr__ refuses every write
_set_signature, _set_dims, _set_values, _set_levels, _set_components, _set_hnorm = (
    GradedVector.__dict__[name].__set__ for name in GradedVector.__slots__
)


class ScalarProfile(_Frozen):
    """Per-level nonnegative magnitudes, the shadow of a graded vector."""

    __match_args__ = ("signature", "magnitudes")

    def __init__(self, signature: GradingSignature, magnitudes: object) -> None:
        import numpy as np

        mags = np.array(magnitudes, dtype=float, copy=True).reshape(-1)
        if mags.size != signature.r:
            raise ValueError(f"expected {signature.r} magnitudes, got {mags.size}")
        if np.any(mags < 0) or not np.all(np.isfinite(mags)):
            raise ValueError("profile magnitudes must be finite and nonnegative")
        mags.setflags(write=False)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "magnitudes", mags)

    def __add__(self, other: "ScalarProfile") -> "ScalarProfile":
        if self.signature != other.signature:
            raise ValueError("profiles live over different gradings")
        return ScalarProfile(self.signature, self.magnitudes + other.magnitudes)


@lru_cache(maxsize=1)
def _array_kinds(np: object) -> tuple[type, object]:
    """The loaded numpy's ndarray type and float64 dtype, which
    ``GradedVector`` tests levels against by identity."""
    return np.ndarray, np.dtype(float)


def _require_same_space(x: GradedVector, y: GradedVector) -> None:
    # dims has one entry per level, so equal dims also mean equal r
    if x.dims != y.dims:
        raise ValueError("vectors live in different graded spaces")


def _layout(r: int, dims: tuple[int, ...]) -> tuple[slice, ...]:
    """The level slices of a flat array with ``dims``, once ``dims`` has one
    positive dimension for each of the r levels."""
    if len(dims) != r:
        raise ValueError(f"expected {r} components, got {len(dims)}")
    return _level_slices(dims)


@lru_cache(maxsize=64)
def _level_slices(dims: tuple[int, ...]) -> tuple[slice, ...]:
    # one tuple shared by every vector of these dims, checked once when it
    # enters the table; dims that raise never enter it, and the table stays
    # at most 64 entries whatever mix of dims a process builds
    if min(dims) < 1:
        level = next(i for i, d in enumerate(dims, start=1) if d < 1)
        raise ValueError(f"level {level} must have dimension >= 1")
    return tuple([slice(end - d, end) for end, d in zip(accumulate(dims), dims)])


def _lengths(values: Sequence[float], levels: tuple[slice, ...]) -> list[float]:
    """Euclidean length of each level of flat ``values``."""
    return [hypot(*values[s]) for s in levels]  # tuple slices unpack without a copy


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
    return float(_rescaled_norms([mags], exponents)[0])


def __getattr__(name: str) -> str | bool:
    """``POWER_LOOP``, the target numpy dispatches its float64 ``power``
    loop to, as ``numpy.lib.introspect.opt_func_info`` names it (with
    numpy 2.4.6 on x86-64, ``"X86_V4"`` or ``"baseline(X86_V2)"``), and
    ``ZERO_BASES_ARE_SLOW``, whether it is ``"X86_V4"``. Both are read
    once, on first use, so that loading this module loads no numpy."""
    if name not in ("POWER_LOOP", "ZERO_BASES_ARE_SLOW"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy before 2.0 cannot say
        loop = "unknown"
    else:  # a numpy that does not dispatch power by CPU lists no loop for it
        loops = opt_func_info(func_name="^power$", signature="float64").get("power", {})
        loop = next(iter(loops.values()), {}).get("current", "not dispatched")
    globals().update(POWER_LOOP=loop, ZERO_BASES_ARE_SLOW=loop == "X86_V4")
    return globals()[name]


_TILES: dict[bytes, np.ndarray] = {}


def _tiled(row: np.ndarray, rows: int) -> np.ndarray:
    """``row`` repeated down ``rows`` rows, as one C-contiguous read-only
    block: np.power runs one flat loop over it, where a broadcast row
    costs a loop call per row. The block is a slice of a tile shared by
    every call with this ``row``, which grows to the most rows asked
    for; at most 16 tiles are kept."""
    import numpy as np

    key = row.tobytes()
    tile = _TILES.get(key)
    if tile is None or tile.shape[0] < rows:
        if len(_TILES) >= 16:
            _TILES.clear()
        tile = np.tile(row, (rows, 1))
        tile.setflags(write=False)
        _TILES[key] = tile
    return tile[:rows]


@lru_cache(maxsize=16)
def _root_table(two_r: int) -> np.ndarray:
    """2^(rem/2r) for rem = 0..2r-1, each as ``2.0 ** (rem / 2r)``."""
    import numpy as np

    return 2.0 ** (np.arange(two_r) / two_r)


def _rescaled_norms(mags: np.ndarray, exponents: np.ndarray | Sequence[int]) -> np.ndarray:
    """max q * (sum_i (q_i / max q)^{2r})^{1/2r} with q_i = a_i^{e_i/2r},
    per row of an (N, r) block of finite level lengths.

    Each scaled term lies in [0, 1] and the largest is 1, so the sum
    neither overflows nor underflows. The result is finite: only q_1 = a_1
    can come near the largest double, and then every other term rounds
    away against 1. ``a ** (e / 2r)`` would carry the rounding of e/2r
    times |ln a|, about 2e-14 relative at a = 1e-200; splitting a = m 2^p
    leaves that ratio to act on m in [0.5, 1) and on 2^{rem/2r} with
    rem < 2r, while ldexp applies the integer part n of p e / 2r exactly.
    n and rem come from integer division, and 2^{rem/2r} from a table of
    the 2r values it can take.

    A scaled level below 2^{-1022/2r} is left out of the sum: its 2r-th
    power is below 2^-1022, and adding so little to a sum that holds the
    top level's exact 1.0 cannot change the sum (a term that small is
    absorbed by any partial sum from about 2^-969 up, and the sum is at
    least 1). Its power would cost the most: under X86_V4, np.power takes
    about 60 ns on a result that underflows against about 5 on others.
    """
    import numpy as np

    exps = np.asarray(exponents, dtype=np.int64)
    two_r = int(exps[0])
    m, p = np.frexp(mags)
    pe = p * exps
    n = pe // two_r
    roots = _root_table(two_r)[pe - n * two_r]
    q = np.ldexp(m ** (exps / two_r) * roots, n.astype(np.intc))
    top = q.max(axis=1)
    scaled = q / np.where(top > 0.0, top, 1.0)[:, None]
    terms = np.zeros_like(scaled)
    np.power(scaled, float(two_r), out=terms, where=scaled >= 2.0 ** (-1022 / two_r))
    return top * terms.sum(axis=1) ** (1.0 / two_r)


def _powers(
    mags: np.ndarray,
    exponents: np.ndarray,
    out: np.ndarray | None = None,
    zeros: np.ndarray | None = None,
) -> np.ndarray:
    """mags ** exponents, exponents tiled to the block, into ``out`` if given.

    ``zeros``, when given, is 1.0 where an entry of ``mags`` is known to
    be an exact 0 and 0.0 elsewhere. Those bases are raised as 1.0 and
    their powers set back to 0: 0 + 1 and 1 - 1 are exact, as are x + 0
    and y - 0, so the powers keep their bits.
    """
    import numpy as np

    if zeros is not None:
        mags = np.add(mags, zeros, out=out)
    out = np.power(mags, _tiled(exponents, len(mags)), out=out)
    if zeros is not None:
        out -= zeros
    return out


def _sums_short_of_overflow(
    exponents: np.ndarray, blocks: Sequence[np.ndarray], zeros: Sequence[np.ndarray | None]
) -> np.ndarray:
    """The power sum of each row of each block, or inf without a power
    pass where a level has a_i >= 2^ceil(1024/e_i): a frexp exponent that
    large makes a_i^{e_i} at least 2^1024, so the sum would overflow."""
    import numpy as np

    limits = 2.0 ** np.ceil(1024 / exponents)
    totals = np.full((len(blocks), blocks[0].shape[0]), np.inf)
    for total, mags, zero in zip(totals, blocks, zeros):
        live = ~(mags >= limits).any(axis=1)
        mags, zero = mags[live], None if zero is None else zero[live]
        total[live] = _powers(mags, exponents, zeros=zero).sum(axis=-1)
    return totals


def _batch_norms(
    exponents: np.ndarray, *blocks: np.ndarray, zeros: Sequence[np.ndarray] | None = None
) -> np.ndarray:
    """Scalar norms of (N, r) blocks of profiles, one result row per block.

    The powers of all blocks fill one array, so the sum below and the
    range check run once per call. Below 8 columns numpy sums a row left
    to right, so the power sum is built column by column in that order:
    the same bits, without a numpy reduction loop per row. From 8
    columns on numpy sums pairwise, and ``sum`` along each row is kept. A
    row whose power sum is not a normal finite double (from r = 47 on,
    1e3 ** 2r overflows) goes to ``_rescaled_norms``.

    ``zeros``, when given, holds one array per block, 1.0 at the entries
    the caller knows to be exact zeros and 0.0 elsewhere (``_powers``).
    The hunt's lattice passes them under numpy's X86_V4 power loop, where
    a zero base costs about 4 times a normal one; under the baseline loop
    it costs no more, and the two extra passes would be a loss.

    Once the top level's overflow limit 2^ceil(1024/2r) is at most 2^10
    (r >= 52), rows that must overflow skip the power pass
    (``_sums_short_of_overflow``). The check costs about a pass, and the
    hunt draws its magnitudes up to exp(3 ln 10) = 1e3 + 7e-13, so their
    sums stay below 2^11, and below that no row of a hunt would skip it.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        r = exponents.shape[0]
        if r == 1:
            # (a^2)^(1/2) is the magnitude itself; keep it bit-exact
            return np.stack([mags[:, 0] for mags in blocks])
        zeros = zeros or (None,) * len(blocks)
        if exponents[0] * 10 >= 1024:
            totals = _sums_short_of_overflow(exponents, blocks, zeros)
        else:
            powers = np.empty((len(blocks),) + blocks[0].shape)
            for out, mags, zero in zip(powers, blocks, zeros):
                _powers(mags, exponents, out, zero)
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
    return ScalarProfile(x.signature, _lengths(x._values, x._levels))


def hnorm(x: GradedVector) -> float:
    """The candidate homogeneous norm; equals scalar_norm(scalar_profile(x)).
    Computed once per vector and kept; a norm that raises is not kept."""
    norm = x._hnorm
    return _kept_norm(x) if norm is None else norm


def _kept_norm(x: GradedVector) -> float:
    """hnorm(x), kept only if ``x`` has none yet; a norm that raises is
    not kept."""
    norm = x._hnorm
    if norm is None:
        norm = _norm(_lengths(x._values, x._levels), x.signature.exponents)
        _set_hnorm(x, norm)
    return norm


def _dilation_powers(t: float, r: int) -> list[float]:
    """t, t^2, ..., t^r as doubles, for a finite nonzero t.

    A numpy scalar is taken as its Python value: np.float64 ** int
    returns inf with a RuntimeWarning where float ** int raises
    OverflowError, and both raise the same bits where they are finite.
    """
    if type(t) is not float:
        np = sys.modules.get("numpy")  # without numpy loaded, t is no numpy scalar
        if np is not None and isinstance(t, np.generic):
            t = t.item()
    if t == 0 or not abs(t) < _INF:  # NaN fails the comparison too
        raise ValueError(f"dilation parameter t must be finite and nonzero, got {t!r}")
    try:
        return [float(t ** (i + 1)) for i in range(r)]
    except OverflowError:
        raise ValueError(f"dilation parameter {t!r} overflows t^{r}") from None


def _dilated(x: GradedVector, powers: list[float]) -> list[float]:
    """The entries of ``x`` with level i multiplied by ``powers[i]``."""
    values = x._values
    return [v * p for s, p in zip(x._levels, powers) for v in values[s]]


def dilate(t: float, x: GradedVector) -> GradedVector:
    """Scale level i by t^i. The parameter must be finite and nonzero."""
    powers = _dilation_powers(t, x.signature.r)
    return x._wrap(x.signature, tuple(_dilated(x, powers)), x.dims, x._levels)


def homogeneity_defect(x: GradedVector, t: float) -> float:
    """hnorm(dilate(t, x)) - |t| hnorm(x).

    Zero (to rounding) for r <= 2 and any x, t; strictly positive
    witnesses exist for every r >= 3.
    """
    dilated = _lengths(_dilated(x, _dilation_powers(t, x.signature.r)), x._levels)
    return _norm(dilated, x.signature.exponents) - abs(t) * _kept_norm(x)


def triangle_defect(x: GradedVector, y: GradedVector) -> float:
    """hnorm(x + y) - hnorm(x) - hnorm(y); nonpositive for r = 5 by the
    paper, and for every r by the per-length certificates."""
    _require_same_space(x, y)
    lengths = _lengths(tuple(map(add, x._values, y._values)), x._levels)  # x + y
    return _norm(lengths, x.signature.exponents) - _kept_norm(x) - _kept_norm(y)


def random_vector(
    signature: GradingSignature,
    rng: np.random.Generator,
    dims: Sequence[int] | None = None,
    magnitude_decades: tuple[float, float] | None = None,
) -> GradedVector:
    """Standard-normal components, optionally rescaled per level by a
    log-uniform magnitude 10^u with u drawn from ``magnitude_decades``."""
    import numpy as np

    dims = tuple(map(index, dims)) if dims is not None else (3,) * signature.r
    levels = _layout(signature.r, dims)
    flat = np.empty(sum(dims))
    for s in levels:
        level = flat[s]
        rng.standard_normal(out=level)
        if magnitude_decades is not None:
            lo, hi = magnitude_decades
            level *= 10.0 ** rng.uniform(lo, hi)
    return GradedVector._wrap(signature, tuple(flat.tolist()), dims, levels)


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def _floats(values: object, key: str) -> list[float]:
    """A JSON list of numbers as Python floats; anything else, strings,
    booleans and null included, is a ValueError."""
    if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
        raise ValueError(f"{key} must hold numbers")
    if not all(abs(v) <= sys.float_info.max for v in values):  # exact for ints; false for NaN
        raise ValueError(f"{key} must hold numbers in the double range")
    return list(map(float, values))


def vector_to_json(x: GradedVector) -> dict:
    """``{"r": int, "components": [[float, ...], ...]}``"""
    return {"r": x.signature.r, "components": [list(x._values[s]) for s in x._levels]}


def vector_from_json(obj: object) -> GradedVector:
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

