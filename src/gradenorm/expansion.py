"""Orbit-level bookkeeping for the 2r-th power binomial expansions.

Raising the scalar triangle inequality to the 2r-th power and expanding
both sides with the binomial theorem turns it into a comparison of two
finite sums. On the left, level i contributes the row
binom(e_i, s) a_i^{e_i - s} b_i^s for s = 0..e_i; on the right stands
the expansion of (A + B)^{2r}, where A and B are the scalar norms of the
two profiles. The s = 0 and s = e_i pure terms on the left sum to
exactly A^{2r} + B^{2r}, which are the k = 0 and k = 2r terms on the
right, so both cancel and only cross terms remain.

Every row is symmetric under swapping the two profiles, so cross terms
are folded into orbits: the pair {s, e_i - s} for s < e_i/2, and the
single self-paired middle term at s = e_i/2 (e_i is always even). The
same folding applies on the right over k = 1..r, with the single middle
orbit at k = r.

The Hölder shadow of right-hand orbit k at level i is the exponent pair

    (e_i (2r - k) / 2r,  e_i k / 2r),

kept as exact rationals. Summing the shadow monomials over i and
applying Hölder's inequality with conjugate exponents 2r/(2r-k) and
2r/k bounds the sum by A^{2r-k} B^k; these per-level slots are what the
certificate lines spend.

Pure functions throughout. Coefficients are big integers and
exponents exact rationals; the module imports only ``exactmath``, so
the certificate checker built on it never loads numpy. The float
evaluation of these identities (the pure-term cancellation and the
Hölder bound per slot) lives in ``numeric_search``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import ExponentPair, GradingSignature, binom, rational_to_str

__all__ = [
    "TermOrbit",
    "RhsOrbit",
    "ShadowPair",
    "lhs_orbits",
    "rhs_orbits",
    "shadow",
    "orbit_exponents",
    "orbit_table",
    "rhs_table",
    "shadow_table",
]


@dataclass(frozen=True)
class TermOrbit:
    """A folded left-hand cross term: c (a_i^{e_i-s} b_i^s + a_i^s b_i^{e_i-s})
    for s < e_i/2, or the single term c a_i^{e_i/2} b_i^{e_i/2} when middle."""

    level: int
    split: int
    coefficient: int
    is_middle: bool


@dataclass(frozen=True)
class RhsOrbit:
    """A folded right-hand term: binom(2r, k)(A^{2r-k} B^k + A^k B^{2r-k}),
    collapsing to the single binom(2r, r) A^r B^r when k = r."""

    k: int
    coefficient: int
    is_middle: bool


@dataclass(frozen=True)
class ShadowPair:
    """Hölder shadow exponents of right-hand orbit k at level i."""

    k: int
    level: int
    exponents: ExponentPair


def lhs_orbits(sig: GradingSignature) -> list[TermOrbit]:
    """All left-hand cross-term orbits, one per (i, s) with 1 <= s <= e_i/2."""
    orbits = []
    for i in range(1, sig.r + 1):
        e = sig.exponent(i)
        for s in range(1, e // 2 + 1):
            orbits.append(TermOrbit(i, s, binom(e, s), s == e // 2))
    return orbits


def rhs_orbits(sig: GradingSignature) -> list[RhsOrbit]:
    """Right-hand orbits k = 1..r with coefficients binom(2r, k)."""
    two_r = 2 * sig.r
    return [RhsOrbit(k, binom(two_r, k), k == sig.r) for k in range(1, sig.r + 1)]


def shadow(sig: GradingSignature, k: int, i: int) -> ShadowPair:
    """Exact shadow exponents (e_i (2r-k)/2r, e_i k/2r).

    For i = 1 this reduces to the integers (2r - k, k); for k = r both
    exponents equal e_i/2.
    """
    if not 1 <= k <= sig.r:
        raise ValueError(f"target k={k} out of range for r={sig.r}")
    e = sig.exponent(i)  # validates i
    two_r = 2 * sig.r
    return ShadowPair(
        k, i, ExponentPair(Fraction(e * (two_r - k), two_r), Fraction(e * k, two_r))
    )


def orbit_exponents(sig: GradingSignature, level: int, split: int) -> ExponentPair:
    """The exponent pair (e_i - s, s) of left-hand orbit (i, s)."""
    e = sig.exponent(level)
    if not 1 <= split <= e // 2:
        raise ValueError(f"split s={split} out of range for level {level} (e={e})")
    return ExponentPair(Fraction(e - split), Fraction(split))


# ---------------------------------------------------------------------------
# JSON-ready listings (consumed by the report command)
# ---------------------------------------------------------------------------

def orbit_table(sig: GradingSignature) -> list[dict]:
    return [
        {
            "i": o.level,
            "s": o.split,
            "coefficient": o.coefficient,
            "is_middle": o.is_middle,
            "exponents": [sig.exponent(o.level) - o.split, o.split],
        }
        for o in lhs_orbits(sig)
    ]


def rhs_table(sig: GradingSignature) -> list[dict]:
    return [
        {
            "k": o.k,
            "coefficient": o.coefficient,
            "is_middle": o.is_middle,
            "exponents": [2 * sig.r - o.k, o.k],
        }
        for o in rhs_orbits(sig)
    ]


def shadow_table(sig: GradingSignature) -> list[dict]:
    rows = []
    for k in range(1, sig.r + 1):
        for i in range(1, sig.r + 1):
            pair = shadow(sig, k, i).exponents
            rows.append(
                {"k": k, "i": i, "hi": rational_to_str(pair.hi), "lo": rational_to_str(pair.lo)}
            )
    return rows
