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

    (e_i (2r - k) / 2r,  e_i k / 2r).

Summing the shadow monomials over i and applying Hölder's inequality
with conjugate exponents 2r/(2r-k) and 2r/k bounds the sum by
A^{2r-k} B^k; these per-level slots are what the certificate lines
spend.

This module is the one integer ledger of the expansion. The orbit list
(``orbit_triples``) and the shadow scaled by 2r (``scaled_shadow``) are
defined here only. The checker walks the orbit list, and the builder the
same orbits a level at a time. ``shadow`` takes the shadow from
``scaled_shadow``; the report and ``shadow_pieces`` take it in the
``"p/q"`` wire format from ``shadow_strings``, which reduces it with one
gcd. The checker's one-comparison majorization test needs neither (see
``certificate``). ``rhs_table`` is the one list of right-hand orbits.
Coefficients are big integers; ``orbit_pieces`` reads them from one row
of C(e_i, s) per level (``exactmath._binom_row``), as the checker does
for its lines with k < s. ``orbit_pieces`` and ``shadow_pieces`` are the
only formatters of the two large tables: they write the text of
``json.dumps`` of each a level, or a k, at a time, so that
``report --json`` writes them without building either table, and
``orbit_table`` and ``shadow_table`` are the rows that ``json.loads``
makes of that text. So ``orbit_table``, like the report, raises
``ValueError`` once C(2r, r) passes the int-to-str digit limit. Only
``shadow`` and ``orbit_exponents`` build ``Fraction`` exponents, for the
float side and the rational definition of majorization, and import
``fractions`` when called (see ``exactmath``). Pure functions
throughout. The module imports only ``json`` and ``exactmath``, so the
certificate checker built on it never loads numpy. The float evaluation
of these identities (the pure-term cancellation and the Hölder bound per
slot) lives in ``numeric_search``.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from math import gcd

from .exactmath import (
    ExponentPair,
    FrozenValue,
    GradingSignature,
    _binom_row,
    binom,
)

__all__ = [
    "TermOrbit",
    "ShadowPair",
    "orbit_triples",
    "scaled_shadow",
    "shadow_strings",
    "lhs_orbits",
    "shadow",
    "orbit_exponents",
    "orbit_pieces",
    "orbit_table",
    "rhs_table",
    "shadow_pieces",
    "shadow_table",
]


class TermOrbit(FrozenValue):
    """A folded left-hand cross term: c (a_i^{e_i-s} b_i^s + a_i^s b_i^{e_i-s})
    for s < e_i/2, or the single term c a_i^{e_i/2} b_i^{e_i/2} when middle."""

    __match_args__ = ("level", "split", "coefficient", "is_middle")

    def __init__(self, level: int, split: int, coefficient: int, is_middle: bool) -> None:
        put = object.__setattr__
        put(self, "level", level)
        put(self, "split", split)
        put(self, "coefficient", coefficient)
        put(self, "is_middle", is_middle)


class ShadowPair(FrozenValue):
    """Hölder shadow exponents of right-hand orbit k at level i."""

    __match_args__ = ("k", "level", "exponents")

    def __init__(self, k: int, level: int, exponents: ExponentPair) -> None:
        put = object.__setattr__
        put(self, "k", k)
        put(self, "level", level)
        put(self, "exponents", exponents)


def orbit_triples(sig: GradingSignature) -> Iterator[tuple[int, int, int]]:
    """Every left-hand cross-term orbit as (i, e_i, s), 1 <= s <= e_i/2,
    by level and then split."""
    for i, e in enumerate(sig.exponents, 1):
        for s in range(1, e // 2 + 1):
            yield i, e, s


def scaled_shadow(two_r: int, e: int, k: int) -> tuple[int, int]:
    """The shadow exponents of slot (k, i) times 2r: (e_i (2r-k), e_i k),
    for e = e_i and 1 <= k <= r, larger first."""
    return e * (two_r - k), e * k


def shadow_strings(two_r: int, e: int, k: int) -> list[str]:
    """``scaled_shadow(two_r, e, k)`` over 2r, as ``ratio_to_str`` writes
    it; hi + lo = 2r e, so one gcd reduces both. The report calls this
    once a line, so it repeats the two products instead of a call."""
    hi, lo = e * (two_r - k), e * k
    g = gcd(lo, two_r)
    den, hi, lo = two_r // g, hi // g, lo // g
    return [str(hi), str(lo)] if den == 1 else [f"{hi}/{den}", f"{lo}/{den}"]


def lhs_orbits(sig: GradingSignature) -> list[TermOrbit]:
    """All left-hand cross-term orbits, one per (i, s) with 1 <= s <= e_i/2."""
    return [TermOrbit(i, s, binom(e, s), s == e // 2) for i, e, s in orbit_triples(sig)]


def shadow(sig: GradingSignature, k: int, i: int) -> ShadowPair:
    """Exact shadow exponents (e_i (2r-k)/2r, e_i k/2r).

    For i = 1 this reduces to the integers (2r - k, k); for k = r both
    exponents equal e_i/2.
    """
    from fractions import Fraction

    if not 1 <= k <= sig.r:
        raise ValueError(f"target k={k} out of range for r={sig.r}")
    two_r = 2 * sig.r
    hi, lo = scaled_shadow(two_r, sig.exponent(i), k)  # exponent() validates i
    return ShadowPair(k, i, ExponentPair(Fraction(hi, two_r), Fraction(lo, two_r)))


def orbit_exponents(sig: GradingSignature, level: int, split: int) -> ExponentPair:
    """The exponent pair (e_i - s, s) of left-hand orbit (i, s)."""
    from fractions import Fraction

    e = sig.exponent(level)
    if not 1 <= split <= e // 2:
        raise ValueError(f"split s={split} out of range for level {level} (e={e})")
    return ExponentPair(Fraction(e - split), Fraction(split))


# ---------------------------------------------------------------------------
# JSON-ready listings (consumed by the report command)
# ---------------------------------------------------------------------------

def orbit_pieces(sig: GradingSignature) -> Iterator[str]:
    """The text of ``json.dumps(orbit_table(sig))`` in r + 2 pieces: the
    brackets, and the rows of one level each, with each coefficient
    C(e_i, s) read from one binomial row per level."""
    yield "["
    sep = ""
    for i, e in enumerate(sig.exponents, 1):
        m = e // 2
        coefficients = _binom_row(e, m)
        yield sep + ", ".join(
            f'{{"i": {i}, "s": {s}, "coefficient": {coefficients[s]}, '
            f'"is_middle": {"true" if s == m else "false"}, "exponents": [{e - s}, {s}]}}'
            for s in range(1, m + 1)
        )
        sep = ", "
    yield "]"


def orbit_table(sig: GradingSignature) -> list[dict]:
    """One row per left-hand orbit, by level and then split, parsed from
    ``orbit_pieces``."""
    return json.loads("".join(orbit_pieces(sig)))


def rhs_table(sig: GradingSignature) -> list[dict]:
    """The folded right-hand terms k = 1..r: binom(2r, k)(A^{2r-k} B^k +
    A^k B^{2r-k}), collapsing to the single binom(2r, r) A^r B^r when k = r."""
    two_r = 2 * sig.r
    return [
        {
            "k": k,
            "coefficient": binom(two_r, k),
            "is_middle": k == sig.r,
            "exponents": [two_r - k, k],
        }
        for k in range(1, sig.r + 1)
    ]


def shadow_pieces(sig: GradingSignature) -> Iterator[str]:
    """The text of ``json.dumps(shadow_table(sig))`` in r + 2 pieces: the
    brackets, and the rows of one k each."""
    two_r = 2 * sig.r
    yield "["
    sep = ""
    for k in range(1, sig.r + 1):
        yield sep + ", ".join(
            f'{{"k": {k}, "i": {i}, "hi": "{hi}", "lo": "{lo}"}}'
            for i, e in enumerate(sig.exponents, 1)
            for hi, lo in [shadow_strings(two_r, e, k)]
        )
        sep = ", "
    yield "]"


def shadow_table(sig: GradingSignature) -> list[dict]:
    """The shadow of every slot (k, i) in the wire format, by k and then
    i, parsed from ``shadow_pieces``."""
    return json.loads("".join(shadow_pieces(sig)))
