"""Exact arithmetic kernel: the grading signature, big-integer binomial
coefficients, rational exponent pairs, and the two-variable
majorization predicate.

The certificate checker and report use ``GradingSignature`` and the
``"p/q"`` wire format of ``ratio_to_str``, which takes an integer pair,
so they build no ``Fraction``. ``check_line`` compares ``binom`` values;
the batch checker takes the same integers from rows built by an exact
recurrence. ``ExponentPair`` and ``majorizes`` are the definition of
majorization on rational exponents; a certificate line's two pairs have
equal degree, so the checker tests it as one integer comparison, and
its tests compare the two. Every comparison here is exact. Rationals
are ``fractions.Fraction`` values, which are always stored reduced with
a positive denominator and compare by big-integer cross
multiplication. The module imports only the standard library and holds
no numeric routine; ``ExponentPair.as_floats`` only hands exponents to
the float side (``graded_space``, ``numeric_search``).

All functions are pure and all values immutable, so concurrent use
needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "GradingSignature",
    "ExponentPair",
    "binom",
    "majorizes",
    "rational_to_str",
    "ratio_to_str",
]

@dataclass(frozen=True)
class GradingSignature:
    """Grading length r together with the exponent ladder (2r, ..., 4, 2)."""

    r: int
    exponents: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 1:
            raise ValueError(f"grading length must be a positive integer, got {self.r!r}")
        object.__setattr__(self, "exponents", tuple(2 * (self.r - i) for i in range(self.r)))

    def exponent(self, level: int) -> int:
        """e_i = 2(r - i + 1) for a 1-based level index."""
        if not 1 <= level <= self.r:
            raise ValueError(f"level {level} out of range for r={self.r}")
        return self.exponents[level - 1]


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k) for 0 <= k <= n, as a Python
    big integer (``math.comb``)."""
    if n < 0 or k < 0:
        raise ValueError(f"binom requires nonnegative arguments, got ({n}, {k})")
    if k > n:
        raise ValueError(f"binom requires k <= n, got ({n}, {k})")
    return math.comb(n, k)


def ratio_to_str(num: int, den: int) -> str:
    """Render num/den (den > 0) in lowest terms as ``"p/q"``, or plain
    ``"p"`` when the reduced denominator is 1.

    This is the wire format for rationals in every JSON payload.
    """
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def rational_to_str(x: Fraction | int) -> str:
    """``ratio_to_str`` of anything ``Fraction`` accepts."""
    x = Fraction(x)
    return ratio_to_str(x.numerator, x.denominator)


@dataclass(frozen=True)
class ExponentPair:
    """An unordered pair of nonnegative rational exponents.

    Stored sorted with ``hi >= lo``, so two-element majorization is a
    degree comparison plus one leading-exponent comparison.
    """

    hi: Fraction
    lo: Fraction

    def __post_init__(self) -> None:
        hi, lo = Fraction(self.hi), Fraction(self.lo)
        if hi < lo:
            hi, lo = lo, hi
        if lo < 0:
            raise ValueError(f"exponents must be nonnegative, got ({self.hi}, {self.lo})")
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo", lo)

    def degree(self) -> Fraction:
        return self.hi + self.lo

    def as_floats(self) -> tuple[float, float]:
        return float(self.hi), float(self.lo)

    def __str__(self) -> str:
        return f"({rational_to_str(self.hi)}, {rational_to_str(self.lo)})"


def majorizes(p: ExponentPair, q: ExponentPair) -> bool:
    """True iff p and q have equal degree and ``p.hi >= q.hi``, exactly.

    This is majorization for two-element nonincreasing sequences. It is
    the hypothesis under which the symmetric sum built from p dominates
    the one built from q pointwise on the nonnegative quadrant (the
    two-variable case of Muirhead's inequality). Unequal degrees simply
    yield False.
    """
    return p.degree() == q.degree() and p.hi >= q.hi

