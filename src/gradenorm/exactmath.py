"""Exact arithmetic kernel: the grading signature, big-integer binomial
coefficients, rational exponent pairs, and the two-variable
majorization predicate.

The certificate checker and report use ``GradingSignature`` and the
``"p/q"`` wire format of ``ratio_to_str``, which takes an integer pair,
so they build no ``Fraction``. ``check_line`` compares ``binom`` values;
the batch checker, the report and ``expansion.orbit_table`` take the
same integers from rows that ``_binom_row`` builds by an exact
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

Value classes. The nine immutable records of the exact core
(``GradingSignature`` and ``ExponentPair`` here, ``TermOrbit`` and
``ShadowPair`` in ``expansion``, and ``CertificateLine``,
``Certificate``, ``Violation``, ``CheckReport`` and ``ProofReport`` in
``certificate``) are plain classes on ``FrozenValue``, each with its own
``__init__``. They are not dataclasses because ``import dataclasses``
(with ``inspect``) and the decorator's code generation would be about
half the import time of ``gradenorm.cli`` for ``check``, ``prove``,
``report`` and ``--version``, which need neither. The float side
(``graded_space``, ``numeric_search``) keeps ``@dataclass``, since numpy
imports ``inspect`` anyway.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "GradingSignature",
    "ExponentPair",
    "binom",
    "majorizes",
    "rational_to_str",
    "ratio_to_str",
]


class FrozenValue:
    """An immutable record whose fields are its class's ``__match_args__``.

    Equality holds between instances of one class with equal fields (any
    other operand gets ``NotImplemented``); the hash and the repr are
    those of the fields. Setting or deleting any attribute raises
    ``AttributeError``. A subclass's ``__init__`` validates its arguments
    and stores each field with ``object.__setattr__``, as a frozen
    dataclass does: writing ``self.__dict__`` would give each instance
    its own dict (248 B against 108 B per ``CertificateLine``). Instances
    pickle and copy through their ``__dict__``, so no ``__init__`` runs
    again.
    """

    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        pairs = zip(self.__match_args__, self._fields())
        fields = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GradingSignature(FrozenValue):
    """Grading length r together with the exponent ladder (2r, ..., 4, 2).
    Equality, hash and repr read r alone."""

    __match_args__ = ("r",)

    def __init__(self, r: int) -> None:
        if not isinstance(r, int) or isinstance(r, bool) or r < 1:
            raise ValueError(f"grading length must be a positive integer, got {r!r}")
        put = object.__setattr__
        put(self, "r", r)
        put(self, "exponents", tuple(2 * (r - i) for i in range(r)))

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


def _binom_row(n: int, top: int) -> list[int]:
    """C(n, 0..top) by C(n, s+1) = C(n, s)(n-s)/(s+1); every division is exact."""
    row = [1] * (top + 1)
    for s in range(top):
        row[s + 1] = row[s] * (n - s) // (s + 1)
    return row


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


class ExponentPair(FrozenValue):
    """An unordered pair of nonnegative rational exponents.

    Stored sorted with ``hi >= lo``, so two-element majorization is a
    degree comparison plus one leading-exponent comparison.
    """

    __match_args__ = ("hi", "lo")

    def __init__(self, hi: Fraction, lo: Fraction) -> None:
        a, b = Fraction(hi), Fraction(lo)
        if a < b:
            a, b = b, a
        if b < 0:
            raise ValueError(f"exponents must be nonnegative, got ({hi}, {lo})")
        put = object.__setattr__
        put(self, "hi", a)
        put(self, "lo", b)

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

