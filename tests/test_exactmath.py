import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradenorm.exactmath import (
    ExponentPair,
    binom,
    majorizes,
    ratio_to_str,
)


def multiplicative_binom(n, k):
    """Reference C(n, k): the multiplicative formula over big integers.
    The division at step i is exact because i! divides any product of i
    consecutive integers."""
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        out = out * (n - k + i) // i
    return out


def _symmetric_sum(pair, x, y):
    hi, lo = pair.as_floats()
    return x**hi * y**lo + x**lo * y**hi


def muirhead_pair_holds(dominant, dominated, x, y, rel_tol=1e-12):
    """Numerically confirm the two-variable Muirhead comparison at (x, y).

    Requires ``majorizes(dominant, dominated)`` and x, y >= 0; anything
    else is a domain error. Returns whether

        x^hi' y^lo' + x^lo' y^hi'  >=  x^hi y^lo + x^lo y^hi

    holds within ``rel_tol`` relative slack. A float oracle for what
    ``majorizes`` certifies; the checker relies on ``majorizes`` alone.
    """
    if not majorizes(dominant, dominated):
        raise ValueError(f"{dominant} does not majorize {dominated}")
    if x < 0 or y < 0:
        raise ValueError(f"arguments must be nonnegative, got ({x}, {y})")
    big = _symmetric_sum(dominant, x, y)
    small = _symmetric_sum(dominated, x, y)
    return big >= small - rel_tol * max(1.0, big, small)


def pascal_triangle(n_max):
    """Independent oracle: rows built purely by the addition recurrence."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        )
    return rows


# ---------------------------------------------------------------------------
# binom
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n, k, expected",
    [
        (10, 3, 120),
        (8, 4, 70),
        (0, 0, 1),
        (12, 6, 924),  # cross-checked against the Pascal oracle below
    ],
)
def test_binom_values(n, k, expected):
    assert binom(n, k) == expected


def test_binom_agrees_with_pascal_oracle_up_to_60():
    rows = pascal_triangle(60)
    for n in range(61):
        for k in range(n + 1):
            assert binom(n, k) == rows[n][k]


def test_binom_agrees_with_multiplicative_formula_up_to_400():
    for n in range(401):
        for k in range(n + 1):
            assert binom(n, k) == multiplicative_binom(n, k)


def test_pascal_oracle_pins_924():
    assert pascal_triangle(12)[12][6] == 924


@pytest.mark.parametrize("n, k", [(3, 4), (0, 1), (-1, 0), (2, -1)])
def test_binom_domain_errors(n, k):
    with pytest.raises(ValueError):
        binom(n, k)


@given(st.integers(min_value=1, max_value=60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n - 1) if n > 1 else st.just(0))
))
def test_binom_pascal_identity(nk):
    n, k = nk
    if k == 0:
        return
    assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


# ---------------------------------------------------------------------------
# rational wire format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(28, 5), "28/5"),
        (Fraction(7), "7"),
        (Fraction(-3, 4), "-3/4"),
        (Fraction(0), "0"),
    ],
)
def test_rational_round_trip(value, text):
    assert ratio_to_str(value.numerator, value.denominator) == text


@given(st.fractions(), st.fractions())
def test_rational_addition_round_trips(a, b):
    assert (a + b) - b == a


@given(st.fractions(), st.fractions().filter(lambda b: b != 0))
def test_rational_multiplication_round_trips(a, b):
    assert (a * b) / b == a


# ---------------------------------------------------------------------------
# ExponentPair / majorizes
# ---------------------------------------------------------------------------

def test_exponent_pair_sorts_and_reduces():
    p = ExponentPair(Fraction(12, 5), Fraction(28, 5))
    assert (p.hi, p.lo) == (Fraction(28, 5), Fraction(12, 5))
    assert p.degree() == 8


def test_exponent_pair_rejects_negative():
    with pytest.raises(ValueError):
        ExponentPair(Fraction(3), Fraction(-1))


@pytest.mark.parametrize(
    "p, q, expected",
    [
        ((Fraction(28, 5), Fraction(12, 5)), (5, 3), True),
        ((Fraction(21, 5), Fraction(9, 5)), (4, 2), True),
        ((4, 4), (4, 4), True),
        ((5, 3), (Fraction(28, 5), Fraction(12, 5)), False),
    ],
)
def test_majorizes_cases(p, q, expected):
    assert majorizes(ExponentPair(*p), ExponentPair(*q)) is expected


def test_majorizes_requires_equal_degree():
    assert not majorizes(ExponentPair(9, 1), ExponentPair(5, 3))


def _random_pair(rnd, degree):
    hi = degree / 2 + Fraction(rnd.randint(0, 40), rnd.randint(1, 8))
    hi = min(hi, degree)
    return ExponentPair(hi, degree - hi)


def test_majorizes_reflexive_transitive_antisymmetric():
    rnd = random.Random(7)
    for _ in range(2000):
        degree = Fraction(rnd.randint(1, 30), rnd.randint(1, 5))
        p = _random_pair(rnd, degree)
        q = _random_pair(rnd, degree)
        w = _random_pair(rnd, degree)
        assert majorizes(p, p)
        chain = sorted([p, q, w], key=lambda e: e.hi, reverse=True)
        assert majorizes(chain[0], chain[1])
        assert majorizes(chain[1], chain[2])
        assert majorizes(chain[0], chain[2])
        if majorizes(p, q) and majorizes(q, p):
            assert p == q


# ---------------------------------------------------------------------------
# muirhead_pair_holds
# ---------------------------------------------------------------------------

def test_muirhead_example_from_length5_proof():
    dominant = ExponentPair(Fraction(28, 5), Fraction(12, 5))
    dominated = ExponentPair(5, 3)
    # direct evaluation: 2^5.6 + 2^2.4 > 2^5 + 2^3 = 40
    assert 2**5.6 + 2**2.4 > 40
    assert muirhead_pair_holds(dominant, dominated, 2.0, 1.0)


def test_muirhead_equal_arguments_always_hold():
    dominant = ExponentPair(Fraction(9, 2), Fraction(3, 2))
    dominated = ExponentPair(4, 2)
    assert muirhead_pair_holds(dominant, dominated, 1.0, 1.0)


def test_muirhead_identical_pairs_always_hold():
    pair = ExponentPair(5, 3)
    assert muirhead_pair_holds(pair, pair, 7.3, 0.2)


def test_muirhead_rejects_unmajorized_pairs():
    with pytest.raises(ValueError):
        muirhead_pair_holds(ExponentPair(5, 3), ExponentPair(6, 2), 1.0, 1.0)


def test_muirhead_rejects_negative_arguments():
    with pytest.raises(ValueError):
        muirhead_pair_holds(ExponentPair(5, 3), ExponentPair(4, 4), -1.0, 1.0)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_muirhead_random_single(seed):
    rnd = random.Random(seed)
    degree = Fraction(rnd.randint(2, 24), rnd.randint(1, 4))
    big, small = sorted((_random_pair(rnd, degree), _random_pair(rnd, degree)),
                        key=lambda e: e.hi, reverse=True)
    x = rnd.uniform(0.0, 10.0)
    y = rnd.uniform(0.0, 10.0)
    assert muirhead_pair_holds(big, small, x, y)


def test_muirhead_random_sweep_100k():
    rnd = random.Random(20250808)
    for _ in range(100_000):
        degree = Fraction(rnd.randint(2, 24), rnd.randint(1, 4))
        big, small = sorted(
            (_random_pair(rnd, degree), _random_pair(rnd, degree)),
            key=lambda e: e.hi,
            reverse=True,
        )
        assert muirhead_pair_holds(big, small, rnd.uniform(0, 10), rnd.uniform(0, 10))
