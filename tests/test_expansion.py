import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from gradenorm import numeric_search
from gradenorm.exactmath import ExponentPair, binom, ratio_to_str
from gradenorm.expansion import (
    lhs_orbits,
    orbit_exponents,
    orbit_pieces,
    orbit_table,
    rhs_table,
    scaled_shadow,
    shadow,
    shadow_pieces,
    shadow_strings,
    shadow_table,
)
from gradenorm.graded_space import GradingSignature, ScalarProfile, scalar_norm
from gradenorm.numeric_search import holder_shadow_bound_check, pure_terms_cancel


def coeff_map(sig):
    return {(o.level, o.split): o.coefficient for o in lhs_orbits(sig)}


# ---------------------------------------------------------------------------
# lhs orbits
# ---------------------------------------------------------------------------

def test_lhs_orbits_r5_count_and_published_coefficients():
    sig = GradingSignature(5)
    orbits = lhs_orbits(sig)
    assert len(orbits) == 15
    coeffs = coeff_map(sig)
    assert coeffs[(1, 3)] == 120
    assert coeffs[(2, 3)] == 56
    assert coeffs[(3, 2)] == 15


def test_lhs_orbits_r1_single_middle():
    (orbit,) = lhs_orbits(GradingSignature(1))
    assert (orbit.level, orbit.split, orbit.coefficient, orbit.is_middle) == (1, 1, 2, True)


def test_lhs_orbit_middles_are_half_exponent():
    sig = GradingSignature(6)
    for o in lhs_orbits(sig):
        assert o.is_middle == (o.split == sig.exponent(o.level) // 2)


@pytest.mark.parametrize("r", range(1, 13))
def test_orbit_count_is_triangular(r):
    assert len(lhs_orbits(GradingSignature(r))) == r * (r + 1) // 2


@pytest.mark.parametrize("r", range(1, 13))
def test_coefficient_ledger_row_sums(r):
    # orbits (doubled unless middle) plus the two pure terms per level
    # must add up to the full rows sum_i 2^{e_i}
    sig = GradingSignature(r)
    total = 0
    for o in lhs_orbits(sig):
        total += o.coefficient if o.is_middle else 2 * o.coefficient
    total += 2 * sig.r
    assert total == sum(2**e for e in sig.exponents)


# ---------------------------------------------------------------------------
# rhs orbits
# ---------------------------------------------------------------------------

def test_rhs_orbits_r5_coefficients():
    orbits = rhs_table(GradingSignature(5))
    assert [o["coefficient"] for o in orbits] == [10, 45, 120, 210, 252]
    assert [o["is_middle"] for o in orbits] == [False, False, False, False, True]


def test_rhs_orbits_r1():
    (orbit,) = rhs_table(GradingSignature(1))
    assert orbit == {"k": 1, "coefficient": 2, "is_middle": True, "exponents": [1, 1]}


def test_rhs_orbit_r6_middle_coefficient():
    orbits = rhs_table(GradingSignature(6))
    assert orbits[-1]["coefficient"] == binom(12, 6) == 924


# ---------------------------------------------------------------------------
# shadows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "k, i, hi, lo",
    [
        (3, 2, Fraction(28, 5), Fraction(12, 5)),
        (3, 3, Fraction(21, 5), Fraction(9, 5)),
        (3, 1, Fraction(7), Fraction(3)),
    ],
)
def test_shadow_r5_examples(k, i, hi, lo):
    pair = shadow(GradingSignature(5), k, i).exponents
    assert (pair.hi, pair.lo) == (hi, lo)


@pytest.mark.parametrize("r", [1, 3, 5, 8])
def test_shadow_middle_target_is_balanced(r):
    sig = GradingSignature(r)
    for i in range(1, r + 1):
        pair = shadow(sig, r, i).exponents
        assert pair.hi == pair.lo == Fraction(sig.exponent(i), 2)


@pytest.mark.parametrize("r", range(1, 13))
def test_shadow_degree_identity_exact(r):
    sig = GradingSignature(r)
    for k in range(1, r + 1):
        for i in range(1, r + 1):
            assert shadow(sig, k, i).exponents.degree() == sig.exponent(i)


@pytest.mark.parametrize("r", range(1, 13))
def test_shadow_level_one_is_integral(r):
    sig = GradingSignature(r)
    for k in range(1, r + 1):
        pair = shadow(sig, k, 1).exponents
        assert (pair.hi, pair.lo) == (Fraction(2 * r - k), Fraction(k))


@pytest.mark.parametrize("k, i", [(0, 1), (6, 1), (1, 0), (1, 6)])
def test_shadow_range_errors(k, i):
    with pytest.raises(ValueError):
        shadow(GradingSignature(5), k, i)


def test_orbit_exponents_and_errors():
    sig = GradingSignature(5)
    assert orbit_exponents(sig, 2, 3) == ExponentPair(5, 3)
    with pytest.raises(ValueError):
        orbit_exponents(sig, 2, 5)


# ---------------------------------------------------------------------------
# pure-term cancellation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [1, 5, 8])
def test_pure_terms_cancel(r):
    assert pure_terms_cancel(GradingSignature(r)) is True


def test_pure_terms_cancel_fails_on_a_wrong_norm(monkeypatch):
    monkeypatch.setattr(numeric_search, "scalar_norm", lambda a: 1.5 * scalar_norm(a))
    assert pure_terms_cancel(GradingSignature(3)) is False


# ---------------------------------------------------------------------------
# Hölder shadow bound
# ---------------------------------------------------------------------------

def test_holder_bound_zero_partner_is_exactly_zero():
    sig = GradingSignature(5)
    a = ScalarProfile(sig, np.array([1.0, 2.0, 0.5, 3.0, 0.1]))
    b = ScalarProfile(sig, np.zeros(5))
    assert holder_shadow_bound_check(sig, 3, a, b) == 0.0


def test_holder_bound_equality_case_all_ones():
    sig = GradingSignature(5)
    ones = ScalarProfile(sig, np.ones(5))
    diff = holder_shadow_bound_check(sig, 5, ones, ones)
    assert abs(diff) <= 1e-12 * 5


def test_holder_bound_equal_profiles_r5_k3():
    sig = GradingSignature(5)
    rng = np.random.default_rng(21)
    for _ in range(500):
        mags = 10.0 ** rng.uniform(-2, 2, size=5)
        a = ScalarProfile(sig, mags)
        scale = max(1.0, scalar_norm(a) ** 7 * scalar_norm(a) ** 3)
        assert holder_shadow_bound_check(sig, 3, a, a) <= 1e-12 * scale


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_holder_bound_random_profiles_all_targets(r):
    sig = GradingSignature(r)
    rng = np.random.default_rng(300 + r)
    for k in range(1, r + 1):
        for _ in range(1000):
            a = ScalarProfile(sig, 10.0 ** rng.uniform(-3, 3, size=r))
            b = ScalarProfile(sig, 10.0 ** rng.uniform(-3, 3, size=r))
            rhs = scalar_norm(a) ** (2 * r - k) * scalar_norm(b) ** k
            assert holder_shadow_bound_check(sig, k, a, b) <= 1e-12 * max(1.0, rhs)


@pytest.mark.parametrize("r", [3, 5, 6])
def test_holder_bound_vectorized_sweep(r):
    # same inequality checked via the raw formula over a large batch
    sig = GradingSignature(r)
    rng = np.random.default_rng(400 + r)
    exps = np.asarray(sig.exponents, dtype=float)
    n = 100_000
    a = 10.0 ** rng.uniform(-3, 3, size=(n, r))
    b = 10.0 ** rng.uniform(-3, 3, size=(n, r))
    big_a = np.power(a, exps).sum(axis=1) ** (1 / (2 * r))
    big_b = np.power(b, exps).sum(axis=1) ** (1 / (2 * r))
    for k in range(1, r + 1):
        alpha = exps * (2 * r - k) / (2 * r)
        beta = exps * k / (2 * r)
        lhs = (a**alpha * b**beta).sum(axis=1)
        rhs = big_a ** (2 * r - k) * big_b**k
        rel = (lhs - rhs) / np.maximum(1.0, rhs)
        assert float(rel.max()) <= 1e-12


def test_holder_bound_validates_inputs():
    sig = GradingSignature(3)
    a = ScalarProfile(sig, np.ones(3))
    with pytest.raises(ValueError):
        holder_shadow_bound_check(sig, 4, a, a)
    with pytest.raises(ValueError):
        holder_shadow_bound_check(GradingSignature(4), 1, a, a)


# ---------------------------------------------------------------------------
# JSON tables
# ---------------------------------------------------------------------------

def test_tables_are_json_ready():
    sig = GradingSignature(3)
    orbits = orbit_table(sig)
    assert {"i": 1, "s": 1, "coefficient": 6, "is_middle": False, "exponents": [5, 1]} in orbits
    rhs = rhs_table(sig)
    assert rhs[-1] == {"k": 3, "coefficient": 20, "is_middle": True, "exponents": [3, 3]}
    shadows = shadow_table(sig)
    assert {"k": 1, "i": 2, "hi": "10/3", "lo": "2/3"} in shadows


@pytest.mark.parametrize("r", [1, 2, 5, 12, 30])
def test_shadow_strings_are_the_scaled_shadow_over_2r(r):
    two_r = 2 * r
    for e in GradingSignature(r).exponents:
        for k in range(1, r + 1):
            hi, lo = scaled_shadow(two_r, e, k)
            assert shadow_strings(two_r, e, k) == [ratio_to_str(hi, two_r), ratio_to_str(lo, two_r)]


@pytest.mark.parametrize("r", range(1, 13))
def test_tables_match_a_reference_built_from_the_orbits_and_shadows(r):
    sig = GradingSignature(r)
    orbits = [
        {"i": o.level, "s": o.split, "coefficient": o.coefficient, "is_middle": o.is_middle,
         "exponents": [sig.exponent(o.level) - o.split, o.split]}
        for o in lhs_orbits(sig)
    ]
    shadows = []
    for k in range(1, r + 1):
        for i in range(1, r + 1):
            pair = shadow(sig, k, i).exponents
            hi, lo = (ratio_to_str(x.numerator, x.denominator) for x in (pair.hi, pair.lo))
            shadows.append({"k": k, "i": i, "hi": hi, "lo": lo})
    for table, expected in ((orbit_table, orbits), (shadow_table, shadows)):
        rows = table(sig)
        assert rows == expected
        assert json.dumps(rows) == json.dumps(expected)  # key order too


@pytest.mark.parametrize("r", [1, 4, 9])
def test_table_pieces_are_the_tables_json_a_level_or_a_k_at_a_time(r):
    sig = GradingSignature(r)
    for pieces, table in ((orbit_pieces, orbit_table), (shadow_pieces, shadow_table)):
        texts = list(pieces(sig))
        assert len(texts) == r + 2
        assert "".join(texts) == json.dumps(table(sig))


def _sha256_lines(texts):
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def test_tables_are_pinned_for_r_up_to_60():
    # the orbit, rhs and shadow listings that `report --json` prints
    sigs = [GradingSignature(r) for r in range(1, 61)]
    digests = {
        table.__name__: _sha256_lines(json.dumps(table(sig)) for sig in sigs)
        for table in (orbit_table, rhs_table, shadow_table)
    }
    assert digests == {
        "orbit_table": "70c26f028dea9f6a2b28329eac9880953b5ad2d58c33767b75f93e8a785f9f4e",
        "rhs_table": "1f17df34d17dd4fcee1ed417d85920b83b71488e5e4b163f20f0fb95cec75751",
        "shadow_table": "a0a1218e868ece935bdea9d6cca975f055171000517470a474ffcb54c75b6c26",
    }


def test_rational_exponent_pairs_are_pinned_for_r_up_to_30():
    # str() of the dataclasses shows the Fraction values themselves
    sigs = [GradingSignature(r) for r in range(1, 31)]
    shadows = (
        str(shadow(sig, k, i))
        for sig in sigs
        for k in range(1, sig.r + 1)
        for i in range(1, sig.r + 1)
    )
    assert (
        _sha256_lines(shadows)
        == "6aa7f6881939b014c8b9d931f80fed125dc619ee57789481d349ef61fdc264a4"
    )
    orbits = (
        str(orbit_exponents(sig, i, s))
        for sig in sigs
        for i in range(1, sig.r + 1)
        for s in range(1, sig.exponent(i) // 2 + 1)
    )
    assert (
        _sha256_lines(orbits)
        == "8132361a7a93e6904783bbb8ea6e80097ffcb28a3b62f843726bb2a20c7ead76"
    )
