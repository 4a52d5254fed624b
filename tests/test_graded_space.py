import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradenorm.graded_space import (
    GradedVector,
    GradingSignature,
    ScalarProfile,
    dilate,
    hnorm,
    homogeneity_defect,
    profile_to_json,
    random_vector,
    scalar_norm,
    scalar_profile,
    triangle_defect,
    vector_from_json,
    vector_to_json,
)


def unit_level(dim, axis=0):
    v = np.zeros(dim)
    v[axis] = 1.0
    return v


# ---------------------------------------------------------------------------
# signature
# ---------------------------------------------------------------------------

def test_signature_exponent_ladder():
    sig = GradingSignature(5)
    assert sig.exponents == (10, 8, 6, 4, 2)
    assert sig.exponent(1) == 10 and sig.exponent(5) == 2


@pytest.mark.parametrize("r", [0, -3, 2.5, "4"])
def test_signature_rejects_bad_lengths(r):
    with pytest.raises(ValueError):
        GradingSignature(r)


def test_signature_exponent_out_of_range():
    with pytest.raises(ValueError):
        GradingSignature(3).exponent(4)


# ---------------------------------------------------------------------------
# hnorm
# ---------------------------------------------------------------------------

def test_hnorm_zero_vector_is_zero():
    x = GradedVector.zero(GradingSignature(4))
    assert hnorm(x) == 0.0


def test_hnorm_r2_unit_first_level():
    x = GradedVector.from_components([unit_level(3), np.zeros(2)])
    assert hnorm(x) == pytest.approx(1.0, rel=1e-15)


def test_hnorm_r5_all_unit_levels():
    x = GradedVector.from_components([unit_level(3) for _ in range(5)])
    assert hnorm(x) == pytest.approx(5 ** (1 / 10), rel=1e-14)


def test_hnorm_positive_definite():
    sig = GradingSignature(3)
    x = GradedVector(sig, (np.zeros(2), np.array([0.0, 1e-8]), np.zeros(1)))
    assert hnorm(x) > 0
    assert hnorm(GradedVector.zero(sig)) == 0.0


def test_hnorm_negation_symmetry_exact():
    rng = np.random.default_rng(3)
    for r in (1, 2, 3, 5):
        x = random_vector(GradingSignature(r), rng)
        assert hnorm(-x) == hnorm(x)


def test_hnorm_equals_profile_norm_exactly():
    rng = np.random.default_rng(11)
    for r in (1, 2, 4, 6):
        x = random_vector(GradingSignature(r), rng, magnitude_decades=(-2, 2))
        assert hnorm(x) == scalar_norm(scalar_profile(x))


# ---------------------------------------------------------------------------
# dilate
# ---------------------------------------------------------------------------

def test_dilate_identity():
    rng = np.random.default_rng(5)
    x = random_vector(GradingSignature(4), rng)
    y = dilate(1.0, x)
    for a, b in zip(x.components, y.components):
        assert np.array_equal(a, b)


def test_dilate_negation_preserves_norm():
    rng = np.random.default_rng(6)
    x = random_vector(GradingSignature(5), rng)
    assert hnorm(dilate(-1.0, x)) == hnorm(x)


def test_dilate_rejects_zero():
    x = GradedVector.zero(GradingSignature(2))
    with pytest.raises(ValueError):
        dilate(0.0, x)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_dilate_rejects_a_nonfinite_parameter(t):
    x = GradedVector.from_components([np.array([1.0]), np.array([1.0]), np.array([1.0])])
    with pytest.raises(ValueError, match="dilation parameter t must be finite and nonzero"):
        dilate(t, x)
    with pytest.raises(ValueError, match="dilation parameter t must be finite and nonzero"):
        homogeneity_defect(x, t)
    # a huge integer is finite; its powers overflow instead
    with pytest.raises(ValueError, match="overflows"):
        dilate(10**400, x)


def test_dilate_r2_doubles_norm():
    x = GradedVector.from_components([np.array([1.0]), np.array([1.0])])
    assert hnorm(x) == pytest.approx(2 ** 0.25, rel=1e-15)
    assert hnorm(dilate(2.0, x)) == pytest.approx(2 * hnorm(x), rel=1e-14)


def test_dilate_scales_levels_by_powers():
    x = GradedVector.from_components([np.array([1.0]), np.array([1.0]), np.array([1.0])])
    y = dilate(3.0, x)
    assert [float(c[0]) for c in y.components] == [3.0, 9.0, 27.0]


def test_dilate_parameter_whose_power_overflows_is_a_value_error():
    x = GradedVector.from_components([np.array([1.0]), np.array([1.0]), np.array([1.0])])
    with pytest.raises(ValueError, match="overflows"):
        dilate(1e150, x)  # 1e150 ** 3 raises OverflowError in float pow
    with pytest.raises(ValueError, match="overflows"):
        homogeneity_defect(x, 1e150)
    short = GradedVector.from_components([np.array([1.0]), np.array([1.0])])
    assert [float(c[0]) for c in dilate(1e150, short).components] == [1e150, 1e150**2]


def test_homogeneity_defect_of_an_overflowing_dilation_is_a_value_error():
    # t^i is finite but a component times it is not; dilate itself does
    # not scan for that, hnorm rejects the infinite level length
    x = GradedVector.from_components([np.array([1e300]), np.array([1.0]), np.array([1.0])])
    with np.errstate(over="ignore"):
        y = dilate(1e10, x)
    assert y.components[0][0] == np.inf
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        homogeneity_defect(x, 1e10)


# ---------------------------------------------------------------------------
# homogeneity boundary
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [1, 2])
def test_homogeneity_holds_for_short_gradings(r):
    rng = np.random.default_rng(100 + r)
    sig = GradingSignature(r)
    for _ in range(2000):
        x = random_vector(sig, rng, magnitude_decades=(-2, 2))
        t = float(rng.uniform(0.01, 100.0) * rng.choice([-1.0, 1.0]))
        defect = homogeneity_defect(x, t)
        assert abs(defect) <= 1e-12 * max(1.0, abs(t) * hnorm(x))


def level2_witness(r):
    comps = [np.zeros(1) for _ in range(r)]
    comps[1] = np.array([1.0])
    return GradedVector.from_components(comps)


def test_homogeneity_witness_r3():
    defect = homogeneity_defect(level2_witness(3), 2.0)
    assert defect == pytest.approx(2 ** (4 / 3) - 2, abs=1e-12)
    assert defect > 0.5


@pytest.mark.parametrize("r, expected", [(4, 2 ** 1.5 - 2), (5, 2 ** 1.6 - 2)])
def test_homogeneity_witnesses_longer_gradings(r, expected):
    defect = homogeneity_defect(level2_witness(r), 2.0)
    assert defect == pytest.approx(expected, abs=1e-12)
    assert defect > 0.5


def test_homogeneity_defect_zero_at_identity():
    rng = np.random.default_rng(9)
    x = random_vector(GradingSignature(4), rng)
    assert homogeneity_defect(x, 1.0) == 0.0


# ---------------------------------------------------------------------------
# scalar profiles and the scalar norm
# ---------------------------------------------------------------------------

def test_scalar_profile_zero_vector():
    p = scalar_profile(GradedVector.zero(GradingSignature(3)))
    assert np.array_equal(p.magnitudes, np.zeros(3))


def test_scalar_profile_unit_levels():
    x = GradedVector.from_components([unit_level(4) for _ in range(5)])
    assert np.array_equal(scalar_profile(x).magnitudes, np.ones(5))


def test_scalar_profile_345_triangle():
    x = GradedVector.from_components([np.array([3.0, 4.0]), np.array([5.0])])
    assert scalar_profile(x).magnitudes.tolist() == [5.0, 5.0]


def test_scalar_norm_zero():
    assert scalar_norm(ScalarProfile(GradingSignature(4), np.zeros(4))) == 0.0


def test_scalar_norm_r5_ones():
    p = ScalarProfile(GradingSignature(5), np.ones(5))
    assert scalar_norm(p) == pytest.approx(5 ** 0.1, rel=1e-15)


def test_scalar_norm_r1_is_identity():
    rng = np.random.default_rng(12)
    sig = GradingSignature(1)
    for a in rng.uniform(1e-3, 1e3, size=1000):
        assert scalar_norm(ScalarProfile(sig, np.array([a]))) == a


@pytest.mark.parametrize(
    "mags, message",
    [
        ([1.0, -0.5], "finite and nonnegative"),
        ([1.0], "expected 2 magnitudes, got 1"),
        ([1.0, 2.0, 3.0], "expected 2 magnitudes, got 3"),
    ],
)
def test_profile_rejects_negative_or_miscounted_magnitudes(mags, message):
    with pytest.raises(ValueError, match=message):
        ScalarProfile(GradingSignature(2), np.array(mags))


def test_scalar_norm_monotone_per_coordinate():
    rng = np.random.default_rng(13)
    sig = GradingSignature(5)
    for _ in range(2000):
        mags = 10.0 ** rng.uniform(-2, 2, size=5)
        base = scalar_norm(ScalarProfile(sig, mags))
        j = rng.integers(0, 5)
        bumped = mags.copy()
        bumped[j] += float(rng.uniform(0.1, 10.0))
        assert scalar_norm(ScalarProfile(sig, bumped)) >= base


# ---------------------------------------------------------------------------
# triangle defect
# ---------------------------------------------------------------------------

def test_triangle_defect_zero_partner():
    rng = np.random.default_rng(14)
    x = random_vector(GradingSignature(5), rng)
    zero = GradedVector.zero(GradingSignature(5), dims=x.dims)
    assert triangle_defect(x, zero) == 0.0


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_triangle_defect_self_pair_nonpositive(r):
    rng = np.random.default_rng(200 + r)
    sig = GradingSignature(r)
    for _ in range(500):
        x = random_vector(sig, rng, magnitude_decades=(-2, 2))
        defect = triangle_defect(x, x)
        assert defect <= 1e-12 * max(1.0, 2 * hnorm(x))


def test_triangle_defect_r5_random_sweep():
    rng = np.random.default_rng(15)
    sig = GradingSignature(5)
    worst = -np.inf
    for _ in range(10_000):
        x = random_vector(sig, rng, dims=(2, 3, 1, 4, 2), magnitude_decades=(-2, 2))
        y = random_vector(sig, rng, dims=(2, 3, 1, 4, 2), magnitude_decades=(-2, 2))
        rel = triangle_defect(x, y) / max(1.0, hnorm(x) + hnorm(y))
        worst = max(worst, rel)
    assert worst <= 1e-12


def test_triangle_defect_signature_mismatch():
    x = GradedVector.zero(GradingSignature(3))
    y = GradedVector.zero(GradingSignature(4))
    with pytest.raises(ValueError):
        triangle_defect(x, y)


def test_triangle_defect_dimension_mismatch():
    x = GradedVector.zero(GradingSignature(2), dims=(2, 2))
    y = GradedVector.zero(GradingSignature(2), dims=(2, 3))
    with pytest.raises(ValueError):
        triangle_defect(x, y)


def test_reduction_dominance():
    # per-level Euclidean triangle inequality plus monotonicity:
    # the vector defect never exceeds the profile-sum defect
    rng = np.random.default_rng(16)
    sig = GradingSignature(4)
    for _ in range(2000):
        x = random_vector(sig, rng, magnitude_decades=(-2, 1))
        y = random_vector(sig, rng, magnitude_decades=(-2, 1))
        pa, pb = scalar_profile(x), scalar_profile(y)
        scalar_side = scalar_norm(pa + pb) - scalar_norm(pa) - scalar_norm(pb)
        assert triangle_defect(x, y) <= scalar_side + 1e-12


def test_r1_norm_is_euclidean_and_triangle_exact():
    rng = np.random.default_rng(17)
    sig = GradingSignature(1)
    for _ in range(1000):
        v = rng.standard_normal(3)
        w = rng.standard_normal(3)
        x, y = GradedVector(sig, (v,)), GradedVector(sig, (w,))
        assert hnorm(x) == pytest.approx(float(np.linalg.norm(v)), rel=1e-15, abs=0.0)
        assert triangle_defect(x, y) <= 1e-15


# ---------------------------------------------------------------------------
# construction and JSON
# ---------------------------------------------------------------------------

def test_vector_component_count_must_match():
    with pytest.raises(ValueError):
        GradedVector(GradingSignature(3), (np.zeros(2), np.zeros(2)))


def test_vector_rejects_empty_level():
    with pytest.raises(ValueError):
        GradedVector(GradingSignature(2), (np.zeros(2), np.zeros(0)))


def test_vector_components_are_immutable():
    x = GradedVector.from_components([[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]])
    zero = GradedVector.zero(GradingSignature(3), dims=(2, 1, 3))
    for built in (zero, x, x + x, -x, dilate(2.0, x)):
        assert built.dims == (2, 1, 3)
        for level in range(3):
            with pytest.raises(ValueError):
                built.components[level][0] = 1.0


def test_vector_pickle_and_deepcopy_keep_flat_read_only_storage():
    x = GradedVector.from_components([[1.0, 2.0], [3.0]])
    for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert copied.dims == (2, 1)
        assert [c.tolist() for c in copied.components] == [[1.0, 2.0], [3.0]]
        assert hnorm(copied) == hnorm(x)
        with pytest.raises(ValueError):
            copied.components[0][0] = 5.0


def test_vector_copies_its_input():
    first, second = np.array([1.0, 2.0]), np.array([[3.0], [4.0]])
    x = GradedVector(GradingSignature(2), (first, second))
    y = GradedVector(GradingSignature(1), (first,))
    first[0] = 99.0
    second[1, 0] = 99.0
    assert [c.tolist() for c in x.components] == [[1.0, 2.0], [3.0, 4.0]]
    assert y.components[0].tolist() == [1.0, 2.0]


@pytest.mark.parametrize(
    "raw",
    [
        [[1, 2], [3, 4]],
        np.arange(6).reshape(2, 3),
        np.arange(6, dtype=np.int32).reshape(3, 2).T,
        [1, 2, 3],
        7,
        np.array([0.5, -1.5], dtype=np.float32),
    ],
)
def test_vector_flattens_inputs_to_float64(raw):
    x = GradedVector(GradingSignature(2), (raw, [1.0]))
    expected = np.array(raw, dtype=float, copy=True).reshape(-1)
    assert x.components[0].dtype == np.float64
    assert np.array_equal(x.components[0], expected)
    assert x.dims == (expected.size, 1)


def test_vector_dims_are_per_level():
    rng = np.random.default_rng(19)
    x = random_vector(GradingSignature(4), rng, dims=(1, 4, 2, 3))
    assert x.dims == (1, 4, 2, 3)
    assert [c.size for c in x.components] == [1, 4, 2, 3]
    assert (x + x).dims == (-x).dims == dilate(-3.0, x).dims == (1, 4, 2, 3)


def test_random_vector_draw_order():
    sig = GradingSignature(3)
    x = random_vector(sig, np.random.default_rng(20), dims=(2, 1, 3), magnitude_decades=(-1, 1))
    rng = np.random.default_rng(20)
    for got, d in zip(x.components, (2, 1, 3)):
        level = rng.standard_normal(d)
        assert np.array_equal(got, level * 10.0 ** rng.uniform(-1, 1))


def test_vector_sum_rejects_mismatched_dims():
    x = GradedVector.zero(GradingSignature(2), dims=(2, 2))
    with pytest.raises(ValueError):
        x + GradedVector.zero(GradingSignature(2), dims=(2, 3))
    with pytest.raises(ValueError):
        x + GradedVector.zero(GradingSignature(3), dims=(2, 2, 1))


def test_vector_json_round_trip():
    rng = np.random.default_rng(18)
    x = random_vector(GradingSignature(3), rng, dims=(2, 1, 4))
    y = vector_from_json(vector_to_json(x))
    assert y.dims == x.dims
    for a, b in zip(x.components, y.components):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "payload",
    [
        {"r": 2},
        {"components": [[1.0]]},
        {"r": 2, "components": [[1.0]]},
        {"r": "2", "components": [[1.0], [2.0]]},
        [1, 2],
        # numpy raises TypeError on these; outside input fails as ValueError
        {"r": 1, "components": [[{"a": 1}]]},
        {"r": 2, "components": [[1.0], [[2.0], [{}]]]},
    ],
)
def test_vector_json_rejects_malformed(payload):
    with pytest.raises(ValueError):
        vector_from_json(payload)


def test_profile_json_round_trip():
    p = ScalarProfile(GradingSignature(3), np.array([0.5, 2.0, 0.0]))
    assert profile_to_json(p) == {"r": 3, "a": [0.5, 2.0, 0.0]}


@pytest.mark.parametrize(
    "entry", ["1.5", True, None, [1.0], {"a": 1}, 10**400, float("inf"), float("nan")]
)
def test_json_parsers_accept_numbers_only(entry):
    # numpy converts "1.5", true and null to floats; the wire formats do not
    with pytest.raises(ValueError, match="must hold numbers"):
        vector_from_json({"r": 1, "components": [[entry]]})
    with pytest.raises(ValueError, match="must hold numbers"):
        vector_from_json({"r": 2, "components": [[1.0], [2.0, entry]]})


def test_json_parsers_accept_ints_and_floats():
    x = vector_from_json({"r": 2, "components": [[1, 2.5], [-3]]})
    assert [c.tolist() for c in x.components] == [[1.0, 2.5], [-3.0]]


# ---------------------------------------------------------------------------
# agreement with an independent pure-Python reference
# ---------------------------------------------------------------------------

def reference_norm(levels):
    """(sum_i |v_i|^{e_i})^{1/2r} with math.hypot and math.fsum."""
    r = len(levels)
    mags = [math.hypot(*level) for level in levels]
    if r == 1:
        return mags[0]
    return math.fsum(m ** (2 * (r - i)) for i, m in enumerate(mags)) ** (1.0 / (2 * r))


def signed_magnitudes(low, high):
    return st.builds(
        lambda sign, decade: sign * 10.0**decade,
        st.sampled_from([-1.0, 1.0]),
        st.floats(low, high),
    )


@st.composite
def vectors_and_parameter(draw):
    r = draw(st.integers(1, 12))
    dims = draw(st.lists(st.integers(1, 4), min_size=r, max_size=r))

    def levels():
        return [draw(st.lists(signed_magnitudes(-3, 3), min_size=d, max_size=d)) for d in dims]

    return levels(), levels(), draw(signed_magnitudes(-1, 1))


@settings(deadline=None)
@given(vectors_and_parameter())
def test_graded_layer_matches_reference(case):
    xs, ys, t = case
    r = len(xs)
    sig = GradingSignature(r)
    x, y = GradedVector(sig, tuple(map(np.array, xs))), GradedVector(sig, tuple(map(np.array, ys)))

    total = [[a + b for a, b in zip(u, v)] for u, v in zip(xs, ys)]
    dilated = [[a * t**i for a in level] for i, level in enumerate(xs, start=1)]
    assert [c.tolist() for c in (x + y).components] == total
    assert [c.tolist() for c in (-x).components] == [[-a for a in level] for level in xs]
    assert [c.tolist() for c in dilate(t, x).components] == dilated

    nx, ny, nsum, ndil = map(reference_norm, (xs, ys, total, dilated))
    assert hnorm(x) == pytest.approx(nx, rel=1e-12, abs=0.0)
    tri_scale = nsum + nx + ny
    assert abs(triangle_defect(x, y) - (nsum - nx - ny)) <= 1e-12 * tri_scale
    hom_scale = ndil + abs(t) * nx
    assert abs(homogeneity_defect(x, t) - (ndil - abs(t) * nx)) <= 1e-12 * hom_scale


# ---------------------------------------------------------------------------
# power sums outside the double range
# ---------------------------------------------------------------------------

def log_domain_norm(decades):
    """The norm of levels of length 10^d, summed as log-sum-exp."""
    r = len(decades)
    logs = [2 * (r - i) * d * math.log(10.0) for i, d in enumerate(decades)]
    top = max(logs)
    return math.exp((top + math.log(math.fsum(math.exp(v - top) for v in logs))) / (2 * r))


def extreme_decades(r):
    rng = np.random.default_rng(300 + r)
    yield [200.0] * r
    yield [-200.0] * r
    yield [200.0 if i % 2 else -200.0 for i in range(r)]
    yield [-200.0 if i % 2 else 200.0 for i in range(r)]
    for _ in range(50):
        yield rng.uniform(-200.0, 200.0, size=r).tolist()


@pytest.mark.parametrize("r", [2, 5, 12])
def test_hnorm_outside_double_range_matches_log_domain(r):
    sig = GradingSignature(r)
    for decades in extreme_decades(r):
        x = GradedVector(sig, tuple(np.array([10.0**d]) for d in decades))
        got = hnorm(x)
        assert got == scalar_norm(scalar_profile(x))
        assert got == pytest.approx(log_domain_norm(decades), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "levels, expected",
    [
        ([[1e100], [1.0], [1.0]], 1e100),
        ([[1e200, 1.0], [2.0], [1e-300]], 1e200),
        ([[1e-200], [1e-200], [0.0], [0.0], [0.0]], 1e-160),
        ([[1e-200], [1e-250], [0.0], [0.0], [0.0]], 2**0.1 * 1e-200),
    ],
)
def test_hnorm_survives_overflow_and_underflow(levels, expected):
    assert hnorm(GradedVector.from_components(levels)) == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "levels",
    [[[1.5e308, 1.5e308], [1.0]], [[np.inf], [1.0]], [[1.0], [np.nan]], [[np.inf]]],
)
def test_hnorm_rejects_levels_beyond_double_range(levels):
    with pytest.raises(ValueError):
        hnorm(GradedVector.from_components(levels))
