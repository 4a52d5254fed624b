import array
import copy
import dataclasses
import hashlib
import math
import pickle
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradenorm import graded_space
from gradenorm.graded_space import (
    POWER_LOOP,
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


def test_numpy_scalar_parameter_whose_power_overflows_is_a_value_error():
    # np.float64 ** int is inf with a RuntimeWarning where float ** int
    # raises OverflowError; both must raise the Python float's ValueError
    # and warn nothing
    x = GradedVector.from_components([np.array([1.0]), np.array([1.0]), np.array([1.0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (np.float64(1e150), np.float64(-1e150), 1e150):
            with pytest.raises(ValueError, match=r"^dilation parameter -?1e\+150 overflows t\^3$"):
                dilate(t, x)
            with pytest.raises(ValueError, match=r"^dilation parameter -?1e\+150 overflows t\^3$"):
                homogeneity_defect(x, t)
        # finite powers keep the bits np.float64 gives them
        rng = np.random.default_rng(5)
        for t in np.concatenate([[1e102, -1e-110, 3.0], 10.0 ** rng.uniform(-100, 100, 200)]):
            want = [float(t**i) for i in (1, 2, 3)]
            assert [float(c[0]) for c in dilate(t, x).components] == want
            assert homogeneity_defect(x, t) == homogeneity_defect(x, float(t))


def test_homogeneity_defect_of_an_overflowing_dilation_is_a_value_error():
    # t^i is finite but a component times it is not; dilate itself does
    # not scan for that, hnorm rejects the infinite level length
    x = GradedVector.from_components([np.array([1e300]), np.array([1.0]), np.array([1.0])])
    with np.errstate(over="ignore"):
        y = dilate(1e10, x)
    assert y.components[0][0] == np.inf
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        homogeneity_defect(x, 1e10)


@pytest.mark.parametrize(
    "levels, defect",
    [
        pytest.param([[1.5e308], [1.0]], lambda x: triangle_defect(x, x), id="triangle-r2"),
        pytest.param([[1.5e308]], lambda x: triangle_defect(x, x), id="triangle-r1"),
        pytest.param([[1.0, 1.5e308], [1.0], [1.0]], lambda x: triangle_defect(x, x), id="triangle-r3"),
        pytest.param([[1e300], [1.0], [1.0]], lambda x: homogeneity_defect(x, 1e10), id="homogeneity-level1"),
        pytest.param([[1.0], [1.0], [1e300]], lambda x: homogeneity_defect(x, -1e10), id="homogeneity-level3"),
    ],
)
def test_an_overflowing_defect_raises_without_a_warning(levels, defect):
    x = GradedVector.from_components(levels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="a level length exceeds the double range"):
            defect(x)


@pytest.mark.parametrize(
    "derive",
    [
        pytest.param(lambda x: x + x, id="sum"),
        pytest.param(lambda x: dilate(2.0, x), id="dilate"),
        pytest.param(lambda x: -dilate(-1e10, x), id="negated-dilate"),
    ],
)
def test_an_overflowing_entry_is_inf_without_a_warning(derive):
    # two finite entries whose sum or product passes the double range
    x = GradedVector.from_components([[1.5e308, 1.0], [1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = derive(x)
        assert math.isinf(big.components[0][0]) and math.isinf(max(map(abs, big._values)))
        with pytest.raises(ValueError, match="a level length exceeds the double range"):
            hnorm(big)


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


def assert_read_only_views_of_one_flat_array(x):
    flat = x.components[0].base
    assert flat.dtype == np.float64 and flat.flags.owndata and not flat.flags.writeable
    assert all(c.base is flat and not c.flags.writeable for c in x.components)
    assert type(x._values) is tuple and all(type(v) is float for v in x._values)
    assert flat.tobytes() == np.array(x._values).tobytes()


def test_vector_pickle_and_deepcopy_keep_flat_read_only_storage():
    x = GradedVector.from_components([[1.0, 2.0], [3.0]])
    for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert copied.dims == (2, 1)
        assert [c.tolist() for c in copied.components] == [[1.0, 2.0], [3.0]]
        assert hnorm(copied) == hnorm(x)
        with pytest.raises(ValueError):
            copied.components[0][0] = 5.0
        assert_read_only_views_of_one_flat_array(copied)
        assert copied._levels is x._levels


def test_vectors_of_equal_dims_share_one_layout():
    sig = GradingSignature(3)
    built = [GradedVector.zero(sig, dims) for dims in [(2, 1, 3), (1, 3, 2)] * 3]
    rng = np.random.default_rng(21)
    built += [random_vector(sig, rng, dims=np.array(dims)) for dims in [(2, 1, 3), (1, 3, 2)]]
    first, second = built[0], built[1]
    assert first._levels == (slice(0, 2), slice(2, 3), slice(3, 6))
    assert second._levels == (slice(0, 1), slice(1, 4), slice(4, 6))
    for x in built:
        assert x._levels is (first if x.dims == (2, 1, 3) else second)._levels
        assert [c.size for c in x.components] == list(x.dims)
        assert all(type(d) is int for d in x.dims)
        assert_read_only_views_of_one_flat_array(x)
    for derived in (first + first, -first, dilate(2.0, first)):
        assert derived._levels is first._levels
        assert_read_only_views_of_one_flat_array(derived)


@pytest.mark.parametrize(
    "dims, message",
    [
        ((2, 0, 3), "level 2 must have dimension >= 1"),
        ((2, 1, -1), "level 3 must have dimension >= 1"),
        ((2, 1), "expected 3 components, got 2"),
    ],
)
def test_a_known_layout_does_not_skip_the_dimension_checks(dims, message):
    sig = GradingSignature(3)
    GradedVector.zero(sig, (2, 1, 3))
    random_vector(sig, np.random.default_rng(22), dims=(2, 1, 3))
    if min(dims) >= 0:
        with pytest.raises(ValueError, match=message):
            GradedVector.zero(sig, dims)
    with pytest.raises(ValueError, match=message):
        random_vector(sig, np.random.default_rng(22), dims=dims)


def test_the_layout_table_keeps_its_size():
    table = graded_space._level_slices
    for d in range(1, 10_001):
        x = GradedVector.zero(GradingSignature(2), dims=(d, 1))
        assert x.components[0].size == d
    assert table.cache_info().maxsize == 64
    assert table.cache_info().currsize == 64


def test_defects_build_no_vector(monkeypatch):
    sig = GradingSignature(4)
    rng = np.random.default_rng(23)
    x, y = random_vector(sig, rng), random_vector(sig, rng)
    expected = (triangle_defect(x, y), homogeneity_defect(x, -0.5))

    def refuse(*args):
        raise AssertionError("a vector was built")

    monkeypatch.setattr(GradedVector, "__post_init__", refuse)
    monkeypatch.setattr(GradedVector, "_wrap", staticmethod(refuse))
    assert (triangle_defect(x, y), homogeneity_defect(x, -0.5)) == expected
    with pytest.raises(AssertionError, match="a vector was built"):
        x + y


def test_vector_is_a_frozen_slotted_value():
    x = GradedVector(GradingSignature(2), ([1.0, 2.0], [3.0]))
    assert repr(x) == "GradedVector(signature=GradingSignature(r=2), components=(array([1., 2.]), array([3.])))"
    assert x == x and x != GradedVector(GradingSignature(2), ([1.0, 2.0], [3.0]))
    assert not hasattr(x, "__dict__")
    for name in ("signature", "components", "dims", "_values", "_hnorm", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(x, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(x, name)
    match x:
        case GradedVector(signature, components):
            assert signature.r == 2 and components is x.components


# ---------------------------------------------------------------------------
# the construction contract
# ---------------------------------------------------------------------------

def levels(r, make):
    return lambda: GradedVector(GradingSignature(r), make())


def from_json(r, components):
    return lambda: vector_from_json({"r": r, "components": components})


# id -> a function building a vector, through the constructor or the wire format
CONTRACT_CASES = {
    "lists-1d": levels(3, lambda: ([1.0, 2.0], [3.0, -4.0], [5.0, 6.0])),
    "lists-and-array": levels(3, lambda: ([1.0, 2.0], [3.0, -4.0], np.array([5.0, 6.0]))),
    "tuples": levels(2, lambda: ((0.5, 0.25), (-0.125,))),
    "arrays-2d": levels(2, lambda: (np.arange(6.0).reshape(2, 3), [[1, 2, 3], [4, 5, 6]])),
    "fortran-2d": levels(2, lambda: (np.asfortranarray(np.arange(6.0).reshape(2, 3)), np.ones((2, 3)))),
    "strided": levels(2, lambda: (np.arange(8.0)[::3], np.arange(8.0)[::-4])),
    "levels-0d": levels(3, lambda: (1.5, np.float64(-2.0), np.array(3.0))),
    "ragged": levels(3, lambda: ([1.0, 2.0], [3.0], [[4.0], [5.0]])),
    "ragged-0d": levels(2, lambda: (1.0, [2.0, 3.0])),
    "ragged-nested": levels(1, lambda: ([[1.0, 2.0], [3.0]],)),
    "ints": levels(2, lambda: ([1, 2], [3, -4])),
    "ints-and-floats": levels(2, lambda: ([1, 2.5], [3, 2**60 + 1])),
    "ints-past-2^53": levels(1, lambda: ([2**53 + 1, 2**53 + 3, -(2**53) - 1],)),
    "ints-near-2^63": levels(2, lambda: ([2**63 - 1, -(2**63)], [2**63 + 1, -(2**63) - 1])),
    "ints-near-2^64": levels(2, lambda: ([2**64 - 1, 2**64], [2**64 + 1, 2**65 + 1])),
    "int-10**400": levels(1, lambda: ([10**400],)),
    "int-minus-10**400": levels(2, lambda: ([1.0], [2, -(10**400)])),
    "float16": levels(2, lambda: (np.array([0.1, -0.2], np.float16), [1.0])),
    "float32": levels(2, lambda: (np.array([0.1, -0.2], np.float32), np.array([0.3], np.float32))),
    "longdouble": levels(1, lambda: (np.array([0.1, 1e300], np.longdouble),)),
    "big-endian": levels(2, lambda: (np.array([1.5, -2.25], ">f8"), np.array([3.0], ">f4"))),
    "int64-array": levels(2, lambda: (np.array([2**62 + 1, -3]), np.arange(2))),
    "uint64-array": levels(1, lambda: (np.array([2**64 - 1, 2**53 + 1], np.uint64),)),
    "bool-array": levels(1, lambda: (np.array([True, False]),)),
    "object-array": levels(2, lambda: (np.array([1.5, 2, Fraction(1, 3)], dtype=object), [1.0])),
    "datetime64": levels(1, lambda: (np.array(["2020-01-01"], dtype="datetime64[D]"),)),
    "complex-array": levels(1, lambda: (np.array([1.0 + 0j, 2.0 + 0j]),)),
    "complex": levels(1, lambda: ([1 + 2j],)),
    "numpy-scalars": levels(2, lambda: ([np.float64(1.5), np.float32(0.1)], [np.int64(3)])),
    "strings-that-parse": levels(2, lambda: (["1.5", "-2"], ["1e-3", " 4 "])),
    "string-that-does-not": levels(2, lambda: ([1.0, 2.0], ["x", "abc"])),
    "string-components": levels(2, lambda: "12"),
    "bytes": levels(1, lambda: ([b"1.5"],)),
    "bools": levels(2, lambda: ([True, False], [1.0])),
    "none": levels(2, lambda: ([None], [1.0])),
    "dict": levels(2, lambda: ([1.0], [{}])),
    "set": levels(1, lambda: ({1.0},)),
    "decimal": levels(1, lambda: ([Decimal("0.1"), Decimal("1e400")],)),
    "fraction": levels(1, lambda: ([Fraction(1, 3), Fraction(-2, 7)],)),
    "array-module": levels(1, lambda: (array.array("d", [1.5, -0.5]),)),
    "generator-of-levels": levels(3, lambda: (np.full(2, i + 0.5) for i in range(3))),
    "generator-level": levels(2, lambda: ([1.0], (v for v in [2.0, 3.0]))),
    "bare-float": levels(2, lambda: 5.0),
    "special-values": levels(2, lambda: ([float("nan"), float("inf")], [-float("inf"), -0.0, 5e-324])),
    "too-few": levels(3, lambda: ([1.0], [2.0])),
    "too-many": levels(3, lambda: (np.ones(2) for _ in range(4))),
    "no-levels": levels(1, lambda: ()),
    "empty-level": levels(2, lambda: ([1.0], [])),
    "all-empty": levels(2, lambda: ([], [])),
    "empty-nested-level": levels(2, lambda: ([1.0], [[]])),
    "json-floats": from_json(2, [[0.1, -2.5e-300], [1e308]]),
    "json-ints-near-2^53": from_json(1, [[2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3]]),
    "json-ints-near-2^63": from_json(2, [[2**63 - 1, 2**63], [2**63 + 1, -(2**63) - 1]]),
    "json-ints-near-2^64": from_json(2, [[2**64 - 1, 2**64], [2**64 + 1, -(2**64) - 1]]),
    "json-ints-and-floats": from_json(2, [[1, 2.5], [-3, 2**60 + 1]]),
}


def observe(build):
    """What building a vector gives: (dims, entry bytes, repr) or (error
    type, error text), then the warnings it shows; and the vector."""
    x = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            x = build()
        except Exception as exc:
            outcome = (type(exc).__name__, str(exc))
        else:
            entries = b"".join(c.tobytes() for c in x.components)
            outcome = (x.dims, entries.hex(), repr(x))
    return (*outcome, [(w.category.__name__, str(w.message)) for w in caught]), x


# id -> what building it gave before the float-tuple storage: (dims, the
# entries' float64 bytes in hex, repr) or (error type, error text), then
# the warnings shown
CONTRACT = {
    'lists-1d': (
        (2, 2, 2),
        '000000000000f03f0000000000000040000000000000084000000000000010c000000000000014400000000000001840',
        'GradedVector(signature=GradingSignature(r=3), components=(array([1., 2.]), array([ 3., -4.]), array([5., 6.])))',
        [],
    ),
    'lists-and-array': (
        (2, 2, 2),
        '000000000000f03f0000000000000040000000000000084000000000000010c000000000000014400000000000001840',
        'GradedVector(signature=GradingSignature(r=3), components=(array([1., 2.]), array([ 3., -4.]), array([5., 6.])))',
        [],
    ),
    'tuples': (
        (2, 1),
        '000000000000e03f000000000000d03f000000000000c0bf',
        'GradedVector(signature=GradingSignature(r=2), components=(array([0.5 , 0.25]), array([-0.125])))',
        [],
    ),
    'arrays-2d': (
        (6, 6),
        '0000000000000000000000000000f03f0000000000000040000000000000084000000000000010400000000000001440000000000000f03f00000000000000400000000000000840000000000000104000000000000014400000000000001840',
        'GradedVector(signature=GradingSignature(r=2), components=(array([0., 1., 2., 3., 4., 5.]), array([1., 2., 3., 4., 5., 6.])))',
        [],
    ),
    'fortran-2d': (
        (6, 6),
        '0000000000000000000000000000f03f0000000000000040000000000000084000000000000010400000000000001440000000000000f03f000000000000f03f000000000000f03f000000000000f03f000000000000f03f000000000000f03f',
        'GradedVector(signature=GradingSignature(r=2), components=(array([0., 1., 2., 3., 4., 5.]), array([1., 1., 1., 1., 1., 1.])))',
        [],
    ),
    'strided': (
        (3, 2),
        '0000000000000000000000000000084000000000000018400000000000001c400000000000000840',
        'GradedVector(signature=GradingSignature(r=2), components=(array([0., 3., 6.]), array([7., 3.])))',
        [],
    ),
    'levels-0d': (
        (1, 1, 1),
        '000000000000f83f00000000000000c00000000000000840',
        'GradedVector(signature=GradingSignature(r=3), components=(array([1.5]), array([-2.]), array([3.])))',
        [],
    ),
    'ragged': (
        (2, 1, 2),
        '000000000000f03f0000000000000040000000000000084000000000000010400000000000001440',
        'GradedVector(signature=GradingSignature(r=3), components=(array([1., 2.]), array([3.]), array([4., 5.])))',
        [],
    ),
    'ragged-0d': (
        (1, 2),
        '000000000000f03f00000000000000400000000000000840',
        'GradedVector(signature=GradingSignature(r=2), components=(array([1.]), array([2., 3.])))',
        [],
    ),
    'ragged-nested': (
        'ValueError',
        'setting an array element with a sequence. The requested array has an inhomogeneous shape after 1 dimensions. The detected shape was (2,) + inhomogeneous part.',
        [],
    ),
    'ints': (
        (2, 2),
        '000000000000f03f0000000000000040000000000000084000000000000010c0',
        'GradedVector(signature=GradingSignature(r=2), components=(array([1., 2.]), array([ 3., -4.])))',
        [],
    ),
    'ints-and-floats': (
        (2, 2),
        '000000000000f03f00000000000004400000000000000840000000000000b043',
        'GradedVector(signature=GradingSignature(r=2), components=(array([1. , 2.5]), array([3.0000000e+00, 1.1529215e+18])))',
        [],
    ),
    'ints-past-2^53': (
        (3,),
        '0000000000004043020000000000404300000000000040c3',
        'GradedVector(signature=GradingSignature(r=1), components=(array([ 9.00719925e+15,  9.00719925e+15, -9.00719925e+15]),))',
        [],
    ),
    'ints-near-2^63': (
        (2, 2),
        '000000000000e043000000000000e0c3000000000000e043000000000000e0c3',
        'GradedVector(signature=GradingSignature(r=2), components=(array([ 9.22337204e+18, -9.22337204e+18]), array([ 9.22337204e+18, -9.22337204e+18])))',
        [],
    ),
    'ints-near-2^64': (
        (2, 2),
        '000000000000f043000000000000f043000000000000f0430000000000000044',
        'GradedVector(signature=GradingSignature(r=2), components=(array([1.84467441e+19, 1.84467441e+19]), array([1.84467441e+19, 3.68934881e+19])))',
        [],
    ),
    'int-10**400': (
        'OverflowError',
        'int too large to convert to float',
        [],
    ),
    'int-minus-10**400': (
        'OverflowError',
        'int too large to convert to float',
        [],
    ),
    'float16': (
        (2, 1),
        '000000000098b93f000000000098c9bf000000000000f03f',
        'GradedVector(signature=GradingSignature(r=2), components=(array([ 0.09997559, -0.19995117]), array([1.])))',
        [],
    ),
    'float32': (
        (2, 1),
        '000000a09999b93f000000a09999c9bf000000403333d33f',
        'GradedVector(signature=GradingSignature(r=2), components=(array([ 0.1, -0.2]), array([0.30000001])))',
        [],
    ),
    'longdouble': (
        (2,),
        '9a9999999999b93f9c7500883ce4377e',
        'GradedVector(signature=GradingSignature(r=1), components=(array([1.e-001, 1.e+300]),))',
        [],
    ),
    'big-endian': (
        (2, 1),
        '000000000000f83f00000000000002c00000000000000840',
        'GradedVector(signature=GradingSignature(r=2), components=(array([ 1.5 , -2.25]), array([3.])))',
        [],
    ),
    'int64-array': (
        (2, 2),
        '000000000000d04300000000000008c00000000000000000000000000000f03f',
        'GradedVector(signature=GradingSignature(r=2), components=(array([ 4.61168602e+18, -3.00000000e+00]), array([0., 1.])))',
        [],
    ),
    'uint64-array': (
        (2,),
        '000000000000f0430000000000004043',
        'GradedVector(signature=GradingSignature(r=1), components=(array([1.84467441e+19, 9.00719925e+15]),))',
        [],
    ),
    'bool-array': (
        (2,),
        '000000000000f03f0000000000000000',
        'GradedVector(signature=GradingSignature(r=1), components=(array([1., 0.]),))',
        [],
    ),
    'object-array': (
        (3, 1),
        '000000000000f83f0000000000000040555555555555d53f000000000000f03f',
        'GradedVector(signature=GradingSignature(r=2), components=(array([1.5       , 2.        , 0.33333333]), array([1.])))',
        [],
    ),
    'datetime64': (
        (1,),
        '0000000080d5d140',
        'GradedVector(signature=GradingSignature(r=1), components=(array([18262.]),))',
        [],
    ),
    'complex-array': (
        (2,),
        '000000000000f03f0000000000000040',
        'GradedVector(signature=GradingSignature(r=1), components=(array([1., 2.]),))',
        [('ComplexWarning', 'Casting complex values to real discards the imaginary part')],
    ),
    'complex': (
        'TypeError',
        "float() argument must be a string or a real number, not 'complex'",
        [],
    ),
    'numpy-scalars': (
        (2, 1),
        '000000000000f83f000000a09999b93f0000000000000840',
        'GradedVector(signature=GradingSignature(r=2), components=(array([1.5, 0.1]), array([3.])))',
        [],
    ),
    'strings-that-parse': (
        (2, 2),
        '000000000000f83f00000000000000c0fca9f1d24d62503f0000000000001040',
        'GradedVector(signature=GradingSignature(r=2), components=(array([ 1.5, -2. ]), array([1.e-03, 4.e+00])))',
        [],
    ),
    'string-that-does-not': (
        'ValueError',
        "could not convert string to float: 'x'",
        [],
    ),
    'string-components': (
        (1, 1),
        '000000000000f03f0000000000000040',
        'GradedVector(signature=GradingSignature(r=2), components=(array([1.]), array([2.])))',
        [],
    ),
    'bytes': (
        (1,),
        '000000000000f83f',
        'GradedVector(signature=GradingSignature(r=1), components=(array([1.5]),))',
        [],
    ),
    'bools': (
        (2, 1),
        '000000000000f03f0000000000000000000000000000f03f',
        'GradedVector(signature=GradingSignature(r=2), components=(array([1., 0.]), array([1.])))',
        [],
    ),
    'none': (
        (1, 1),
        '000000000000f87f000000000000f03f',
        'GradedVector(signature=GradingSignature(r=2), components=(array([nan]), array([1.])))',
        [],
    ),
    'dict': (
        'TypeError',
        "float() argument must be a string or a real number, not 'dict'",
        [],
    ),
    'set': (
        'TypeError',
        "float() argument must be a string or a real number, not 'set'",
        [],
    ),
    'decimal': (
        (2,),
        '9a9999999999b93f000000000000f07f',
        'GradedVector(signature=GradingSignature(r=1), components=(array([0.1, inf]),))',
        [],
    ),
    'fraction': (
        (2,),
        '555555555555d53f922449922449d2bf',
        'GradedVector(signature=GradingSignature(r=1), components=(array([ 0.33333333, -0.28571429]),))',
        [],
    ),
    'array-module': (
        (2,),
        '000000000000f83f000000000000e0bf',
        'GradedVector(signature=GradingSignature(r=1), components=(array([ 1.5, -0.5]),))',
        [],
    ),
    'generator-of-levels': (
        (2, 2, 2),
        '000000000000e03f000000000000e03f000000000000f83f000000000000f83f00000000000004400000000000000440',
        'GradedVector(signature=GradingSignature(r=3), components=(array([0.5, 0.5]), array([1.5, 1.5]), array([2.5, 2.5])))',
        [],
    ),
    'generator-level': (
        'TypeError',
        "float() argument must be a string or a real number, not 'generator'",
        [],
    ),
    'bare-float': (
        'TypeError',
        "'float' object is not iterable",
        [],
    ),
    'special-values': (
        (2, 3),
        '000000000000f87f000000000000f07f000000000000f0ff00000000000000800100000000000000',
        'GradedVector(signature=GradingSignature(r=2), components=(array([nan, inf]), array([    -inf, -0.e+000,  5.e-324])))',
        [],
    ),
    'too-few': (
        'ValueError',
        'expected 3 components, got 2',
        [],
    ),
    'too-many': (
        'ValueError',
        'expected 3 components, got 4',
        [],
    ),
    'no-levels': (
        'ValueError',
        'expected 1 components, got 0',
        [],
    ),
    'empty-level': (
        'ValueError',
        'level 2 must have dimension >= 1',
        [],
    ),
    'all-empty': (
        'ValueError',
        'level 1 must have dimension >= 1',
        [],
    ),
    'empty-nested-level': (
        'ValueError',
        'level 2 must have dimension >= 1',
        [],
    ),
    'json-floats': (
        (2, 1),
        '9a9999999999b93f2f30b7b3a7c9ba81a0c8eb85f3cce17f',
        'GradedVector(signature=GradingSignature(r=2), components=(array([ 1.0e-001, -2.5e-300]), array([1.e+308])))',
        [],
    ),
    'json-ints-near-2^53': (
        (4,),
        'ffffffffffff3f43000000000000404300000000000040430200000000004043',
        'GradedVector(signature=GradingSignature(r=1), components=(array([9.00719925e+15, 9.00719925e+15, 9.00719925e+15, 9.00719925e+15]),))',
        [],
    ),
    'json-ints-near-2^63': (
        (2, 2),
        '000000000000e043000000000000e043000000000000e043000000000000e0c3',
        'GradedVector(signature=GradingSignature(r=2), components=(array([9.22337204e+18, 9.22337204e+18]), array([ 9.22337204e+18, -9.22337204e+18])))',
        [],
    ),
    'json-ints-near-2^64': (
        (2, 2),
        '000000000000f043000000000000f043000000000000f043000000000000f0c3',
        'GradedVector(signature=GradingSignature(r=2), components=(array([1.84467441e+19, 1.84467441e+19]), array([ 1.84467441e+19, -1.84467441e+19])))',
        [],
    ),
    'json-ints-and-floats': (
        (2, 2),
        '000000000000f03f000000000000044000000000000008c0000000000000b043',
        'GradedVector(signature=GradingSignature(r=2), components=(array([1. , 2.5]), array([-3.0000000e+00,  1.1529215e+18])))',
        [],
    ),
}


@pytest.mark.parametrize("case", CONTRACT_CASES)
def test_construction_keeps_its_contract(case):
    seen, x = observe(CONTRACT_CASES[case])
    assert seen == CONTRACT[case]
    if x is not None:
        assert_read_only_views_of_one_flat_array(x)
        assert x._levels is graded_space._level_slices(x.dims)


def test_derived_vectors_make_their_level_views_on_first_read():
    x = GradedVector(GradingSignature(3), ([1.0], [2.0, 3.0], [4.0]))
    for derived in (x + x, -x, dilate(2.0, x), random_vector(GradingSignature(3), np.random.default_rng(3))):
        with pytest.raises(AttributeError):
            derived._components
        assert derived.components is derived.components
        assert_read_only_views_of_one_flat_array(derived)


def count_norms(monkeypatch):
    calls = []
    norm = graded_space._norm

    def counted(mags, exponents):
        calls.append(len(mags))
        return norm(mags, exponents)

    monkeypatch.setattr(graded_space, "_norm", counted)
    return calls


def test_a_vector_keeps_its_norm_once_computed(monkeypatch):
    rng = np.random.default_rng(24)
    sig = GradingSignature(5)
    x, y = random_vector(sig, rng), random_vector(sig, rng)
    calls = count_norms(monkeypatch)
    first = hnorm(x)
    assert hnorm(x) == first and len(calls) == 1
    triangle_defect(x, y)
    assert len(calls) == 3  # x + y and y; x's norm is kept
    triangle_defect(x, y)
    assert len(calls) == 4  # x + y alone
    homogeneity_defect(x, 2.0)
    assert len(calls) == 5  # the dilated norm alone
    z = x + y
    assert z._hnorm is None and hnorm(z) == hnorm(GradedVector(sig, z.components)) and len(calls) == 7


def test_a_norm_that_raises_is_not_kept(monkeypatch):
    x = GradedVector.from_components([[1.5e308, 1.5e308], [1.0]])
    calls = count_norms(monkeypatch)
    for attempt in range(1, 4):
        with pytest.raises(ValueError, match="a level length exceeds the double range"):
            hnorm(x)
        assert x._hnorm is None and len(calls) == attempt
    with pytest.raises(ValueError, match="a level length exceeds the double range"):
        triangle_defect(x, GradedVector.zero(x.signature, x.dims))


def uncached_norm(x):
    return scalar_norm(scalar_profile(x))


@pytest.mark.parametrize("r", range(1, 13))
def test_cached_defects_keep_the_bits_of_the_uncached_formula(r):
    rng = np.random.default_rng(2400 + r)
    sig = GradingSignature(r)
    for k in range(40):
        dims = (3,) * r if k % 2 else tuple(rng.integers(1, 5, size=r).tolist())
        decades = (-3.0, 3.0) if k % 4 < 2 else (-60.0, 60.0)
        x = random_vector(sig, rng, dims=dims, magnitude_decades=decades)
        y = random_vector(sig, rng, dims=dims, magnitude_decades=decades)
        t = (-1.0) ** k * 10.0 ** rng.uniform(-1.0, 1.0)
        triangle = hnorm(x + y) - uncached_norm(x) - uncached_norm(y)
        homogeneity = hnorm(dilate(t, x)) - abs(t) * uncached_norm(x)
        if k % 3 == 0:
            hnorm(x), hnorm(y)  # defects of vectors whose norms are kept
        assert triangle_defect(x, y).hex() == triangle.hex()
        assert homogeneity_defect(x, t).hex() == homogeneity.hex()
        assert triangle_defect(x, y).hex() == triangle.hex()


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


# ---------------------------------------------------------------------------
# bit pins of the per-object norm and defects
# ---------------------------------------------------------------------------

# r -> one (hnorm, triangle_defect, homogeneity_defect) float.hex triple per
# case of pinned_cases(r), then the sha256 of every case's dilate(t, x)
# values in order
PINNED_BITS = {
    1: (
        ("0x1.8e949fc4c020ep-9", "-0x1.d2060532ff5a2p-364", "0x0.0p+0"),
        ("0x1.c08f281cbc2e9p-68", "-0x1.0c451bf3383cbp-415", "0x0.0p+0"),
        ("0x1.b426f12a01f77p+394", "-0x1.66f169f1062a9p-398", "0x0.0p+0"),
        ("0x1.c9b499b1b587dp+104", "-0x1.640ee7fdbe894p-167", "0x0.0p+0"),
        ("0x1.0b0cbed0ccd0bp+4", "-0x1.a000000000000p-51", "0x0.0p+0"),
        ("0x1.a307450090fb3p+1", "-0x1.89a851a85c136p-4", "0x0.0p+0"),
        "a402e315024ed6d7530bbbae19c7700b26020949340b035db8492aea84426a0c",
    ),
    2: (
        ("0x1.12753984695c4p+340", "-0x1.432c1f35eb21ep+235", "0x0.0p+0"),
        ("0x1.1093163e10e85p+23", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.4c6cdce5574acp-85", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.1e4eb8370d3e9p-175", "0x0.0p+0", "0x0.0p+0"),
        ("0x1.1b2db50eccbeap+2", "-0x1.1e7ec8ad2782cp-1", "0x0.0p+0"),
        ("0x1.4e6818afcb9fcp+2", "-0x1.d7cf707528c40p-2", "0x0.0p+0"),
        "802a25da0aca9799f5004e37f1e92a82b1e20f619253cbc67672c10f96b67dcc",
    ),
    3: (
        ("0x1.1a4e072547610p+96", "0x0.0p+0", "0x1.0000000000000p+41"),
        ("0x1.8cdd0feca1fc8p+447", "-0x1.4ec44c2d69d47p-96", "0x0.0p+0"),
        ("0x1.be6a0ad33e444p+281", "-0x1.be6a000000000p+281", "0x1.0c290f64d7d90p+278"),
        ("0x1.a53c4caabb019p+146", "0x0.0p+0", "-0x1.0000000000000p+97"),
        ("0x1.b3d92703eac8cp-1", "-0x1.9313c93cc00a5p-1", "-0x1.1ef8caa91a700p-11"),
        ("0x1.d3d5c37fc20adp+3", "-0x1.5257ad7285000p+0", "-0x1.a72ea9f20e3c9p-1"),
        "856d36d69651305e59bec7ebcc70e16896fdcda0c8ac4dfb0d3a1e6fe08d475c",
    ),
    5: (
        ("0x1.370ea640f5d92p+341", "-0x1.48081501d52ecp+197", "-0x1.a966fc6d8c7fep+338"),
        ("0x1.0fb082bad2e27p+341", "-0x1.fbeb6d8fa3afbp+16", "0x0.0p+0"),
        ("0x1.1a62059acd21ep+378", "-0x1.5c898f79f7df4p+214", "0x1.281fa884bc400p+375"),
        ("0x1.f216942e79cedp+34", "0x0.0p+0", "0x1.0000000000000p-15"),
        ("0x1.464b5aabd1e95p+2", "-0x1.8907acf92b6fcp+0", "-0x1.9fa659d34e760p-2"),
        ("0x1.e45cdb7ed1465p+1", "-0x1.c2ab434ef35a7p+1", "-0x1.0ff8f7bb73d35p-2"),
        "4254c83fd09fe26b5bdf24dc77f04cf091ed420831c0cf452f7d41e6aca21916",
    ),
    12: (
        ("0x1.2f4678ab4cf9cp+424", "-0x1.0dc7c1647c48bp+377", "-0x1.bc035ecbbb35ep+420"),
        ("0x1.725427f9a52bcp+366", "-0x1.61a8c9ee8d9edp+239", "-0x1.de214c6eac518p+364"),
        ("0x1.f5ba03abc30c7p+80", "0x0.0p+0", "-0x1.2ea2d25d166fdp+79"),
        ("0x1.0d9951ab89dc9p+161", "-0x1.0d9951ac00000p+161", "0x1.bbd6a360c36bfp+165"),
        ("0x1.2f86a73d25a8cp+5", "-0x1.af87b45146c71p+3", "0x1.0000000000000p-50"),
        ("0x1.7e3729a8ddb64p+1", "-0x1.446c449edb8a8p+1", "-0x1.4a26d1cc9f827p-2"),
        "5262bc3ad2b68f0f8042a42acb72647f16f0258bdfc0e704a5f12586f9985b1e",
    ),
    24: (
        ("0x1.4ea1dfad53626p+379", "0x0.0p+0", "-0x1.7aa439960cd00p+376"),
        ("0x1.093a91d7686b6p+251", "0x0.0p+0", "-0x1.25ee54145bb26p+249"),
        ("0x1.f30bdd51f5418p+296", "0x0.0p+0", "-0x1.563b474d2350cp+295"),
        ("0x1.8d41a6ee28a2cp+309", "0x0.0p+0", "0x1.14ba7d2901281p+322"),
        ("0x1.5e3f2fafa8a25p+5", "-0x1.2b3ca601b159cp+3", "-0x1.6e4c000000000p-31"),
        ("0x1.6d0a7b3272b5bp+4", "-0x1.6d5346783302dp+4", "-0x1.51a886307af90p+1"),
        "4735a59cda5e707232b57dd61bc257e50696e014c3cd96c1556e8debc7ccbbb9",
    ),
}


# the rescaled norms of the large cases go through np.power, so the bits
# follow numpy's float64 power loop; under the baseline loop (recorded with
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR") two r = 12
# cases round the other way
PINNED_BITS_BY_LOOP = {
    "X86_V4": PINNED_BITS,
    "baseline(X86_V2)": {
        **PINNED_BITS,
        12: (
            *PINNED_BITS[12][:2],
            ("0x1.f5ba03abc30c8p+80", "0x0.0p+0", "-0x1.2ea2d25d166ffp+79"),
            ("0x1.0d9951ab89dc9p+161", "-0x1.0d9951ac00000p+161", "0x1.bbd6a360c36c0p+165"),
            *PINNED_BITS[12][4:],
        ),
    },
}


def pinned_cases(r):
    """Mixed dims; four cases with level magnitudes 10^U(-150, 150), which
    send most norms through the rescaled path, then two with 10^U(-1.5, 1.5).
    t alternates in sign, and |t| < 1 in the first two of each four."""
    rng = np.random.default_rng(2100 + r)
    sig = GradingSignature(r)
    for k in range(6):
        dims = tuple(rng.integers(1, 5, size=r).tolist())
        decades = (-150.0, 150.0) if k < 4 else (-1.5, 1.5)
        x = random_vector(sig, rng, dims=dims, magnitude_decades=decades)
        y = random_vector(sig, rng, dims=dims, magnitude_decades=decades)
        t = (-1.0) ** k * 10.0 ** rng.uniform(-1.0, 0.0 if k % 4 < 2 else 1.0)
        yield x, y, t


@pytest.mark.parametrize("r", sorted(PINNED_BITS))
def test_norm_and_defects_keep_their_bits(r):
    if POWER_LOOP not in PINNED_BITS_BY_LOOP:
        pytest.skip(f"no bit pins for numpy's float64 power loop {POWER_LOOP!r}")
    *rows, dilated_sha256 = PINNED_BITS_BY_LOOP[POWER_LOOP][r]
    got, digest = [], hashlib.sha256()
    for x, y, t in pinned_cases(r):
        got.append((hnorm(x).hex(), triangle_defect(x, y).hex(), homogeneity_defect(x, t).hex()))
        digest.update(np.concatenate(dilate(t, x).components).tobytes())
    assert got == rows
    assert digest.hexdigest() == dilated_sha256
