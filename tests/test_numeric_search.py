import decimal
import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from gradenorm import numeric_search
from gradenorm.certificate import CertificateLine
from gradenorm.graded_space import POWER_LOOP, GradingSignature, ScalarProfile, scalar_defect
from gradenorm.numeric_search import (
    SearchConfig,
    hunt,
    line_defect,
)

SMALL = dict(sample_count=20_000, grid_resolution=3, ascent_steps=60)


def profile(r, values):
    return ScalarProfile(GradingSignature(r), np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# scalar_defect
# ---------------------------------------------------------------------------

def test_scalar_defect_zero_partner_is_exactly_zero():
    a = profile(5, [1.0, 2.0, 0.5, 3.0, 0.1])
    b = profile(5, np.zeros(5))
    assert scalar_defect(a, b) == 0.0


def test_scalar_defect_r5_all_ones():
    a = profile(5, np.ones(5))
    expected = 1364.0**0.1 - 2 * 5.0**0.1  # (1024+256+64+16+4)^(1/10) - 2*5^(1/10)
    value = scalar_defect(a, a)
    assert value == pytest.approx(expected, rel=1e-13)
    assert value < 0


def test_scalar_defect_r1_vanishes_to_machine_epsilon():
    # exact zero in real arithmetic; in floats only the rounding of the
    # profile sum a+b survives, bounded by a couple of ulps of the sum
    rng = np.random.default_rng(31)
    for _ in range(1000):
        av = float(rng.uniform(1e-3, 1e3))
        bv = float(rng.uniform(1e-3, 1e3))
        d = scalar_defect(profile(1, [av]), profile(1, [bv]))
        assert abs(d) <= 5e-16 * (av + bv)


def test_scalar_defect_r1_exact_zero_when_sum_is_representable():
    a, b = profile(1, [1.5]), profile(1, [2.25])
    assert scalar_defect(a, b) == 0.0


def test_scalar_defect_signature_mismatch():
    with pytest.raises(ValueError):
        scalar_defect(profile(2, [1, 1]), profile(3, [1, 1, 1]))


def test_scalar_defect_is_finite_where_the_batch_kernel_overflows():
    # 1e3 ** 120 overflows a double; the per-object norm rescales instead
    a, b = profile(60, np.full(60, 1e3)), profile(60, np.full(60, 5e2))
    with decimal.localcontext(decimal.Context(prec=50)):
        def norm(m):
            total = sum(decimal.Decimal(m) ** e for e in a.signature.exponents)
            return total ** (decimal.Decimal(1) / 120)

        want = float(norm(1500) - norm(1000) - norm(500))
    assert want == pytest.approx(-1.944e-5, rel=1e-3)
    assert scalar_defect(a, b) == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# hunt
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(r=0)
    with pytest.raises(ValueError):
        SearchConfig(r=2, sample_count=0)
    with pytest.raises(ValueError):
        SearchConfig(r=2, tolerance=0.0)
    with pytest.raises(ValueError, match="rng_seed"):
        SearchConfig(r=2, rng_seed=-1)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-12])
def test_config_rejects_a_tolerance_that_switches_off_the_verdict(tolerance):
    # rel > nan and rel > inf are never true, so the hunt could not
    # report a violation at all
    with pytest.raises(ValueError, match="tolerance"):
        SearchConfig(3, 2000, tolerance=tolerance)


@pytest.mark.parametrize(
    "field, value",
    [
        ("sample_count", 2.5),
        ("ascent_steps", 2.5),
        ("grid_resolution", 2.0),
        ("rng_seed", 1.5),
        ("sample_count", True),
        ("rng_seed", False),
    ],
)
def test_config_rejects_non_integer_counts_and_seed(field, value):
    with pytest.raises(ValueError, match=field):
        SearchConfig(3, **{"sample_count": 2000, field: value})


@pytest.mark.parametrize("r", [2, 3, 5])
def test_hunt_finds_no_violation_for_proved_lengths(r):
    out = hunt(SearchConfig(r=r, rng_seed=42, **SMALL))
    assert not out.violation_found
    assert out.max_relative_defect <= 1e-12
    assert out.samples_evaluated >= SMALL["sample_count"]


@pytest.mark.parametrize("r", [47, 52, 60])
def test_hunt_defect_is_finite_where_power_sums_overflow(r):
    # from r = 47 on, 1e3 ** 2r leaves the double range; the kernel
    # rescales those rows, and nothing may warn (RuntimeWarning is an
    # error in this suite)
    out = hunt(SearchConfig(r, 20000))
    assert np.isfinite(out.max_defect)
    assert out.max_relative_defect <= 1e-12
    assert not out.violation_found


@pytest.mark.parametrize("r", [47, 52])
def test_hunt_raises_when_the_float_kernel_overflows(r, monkeypatch):
    # a kernel whose every row is NaN, as the unscaled one's were at
    # r = 52, leaves no finite defect; that is an error, not a violation.
    # The lattice passes its zero entries as ``zeros`` under X86_V4
    def nan_norms(exponents, *blocks, zeros=None):
        return np.full((len(blocks), blocks[0].shape[0]), np.nan)

    monkeypatch.setattr(numeric_search, "_batch_norms", nan_norms)
    with pytest.raises(ValueError, match=f"at r={r} found no finite defect"):
        hunt(SearchConfig(r, 20000))


def test_hunt_is_deterministic():
    cfg = SearchConfig(r=4, rng_seed=7, **SMALL)
    a, b = hunt(cfg), hunt(cfg)
    assert a.max_defect == b.max_defect
    assert a.max_relative_defect == b.max_relative_defect
    assert a.samples_evaluated == b.samples_evaluated
    assert np.array_equal(a.argmax[0].magnitudes, b.argmax[0].magnitudes)
    assert np.array_equal(a.argmax[1].magnitudes, b.argmax[1].magnitudes)


def test_hunt_thread_count_does_not_change_results():
    cfg = SearchConfig(r=3, rng_seed=11, sample_count=450_000, grid_resolution=2, ascent_steps=30)
    seq = hunt(cfg, threads=1)
    par = hunt(cfg, threads=4)
    assert seq.max_relative_defect == par.max_relative_defect
    assert np.array_equal(seq.argmax[0].magnitudes, par.argmax[0].magnitudes)
    assert outcome_key(seq) == outcome_key(par)


def outcome_key(out):
    """Every field of a hunt outcome, floats as hex, both profiles as one digest."""
    a, b = (p.magnitudes for p in out.argmax)
    digest = hashlib.sha256(a.tobytes() + b.tobytes()).hexdigest()
    return (
        out.max_defect.hex(),
        out.max_relative_defect.hex(),
        digest,
        out.samples_evaluated,
        out.violation_found,
    )


# (r, sample_count, rng_seed, max_defect, max_relative_defect,
#  sha256(argmax a bytes + argmax b bytes), samples_evaluated,
#  violation_found); every other SearchConfig field is the default.
# Recorded from the library, with each random stream on a generator of
# its own (the lattice's levels and scales, a and b of each sweep chunk),
# under no NPY_DISABLE_CPU_FEATURES. Cross-checked with a reference hunt
# that draws every stream whole from its spawned child, levels as
# rng.integers(0, resolution, (rows, 2r)) and magnitudes as
# np.exp(rng.uniform(lo, hi, (rows, width))), and scores each stage in one
# kernel call: it gave the same 28 outcomes.
#
# The literals are the bits of numpy 2.4.6 dispatching its float64 power
# and exp loops to x86-64-v4 (AVX-512 F/CD/BW/DQ/VL), which POWER_LOOP
# names "X86_V4"; numpy picks X86_V4 for both or for neither
# (test_kernel_bits). BASELINE_PINNED_HUNTS below holds the same hunts
# under the baseline loops. A pin that fails points first at the numpy
# version, which the CI workflow prints before the suite.
PINNED_HUNTS = [
    (1, 20000, 0, '0x1.0000000000000p-45', '0x1.e5c0df72e034cp-53', '6d55f0a6e2317158416f47aadd4fd1333367b0360d0713709e89154fc6e1bc1b', 21247, False),
    (1, 20000, 7, '0x1.0000000000000p-44', '0x1.f6c917e238054p-53', '9ec38a218489d648bb3f10ac779dac9595337848783c4c3f30a19498139087dd', 21610, False),
    (1, 20000, 42, '0x1.0000000000000p-43', '0x1.de0da54cfdb61p-53', 'e46075aeef2ba1900bf46742bb94d6068e617582eaedcc4cfaee78c4ac659cba', 21610, False),
    (2, 20000, 0, '0x1.0000000000000p-53', '0x1.fffff422c4dd6p-54', '5bc0adb7b7948d394339b40a6ae356b209c48fcbb229743987470c549df50337', 21635, False),
    (2, 20000, 7, '0x1.0000000000000p-43', '0x1.81a044dae00bcp-54', '1dd61af4a890e1e1f485224d6f85f60f1570facdeb344c1e3077b2adabe43666', 20635, False),
    (2, 20000, 42, '0x1.0000000000000p-44', '0x1.1dbb018d7d5c0p-54', '92702779723ebcdf5fac05751496643bb3f29eb96af3115d2773a85d9b18caa5', 21811, False),
    (3, 20000, 0, '0x1.0000000000000p-45', '0x1.2d6b9f9b70020p-53', '0b70869666330b6c9d99807d7b944ffe1000d9b2af76a0f7022bd08b490d2390', 24930, False),
    (3, 20000, 7, '0x1.0000000000000p-42', '0x1.86df7744f5272p-53', '15df302ef3b1c89a8aa781d6400da7623a4639cbeba8056395192e82fff7c459', 23163, False),
    (3, 20000, 42, '0x1.0000000000000p-47', '0x1.b4664ea0f25b5p-53', '4161c543ddcfaf0c319137014379275dd010fc85257d4225e74a1541792ed616', 22838, False),
    (5, 20000, 0, '0x1.8000000000000p-44', '0x1.5bc4163c064bcp-52', '5a6994b22455e99a6cffdc1c0cf9e80f4cbbd51be4b924270aebc8410dc43a68', 83748, False),
    (5, 20000, 7, '0x1.8000000000000p-44', '0x1.55e10b952c98fp-52', 'f8d6d8ed8a533eb41aacd4623220a8004b2f2b433ad4b99bfcaba0acb5f615b9', 83825, False),
    (5, 20000, 42, '0x1.8000000000000p-45', '0x1.3fb82df1f9d1fp-52', 'd8ece5fdf990c5045b7de683a6c9b34467f694b94847d02337d83430a6f78626', 80493, False),
    (12, 20000, 0, '0x1.0000000000000p-44', '0x1.e7e83bdd1a9cep-53', '1e59ebc832acf8f342512e73d8924ae637f9c182db61752537aae3b6de5f4872', 131282, False),
    (12, 20000, 7, '0x1.0000000000000p-43', '0x1.e522cc4880f46p-53', '3b5b309d421a125b6bf7e643416a2975ce19a9aad4a705497d6e8a5ddc7f02e5', 124270, False),
    (12, 20000, 42, '0x1.2000000000000p-44', '0x1.1b65f496a10b8p-52', '7d4112e3a2dd301e6db393868702b87386126bd85e636c152958ea39426de033', 123729, False),
    (24, 20000, 0, '0x1.0000000000000p-44', '0x1.fd12eb17d1ddep-53', '1637ec8edecd96f30a1f025842ef40aeff8b17a70e065314caf77e01f39579db', 145286, False),
    (24, 20000, 7, '0x1.0000000000000p-44', '0x1.fed58e545e769p-53', 'd70c0e639b03201602bb5c2851e1309bace3210179a3d14d0d287d097a8f66d8', 142205, False),
    (24, 20000, 42, '0x1.0000000000000p-43', '0x1.e6b5fc55d7b31p-53', 'f4b1a1c3c0eee73fc6e3e978cec8f78347b0af5ce76959ca4768237a1aad6202', 142194, False),
    (5, 1000000, 42, '0x1.8000000000000p-43', '0x1.7a1d35ac05513p-52', '18015a4db2e550c11310ddac56241f973477abdafdc38480b1d339115864fe70', 1071217, False),
    # r = 7 and 8 on either side of the width where sum(axis=1) turns
    # pairwise, a last chunk of 50,001 rows, and sweeps of 1,000 rows
    (7, 20000, 0, '0x1.0000000000000p-44', '0x1.ffc665d305ab3p-53', 'c0bad50896121f366713cab662e133d9c711648d07dd2b34e4487f21e1763725', 125894, False),
    (7, 20000, 7, '0x1.0000000000000p-44', '0x1.fff1259a3fad9p-53', '1cf84c784be988f83e12ea7a3bb89fbbc592d6274861700890a097bee5d82f13', 126592, False),
    (8, 20000, 0, '0x1.0000000000000p-44', '0x1.8da2b51a13c70p-53', 'b94ff81f5e710154daedf50086acc81471db8dc0e01d0421632ef692a8600c73', 127988, False),
    (8, 20000, 7, '0x1.0000000000000p-43', '0x1.c7109d2379fa1p-53', '015332e615ef1dc64d9e0a5d1dcf0866b1bf6932b901b551c5f5a603dd38662e', 132002, False),
    (5, 1000, 0, '0x1.8000000000000p-44', '0x1.5bc4163c064bcp-52', '5a6994b22455e99a6cffdc1c0cf9e80f4cbbd51be4b924270aebc8410dc43a68', 64747, False),
    (24, 1000, 7, '0x1.0000000000000p-44', '0x1.fed58e545e769p-53', 'd70c0e639b03201602bb5c2851e1309bace3210179a3d14d0d287d097a8f66d8', 107749, False),
    (12, 450001, 3, '0x1.0000000000000p-44', '0x1.ffffbb6f04987p-53', '9dcb89fc4be7f27e062ce2785dc8c2d9ac637cca3d1c6358d32e3a46969f19f8', 575484, False),
    # seeds whose level draws rejected a 32-bit word of 0 when the levels
    # and the scales shared one stream, which made the lattice be scanned
    # twice; with a generator for each, a rejection moves no scale
    (24, 1000, 165, '0x1.0000000000000p-44', '0x1.ed014d154351ep-53', '7204cffd7af0991f1811030b95b29b8fe6f0635418f7912ee1aebc1ced68d055', 122988, False),
    (24, 1000, 459, '0x1.0000000000000p-45', '0x1.fa61716de10a5p-53', '0a61537c0c9b3c6710900f66e2e4e9c7c5e075eebcb8612d8fe875dca8ec0eee', 123410, False),
]

# The same hunts, in the same order, under numpy 2.4.6's baseline float64
# power loop ("baseline(X86_V2)"), which x86-64 runners without AVX-512
# get, and its exp loop there, X86_V3 (AVX2) or baseline(X86_V2), which
# give the same bits (test_kernel_bits): recorded and cross-checked as
# above with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
# where exp took X86_V3, and recorded once more with X86_V3 added to it,
# where exp took the baseline loop: the same 28 outcomes. The loops round
# some powers and exps differently, so the seeded hunts reach other bits;
# 6 of the 28 agree.
BASELINE_PINNED_HUNTS = [
    (1, 20000, 0, '0x1.0000000000000p-45', '0x1.e5c0df72e034cp-53', '6d55f0a6e2317158416f47aadd4fd1333367b0360d0713709e89154fc6e1bc1b', 21247, False),
    (1, 20000, 7, '0x1.0000000000000p-44', '0x1.f6c917e238054p-53', '9ec38a218489d648bb3f10ac779dac9595337848783c4c3f30a19498139087dd', 21610, False),
    (1, 20000, 42, '0x1.0000000000000p-43', '0x1.de0da54cfdb61p-53', 'e46075aeef2ba1900bf46742bb94d6068e617582eaedcc4cfaee78c4ac659cba', 20946, False),
    (2, 20000, 0, '0x1.0000000000000p-53', '0x1.fffff422c4dd6p-54', '5bc0adb7b7948d394339b40a6ae356b209c48fcbb229743987470c549df50337', 21603, False),
    (2, 20000, 7, '0x1.0000000000000p-43', '0x1.81a044dae00bcp-54', '1dd61af4a890e1e1f485224d6f85f60f1570facdeb344c1e3077b2adabe43666', 20635, False),
    (2, 20000, 42, '0x1.0000000000000p-43', '0x1.04859ec841f72p-53', 'c47c9b1f543322138b704a88f2690604ab4861daf0e9fa82e09688ae2f7d1460', 21810, False),
    (3, 20000, 0, '0x1.0000000000000p-45', '0x1.2d6071c028f6bp-53', '9f72a5680ff2f6d091473ae4099b6cc4a3b31a119b22743767d8df554de81095', 24931, False),
    (3, 20000, 7, '0x1.0000000000000p-42', '0x1.86df235da7070p-53', 'a56579ac529d1223171c8fbee217d2e0e7aeef7047e596e7f831f2a5f164b547', 21705, False),
    (3, 20000, 42, '0x1.0000000000000p-47', '0x1.b4664e2c9d5e6p-53', '6ff621c3f29686f0d103225ec35f852fead3ec88d103ada15f67b27eba04cd6c', 22038, False),
    (5, 20000, 0, '0x1.8000000000000p-44', '0x1.5fb070fd618a8p-52', 'c9e923442432a7072ae55646c105254082c73e377971025ab2957d9e45c85a26', 83897, False),
    (5, 20000, 7, '0x1.8000000000000p-44', '0x1.55e10b952c98fp-52', 'f8d6d8ed8a533eb41aacd4623220a8004b2f2b433ad4b99bfcaba0acb5f615b9', 83825, False),
    (5, 20000, 42, '0x1.8000000000000p-45', '0x1.3fc0510f444e8p-52', '336c29b6d9643a53f5854abbc9e078414be45e54b14e2468f52d6103a8e5ac6a', 83773, False),
    (12, 20000, 0, '0x1.0000000000000p-44', '0x1.effde9aefafaep-53', 'a8d7800dc16b5c447727bbb37d4b7f5da7f36b01569522590b835868f7a38760', 130450, False),
    (12, 20000, 7, '0x1.0000000000000p-43', '0x1.e522cc4880c96p-53', 'a45b497d411250ba3fec5c3cb088166388ebff3d0c8f3d1ec1ec05c58c70a387', 131890, False),
    (12, 20000, 42, '0x1.0000000000000p-44', '0x1.fff73e129516bp-53', '5937033601425ba371d16389b2cae053af923b1c65a60f38c80fe328c423a87c', 137602, False),
    (24, 20000, 0, '0x1.0000000000000p-44', '0x1.fffb6de6a108dp-53', '01721ac23f45e81fe2c1f6444b2daf4ad3455833e5e71ec9b69e46d2308fab23', 136431, False),
    (24, 20000, 7, '0x1.0000000000000p-44', '0x1.fffd41675253cp-53', '7547cc354896020e548d1e92a21a7489744a92801aa7eccf04bcec0bc1f9e77e', 143414, False),
    (24, 20000, 42, '0x1.0000000000000p-44', '0x1.ffb7e31ff3355p-53', 'd8e21c195d81e401eabb030f1b26a6b150cf3399321de2ffd49d0e2d3eeec2ad', 127378, False),
    (5, 1000000, 42, '0x1.8000000000000p-43', '0x1.7a1da602e498ep-52', '4a6c02b5ac5889dfcd0dacf9f7095dd9f9d92cb8bf3f5931fd5527baef8afa8a', 1069977, False),
    (7, 20000, 0, '0x1.0000000000000p-44', '0x1.ff3fcf26587f8p-53', '07360831098765804538b6d4a5880f6000a6d649ff11525e26c95621726e41bd', 126030, False),
    (7, 20000, 7, '0x1.0000000000000p-44', '0x1.eccdc12141d20p-53', 'bcdf50f47cca904e534df0cb46cc39b92530577e8b4abbaa05238196a63523e2', 127604, False),
    (8, 20000, 0, '0x1.0000000000000p-44', '0x1.8da2b51a13c70p-53', 'b94ff81f5e710154daedf50086acc81471db8dc0e01d0421632ef692a8600c73', 127988, False),
    (8, 20000, 7, '0x1.0000000000000p-43', '0x1.c7109d2379fa1p-53', '015332e615ef1dc64d9e0a5d1dcf0866b1bf6932b901b551c5f5a603dd38662e', 132002, False),
    (5, 1000, 0, '0x1.8000000000000p-44', '0x1.5fb070fd618a8p-52', 'c9e923442432a7072ae55646c105254082c73e377971025ab2957d9e45c85a26', 61917, False),
    (24, 1000, 7, '0x1.0000000000000p-44', '0x1.fffd41675253cp-53', '7547cc354896020e548d1e92a21a7489744a92801aa7eccf04bcec0bc1f9e77e', 124413, False),
    (12, 450001, 3, '0x1.0000000000000p-44', '0x1.ffffbb6f04987p-53', '1739803c9e47e416c0a6d83dae07891572c95d89285fc600db02b5e1bf106d84', 573106, False),
    (24, 1000, 165, '0x1.0000000000000p-44', '0x1.ffff949c8526dp-53', '00ced0ed6c1e427ca8bb8cb0210ca806a3aaf5b84c08073910140e7019286d58', 120945, False),
    (24, 1000, 459, '0x1.0000000000000p-44', '0x1.ffde25aec5a3bp-53', '4063ffcc7ec7c3c4f17e63141141ec0e4275527c15dd5629c72bb03faa412654', 123810, False),
]

# float64 power loop -> {(r, sample_count, rng_seed): pinned outcome}
PINS_BY_LOOP = {
    loop: {case[:3]: tuple(case[3:]) for case in cases}
    for loop, cases in (("X86_V4", PINNED_HUNTS), ("baseline(X86_V2)", BASELINE_PINNED_HUNTS))
}


def pinned_outcome(case):
    """The outcome pinned for the hunt of ``case`` under this process's
    power loop. Another loop has no pins: ``test_the_power_loop_has_pins``
    fails and names it, and the pinned tests are skipped."""
    if POWER_LOOP not in PINS_BY_LOOP:
        pytest.skip(f"no hunt pins for numpy's float64 power loop {POWER_LOOP!r}")
    return PINS_BY_LOOP[POWER_LOOP][case[:3]]


def test_the_power_loop_has_pins():
    assert [c[:3] for c in BASELINE_PINNED_HUNTS] == [c[:3] for c in PINNED_HUNTS]
    assert POWER_LOOP in PINS_BY_LOOP, (
        f"numpy's float64 power loop is {POWER_LOOP!r}; the hunt pins and the "
        f"demo 05 digest are recorded for {sorted(PINS_BY_LOOP)} only"
    )


@pytest.mark.parametrize("case", PINNED_HUNTS, ids=lambda c: f"r{c[0]}-n{c[1]}-seed{c[2]}")
def test_hunt_outcome_is_pinned(case):
    r, samples, seed = case[:3]
    expected = pinned_outcome(case)
    out = hunt(SearchConfig(r=r, sample_count=samples, rng_seed=seed))
    assert outcome_key(out) == expected


def assert_identical_for_every_thread_count(case):
    r, samples, seed = case[:3]
    expected = pinned_outcome(case)
    cfg = SearchConfig(r=r, sample_count=samples, rng_seed=seed)
    base = hunt(cfg, threads=1)
    assert outcome_key(base) == expected
    for threads in (2, 3, 4):
        out = hunt(cfg, threads=threads)
        assert out.max_defect == base.max_defect
        assert out.max_relative_defect == base.max_relative_defect
        assert np.array_equal(out.argmax[0].magnitudes, base.argmax[0].magnitudes)
        assert np.array_equal(out.argmax[1].magnitudes, base.argmax[1].magnitudes)
        assert out.samples_evaluated == base.samples_evaluated
        assert out.violation_found == base.violation_found


def test_hunt_outcome_at_seed_42_is_identical_for_every_thread_count():
    # five sweep chunks, so two to four workers really split the sweep
    case = next(c for c in PINNED_HUNTS if c[:3] == (5, 1_000_000, 42))
    assert case[1] > 4 * numeric_search._CHUNK_ROWS
    assert_identical_for_every_thread_count(case)


def test_hunt_outcome_with_a_short_last_chunk_is_identical_for_every_thread_count():
    # three chunks, the last of 50,001 rows
    case = next(c for c in PINNED_HUNTS if c[:3] == (12, 450_001, 3))
    assert case[1] % numeric_search._CHUNK_ROWS == 50_001
    assert_identical_for_every_thread_count(case)


# ---------------------------------------------------------------------------
# ascent and lattice against their one-at-a-time forms
# ---------------------------------------------------------------------------

def reference_ascend(exponents, a, b, steps, step_size):
    """The ascent as it scored one move per ``_batch_defects`` call."""
    x = np.concatenate([a, b])
    r = a.shape[0]

    def rel_at(v):
        _, rel = numeric_search._batch_defects(exponents, v[None, :r], v[None, r:])
        return float(rel[0])

    current = rel_at(x)
    evals = 1
    h = step_size
    for _ in range(steps):
        improved = False
        for j in range(2 * r):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[j] = max(0.0, cand[j] + sign * h * max(abs(cand[j]), 1e-3))
                if cand[j] == x[j]:
                    continue
                value = rel_at(cand)
                evals += 1
                if value > current:
                    current, x = value, cand
                    improved = True
                    break
        if not improved:
            h *= 0.5
            if h < 1e-10:
                break
    return x[:r], x[r:], current, evals


def ascent_start(r, seed, zeros=False, tiny=False):
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(-3.0, 3.0, r)
    b = 10.0 ** rng.uniform(-3.0, 3.0, r)
    if zeros:  # the minus move at a zero is skipped, small ones are clipped
        a[::2] = 0.0
        b[1::2] = 0.0
    if tiny:
        b[:] = 1e-4
    return a, b


ASCENT_CASES = [
    # (r, start seed, zeros, tiny, steps, step_size)
    (1, 0, False, False, 200, 0.25),
    (1, 1, True, False, 50, 0.25),
    (2, 2, True, False, 200, 0.25),
    (3, 3, False, True, 200, 0.25),
    (5, 4, False, False, 200, 0.25),
    (5, 5, True, False, 200, 0.25),
    (5, 6, False, True, 1, 0.25),
    (5, 7, False, False, 3, 1e-12),
    (5, 8, True, True, 60, 1e3),
    (8, 9, False, False, 40, 5.0),
    (12, 10, True, False, 60, 0.25),
    (24, 11, False, False, 30, 0.25),
]


@pytest.mark.parametrize("case", ASCENT_CASES)
def test_batched_ascent_matches_one_move_per_call(case):
    r, seed, zeros, tiny, steps, step_size = case
    exps = np.asarray(GradingSignature(r).exponents, dtype=float)
    a, b = ascent_start(r, seed, zeros, tiny)
    want = reference_ascend(exps, a, b, steps, step_size)
    got = numeric_search._ascend(exps, a, b, steps, step_size)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2].hex() == want[2].hex()
    assert got[3] == want[3]
    assert np.all(got[0] >= 0) and np.all(got[1] >= 0)
    defect, _ = numeric_search._batch_defects(exps, got[0][None, :], got[1][None, :])
    assert got[4].hex() == float(defect[0]).hex()


def test_batched_ascent_matches_when_the_step_size_runs_out():
    # with b = 0 the defect is exactly 0 and no move raises it, so every
    # step halves h; each step with h >= 1e-10 scores at least one move,
    # so fewer evaluations than steps means the ascent stopped on h
    r, steps = 3, 1000
    exps = np.asarray(GradingSignature(r).exponents, dtype=float)
    a, _ = ascent_start(r, 12)
    b = np.zeros(r)
    want = reference_ascend(exps, a, b, steps, 0.25)
    got = numeric_search._ascend(exps, a, b, steps, 0.25)
    assert want[2] == 0.0
    assert want[3] < steps
    assert np.array_equal(np.concatenate(got[:2]), np.concatenate(want[:2]))
    assert got[2].hex() == want[2].hex()
    assert got[3] == want[3]


def test_grid_points_match_itertools_product():
    shapes = [
        (resolution, r)
        for resolution in range(1, 7)
        for r in range(1, 9)
        if resolution ** (2 * r) <= numeric_search._GRID_POINT_CAP
    ]
    assert (3, 5) in shapes  # the default lattice at r = 5
    for resolution, r in shapes:
        axes = np.linspace(0.0, 1.0, resolution)
        want = np.array(list(itertools.product(axes, repeat=2 * r)))
        got = axes[numeric_search._product_lattice(r, resolution)]
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (resolution, r)


@pytest.mark.parametrize("r", [32, 100])
def test_one_point_lattice_beyond_64_dimensions(r):
    # np.indices allows at most 64 dimensions; this lattice has 2r. Its
    # one point is the zero profile pair, whose power sums are 0
    levels = numeric_search._product_lattice(r, 1)
    assert levels.shape == (1, 2 * r) and not levels.any()
    exps = np.asarray(GradingSignature(r).exponents, dtype=float)
    best, points = numeric_search._grid_stage(exps, 1, np.random.SeedSequence(0))
    assert points == 1
    assert not best.a.any() and not best.b.any()
    out = hunt(SearchConfig(r, 2000, grid_resolution=1, ascent_steps=20))
    assert out.samples_evaluated > 2000
    assert np.isfinite(out.max_defect) and out.max_relative_defect <= 1e-12
    assert not out.violation_found


# ---------------------------------------------------------------------------
# block-wise kernel and draws against their whole-array forms
# ---------------------------------------------------------------------------

def norm_inputs(exps):
    """Rows of random magnitudes whose powers are of one size, so that
    the order of the sum shows in the last bits; random magnitudes over
    600 decades; zeros, subnormals, 1e+300 and 1e-300 and mixtures of
    them, for profiles of length r."""
    r = exps.shape[0]
    rng = np.random.default_rng(r)
    tiny = np.nextafter(0.0, 1.0)
    rows = [
        10.0 ** (rng.uniform(-2.0, 2.0, size=(256, r)) / exps),
        10.0 ** rng.uniform(-300.0, 300.0, size=(64, r)),
        10.0 ** rng.uniform(-3.0, 3.0, size=(64, r)),
        np.zeros((1, r)),
        np.full((1, r), tiny),
        tiny * rng.integers(1, 2**40, size=(4, r)).astype(float),
        np.full((1, r), 1e300),
        np.full((1, r), 1e-300),
        rng.choice([0.0, tiny, 1e-300, 1.0, 1e300], size=(32, r)),
    ]
    return np.concatenate(rows)


def decimal_norm(row, exps):
    """(sum_i a_i^{e_i})^{1/2r} of one row in 30-digit decimal arithmetic.

    Terms below 2^-128 times the largest are left out: together they are
    less than r 2^-128 of the sum, far below the 1e-15 that is checked.
    """
    with np.errstate(divide="ignore"):
        logs = exps * np.log2(row)
    keep = logs >= logs.max() - 128
    with decimal.localcontext(decimal.Context(prec=30)):
        terms = zip(row[keep].tolist(), exps[keep].astype(int).tolist())
        total = sum(+decimal.Decimal(a) ** e for a, e in terms)
        return (total.ln() / int(exps[0])).exp() if total else total


@pytest.mark.parametrize("r", range(1, 131))
def test_batch_norms_matches_the_row_sum_form(r):
    # rows whose power sum is a normal double keep the row-sum bits; the
    # others are rescaled and agree with a decimal reference
    exps = np.asarray(GradingSignature(r).exponents, dtype=float)
    mags = norm_inputs(exps)
    (got,) = numeric_search._batch_norms(exps, mags)
    if r == 1:
        assert got.tobytes() == mags[:, 0].tobytes()  # not (a^2)^(1/2)
        return
    with np.errstate(over="ignore"):
        total = np.power(mags, exps[None, :]).sum(axis=1)
    normal = (total >= np.finfo(float).tiny) & (total < np.inf)
    assert got[normal].tobytes() == (total[normal] ** (1.0 / (2 * r))).tobytes()
    assert (~normal).any()
    for value, row in zip(got[~normal], mags[~normal]):
        want = decimal_norm(row, exps)
        assert abs(decimal.Decimal(value) - want) <= decimal.Decimal("1e-15") * want


def whole_log_uniform(rng, shape):
    """The log-uniform draw as one whole array: the blocks must match it."""
    lo, hi = (bound * math.log(10) for bound in numeric_search.LOG10_MAGNITUDE_RANGE)
    return np.exp(rng.uniform(lo, hi, size=shape))


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 200_000])
def test_log_uniform_blocks_match_one_whole_draw(rows):
    assert numeric_search._BLOCK_ROWS == 4096  # the rows straddle one block
    for r in (1, 5) if rows == 200_000 else (1, 5, 24):
        whole = whole_log_uniform(np.random.default_rng(rows + r), (rows, r))
        blocks = numeric_search._log_uniform_blocks(np.random.default_rng(rows + r), rows, r)
        # each block is the same reused buffer, so copy it before the next
        got = np.concatenate([block.copy() for block in blocks])
        assert got.tobytes() == whole.tobytes()


@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 200_000])
def test_sweep_blocks_match_whole_chunk_draws(rows):
    # a and b are each one whole draw from their own child of the chunk's
    # seed, and a second call on the same seed draws them again
    r = 5
    seed = np.random.SeedSequence(rows).spawn(3)[2]
    a_ss, b_ss = np.random.SeedSequence(rows).spawn(3)[2].spawn(2)
    whole_a = whole_log_uniform(np.random.default_rng(a_ss), (rows, r))
    whole_b = whole_log_uniform(np.random.default_rng(b_ss), (rows, r))
    for _ in range(2):
        pairs = [(a.copy(), b.copy()) for a, b in numeric_search._sweep_blocks(seed, rows, r)]
        assert [a.shape[0] for a, _ in pairs][:-1] == [4096] * (len(pairs) - 1)
        assert np.concatenate([a for a, _ in pairs]).tobytes() == whole_a.tobytes()
        assert np.concatenate([b for _, b in pairs]).tobytes() == whole_b.tobytes()
    assert seed.n_children_spawned == 0


def test_hunt_memory_stays_bounded_at_r24():
    # whole-chunk draws peaked at 187.7 MiB here, and the whole int64
    # lattice of 100,000 x 48 levels at 47.1 MiB; with every stage in
    # blocks the peak is about 10 MiB
    tracemalloc.start()
    try:
        hunt(SearchConfig(r=24, sample_count=200_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def digest_passes(monkeypatch, name):
    """Rebind the block generator ``name``; each call of it appends a
    sha256 of all the blocks it yields to the returned list."""
    digests = []
    real = getattr(numeric_search, name)

    def hashed(*args):
        digest = hashlib.sha256()
        digests.append(digest)
        for block in real(*args):
            digest.update(block.tobytes())
            yield block

    monkeypatch.setattr(numeric_search, name, hashed)
    return digests


@pytest.mark.parametrize("r, seed", [(24, 7), (24, 165), (24, 371), (24, 459), (3, 7)])
def test_streamed_lattice_matches_one_whole_draw(monkeypatch, r, seed):
    # the levels and the scales are each drawn in one pass, as one whole
    # draw from their own child of the lattice's seed. The level draws of
    # seeds 165 and 459 once rejected a word from a stream the scales
    # shared, and their lattices were scanned twice; 371's level draw
    # rejects one now. At r = 3 the lattice is the full product, which
    # draws no levels
    resolution = 3
    level_ss, scale_ss = np.random.SeedSequence(seed).spawn(2)[0].spawn(2)
    width = 2 * r
    rows = min(resolution**width, numeric_search._GRID_POINT_CAP)
    whole_levels = np.random.default_rng(level_ss).integers(0, resolution, size=(rows, width))
    whole_scales = whole_log_uniform(np.random.default_rng(scale_ss), (rows, width))

    levels = digest_passes(monkeypatch, "_level_blocks")
    scales = digest_passes(monkeypatch, "_log_uniform_blocks")
    monkeypatch.setattr(numeric_search, "_scan_block", lambda *args: None)
    exps = np.asarray(GradingSignature(r).exponents, dtype=float)
    grid_ss = np.random.SeedSequence(seed).spawn(2)[0]
    _, points = numeric_search._grid_stage(exps, resolution, grid_ss)
    assert points == rows
    want_levels = [] if r == 3 else [hashlib.sha256(whole_levels.tobytes()).hexdigest()]
    assert [d.hexdigest() for d in levels] == want_levels
    assert [d.hexdigest() for d in scales] == [hashlib.sha256(whole_scales.tobytes()).hexdigest()]


@pytest.mark.parametrize("r", [5, 12])
def test_grid_stage_draws_the_same_lattice_twice_from_one_seed(r):
    # the full product (r = 5) and a subsampled lattice (r = 12): the
    # stage spawns no child of its seed, so a second call draws again
    exps = np.asarray(GradingSignature(r).exponents, dtype=float)
    seed = np.random.SeedSequence(165).spawn(2)[0]
    first, second = (numeric_search._grid_stage(exps, 3, seed) for _ in range(2))
    assert seed.n_children_spawned == 0
    assert first[1] == second[1]
    for got, want in zip((second[0].raw, second[0].rel), (first[0].raw, first[0].rel)):
        assert got.hex() == want.hex()
    assert second[0].a.tobytes() == first[0].a.tobytes()
    assert second[0].b.tobytes() == first[0].b.tobytes()


@pytest.mark.parametrize("r", [3, 8, 24])
def test_block_size_does_not_change_the_hunt(monkeypatch, r):
    # blocks of 5 lattice rows, 10 sweep rows and 5 ascent moves against
    # the default blocks: the full-product lattice (r = 3 and 8), the
    # subsampled one (r = 24), the sweep and an ascent cut into blocks
    cfg = SearchConfig(r, 2000, ascent_steps=20, grid_resolution=2 if r == 8 else 3)
    want = hunt(cfg)
    monkeypatch.setattr(numeric_search, "_BLOCK_ELEMENTS", 5 * 2 * r)
    assert numeric_search._block_rows(2 * r) == 5
    got = hunt(cfg)
    assert got.max_defect.hex() == want.max_defect.hex()
    assert got.max_relative_defect.hex() == want.max_relative_defect.hex()
    for p, q in zip(got.argmax, want.argmax):
        assert p.magnitudes.tobytes() == q.magnitudes.tobytes()
    assert got.samples_evaluated == want.samples_evaluated


def test_hunt_argmax_stays_in_nonnegative_orthant():
    out = hunt(SearchConfig(r=6, rng_seed=3, **SMALL))
    assert np.all(out.argmax[0].magnitudes >= 0)
    assert np.all(out.argmax[1].magnitudes >= 0)


def test_hunt_seed_changes_search_trajectory():
    cfg_a = SearchConfig(r=3, rng_seed=1, **SMALL)
    cfg_b = SearchConfig(r=3, rng_seed=2, **SMALL)
    a, b = hunt(cfg_a), hunt(cfg_b)
    assert not np.array_equal(a.argmax[0].magnitudes, b.argmax[0].magnitudes)


def test_outcome_json_round_trip():
    out = hunt(SearchConfig(r=2, rng_seed=5, sample_count=5000, ascent_steps=20))
    payload = out.to_json()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["max_defect"] == out.max_defect
    assert payload["violation_found"] == out.violation_found
    assert payload["argmax_b"] == {"r": 2, "a": out.argmax[1].magnitudes.tolist()}
    assert payload["r"] == 2


# ---------------------------------------------------------------------------
# per-line numerics
# ---------------------------------------------------------------------------

def test_line_defect_published_evaluation_point():
    sig = GradingSignature(5)
    line = CertificateLine(2, 3, 3)
    # 56(2^5 + 2^3) - 120(2^{28/5} + 2^{12/5}), directly
    expected = 56 * (2.0**5 + 2.0**3) - 120 * (2.0 ** (28 / 5) + 2.0 ** (12 / 5))
    assert line_defect(sig, line, 2.0, 1.0) == pytest.approx(expected, rel=1e-14)
    assert expected < 0
    assert 56 * (2.0**5 + 2.0**3) == 2240.0


def test_line_defect_equal_arguments_sign():
    sig = GradingSignature(5)
    line = CertificateLine(2, 3, 3)
    for t in (0.5, 1.0, 3.7):
        expected = (56 - 120) * 2 * t**8
        assert line_defect(sig, line, t, t) == pytest.approx(expected, rel=1e-13)
        assert line_defect(sig, line, t, t) <= 0
    # (3, 1, 3) fails majorization, so large x exposes a real violation
    assert line_defect(sig, CertificateLine(3, 1, 3), 100.0, 1e-6) > 0


def test_line_defect_boundary_is_zero():
    sig = GradingSignature(5)
    line = CertificateLine(2, 3, 3)
    assert line_defect(sig, line, 0.0, 5.0) == 0.0
    assert line_defect(sig, line, 5.0, 0.0) == 0.0
