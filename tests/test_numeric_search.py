import decimal
import hashlib
import itertools
import json
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
#  violation_found), recorded with the one-move-per-call ascent and the
# itertools lattice; every other SearchConfig field is the default
#
# The literals are the bits of numpy 2.4.6 dispatching its float64 power
# loop to x86-64-v4 (AVX-512 F/CD/BW/DQ/VL), which POWER_LOOP names
# "X86_V4". BASELINE_PINNED_HUNTS below holds the same hunts under the
# baseline loop. A pin that fails points first at the numpy version,
# which the CI workflow prints before the suite.
PINNED_HUNTS = [
    (1, 20000, 0, '0x1.0000000000000p-47', '0x1.cc41cac2015a2p-53', 'e78d08e7161e6d681702343a4c40e82b3a3a8e86124bf7e0fdfe5ed2cca272e7', 21610, False),
    (1, 20000, 7, '0x1.0000000000000p-51', '0x1.f3c0942b17477p-53', '26152693805dcbaffb9dda1cdc33b2d4182317bfda9d9718adcd90c31d0ce68e', 21611, False),
    (1, 20000, 42, '0x1.0000000000000p-51', '0x1.f52de4b16eb77p-53', '171262d3b2d16358d88ce41f54f7eebc31bf8471d3e5e6421a4fa134b9d5bae2', 21611, False),
    (2, 20000, 0, '0x0.0p+0', '0x0.0p+0', '66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925', 20467, False),
    (2, 20000, 7, '0x1.792c000000000p-46', '0x1.62abe82611bd8p-52', 'd91da6126d1d2de0c31d6d950030ed7075d6fb6b227113ea3d29b86003195da9', 21982, False),
    (2, 20000, 42, '0x1.e800000000000p-51', '0x1.e7ffffff6f0e2p-54', '1791e733efa09bcb1ac6b1faedf19353ac8fac38517b7a7f67562ed0c71f4ac5', 20758, False),
    (3, 20000, 0, '0x1.fb00000000000p-53', '0x1.fa89ed49ba31cp-53', 'f8ef69b70735f8c524482d744191331398cb6a63c155c582638d8f771fdf7c0c', 23265, False),
    (3, 20000, 7, '0x1.4000000000000p-47', '0x1.2f11812b62202p-53', '815575c2b7062999a0f3a046a5e7f1f353c0e6e0361870f3e8aa1c93c5fd5b7f', 24930, False),
    (3, 20000, 42, '0x1.7c00000000000p-46', '0x1.1f79f8625d836p-52', '49f148e60acba0ce3a9601cd1faf4987e587dd8e7deefdf8527596f090631896', 22442, False),
    (5, 20000, 0, '0x1.0000000000000p-43', '0x1.2ef4ca4b45e03p-52', 'a4a9dae1b4c8c8995f03b2fc61985a41641c7e688d1d51de8674be4268749979', 80761, False),
    (5, 20000, 7, '0x1.8000000000000p-43', '0x1.7b1c0bf779f85p-52', 'fec46059597fe3fc782535d345a98fe0298a9112d266ec64ea92c805e106afe0', 82793, False),
    (5, 20000, 42, '0x1.8000000000000p-44', '0x1.5eb51f2817e16p-52', '1d1c1075f0bae446d1154858fe0c7fc248fe6c7405a2bbdc3c27cfb6d5f4fb09', 80768, False),
    (12, 20000, 0, '0x1.0000000000000p-44', '0x1.f91f61e5d954ep-53', 'd406e2493aeb309fbdf3cb2828802be3a1e41392cc0584a2d9b19ef5f80d95ce', 137402, False),
    (12, 20000, 7, '0x1.0000000000000p-44', '0x1.ff159ac2769a2p-53', 'e8e8104deb66e608fa0318f85bc4b1dbec959db56a8b62277ba0e75b72d7fa1b', 123122, False),
    (12, 20000, 42, '0x1.0000000000000p-44', '0x1.fc4ea6b439ebep-53', 'e746c123016eb8037097ba159be5401edd00f9ccaf967dcdb0b2ba2ba111e034', 124952, False),
    (24, 20000, 0, '0x1.0000000000000p-44', '0x1.fff223c331b80p-53', 'a2fc5e4f53f9229ef442b79ed17e65e08f4ca71494d904ae8f94461e69d727a2', 140402, False),
    (24, 20000, 7, '0x1.0000000000000p-44', '0x1.fcf8a5e7f6d8bp-53', 'e6661a80df2638ea3c3832a5836f9af04c417dabd5baa8c819d30f4ac52be4ed', 155401, False),
    (24, 20000, 42, '0x1.0000000000000p-43', '0x1.d36acc9e337cap-53', '05d239181c3ccbbb3a707084dfb723b29e0b980cb2d539e61b2100e2fdfa324c', 139650, False),
    (5, 1000000, 42, '0x1.8000000000000p-43', '0x1.7fe99b05dd7b0p-52', '6ee04a030c28153ef794115ec3d5e5d26d1e4cdafaaa55af145bea95cb473fd8', 1064272, False),
    # recorded with whole-chunk draws and one kernel call per chunk:
    # r = 7 and 8 on either side of the width where sum(axis=1) turns
    # pairwise, a last chunk of 50,001 rows, and sweeps of 1,000 rows
    (7, 20000, 0, '0x1.0000000000000p-45', '0x1.f93f89434a1dfp-53', '8ad0e83aa740cc4068ac0d676b54a1e91649d5c1f33d83fde57de428b0bfcb84', 122753, False),
    (7, 20000, 7, '0x1.1000000000000p-44', '0x1.0cd2d17ddffe3p-52', '37df9340a1e6c5c024f9d6f13b7eb21fbaecf71e217b58dae3e5cf9cdea5bc89', 122482, False),
    (8, 20000, 0, '0x1.0000000000000p-44', '0x1.96e8c79c1a49bp-53', 'b464df0459f3dfbf244ff18f84d41a4301fd8818b2a25d7c441a590b04b8970c', 132002, False),
    (8, 20000, 7, '0x1.0000000000000p-44', '0x1.e1731bd84fc12p-53', '1d6a5c1a7f0ff154c6282d74f06871a3dd17c7baccb16b3ca2f98b6bfefb7507', 131802, False),
    (5, 1000, 0, '0x1.0000000000000p-43', '0x1.2ef4ca4b45e03p-52', 'a4a9dae1b4c8c8995f03b2fc61985a41641c7e688d1d51de8674be4268749979', 61721, False),
    (24, 1000, 7, '0x1.0000000000000p-43', '0x1.c4754a3dcdef6p-53', '9df37a4076f969223ef54275151300665e0aabff0b53d2a743c644e9f63094f0', 136402, False),
    (12, 450001, 3, '0x1.0000000000000p-44', '0x1.ffb06f960a915p-53', 'b44192fd56f28e8aaaafaa8186c40e3a9161a75c270aec0db3999f1dd4108b0a', 567653, False),
    # recorded with the whole int64 lattice drawn at once: in both the
    # level draw rejects a 32-bit word of 0, early in the lattice for
    # seed 165 (row 3,000-3,999) and late for seed 459 (row 84,000-84,999),
    # so the scales start one output later
    (24, 1000, 165, '0x1.0000000000000p-43', '0x1.c31842fa64417p-53', 'bf3a7a2c8382860704421a2a196ecc6221ee02635e824ee0fd2c60c1f7da0586', 130813, False),
    (24, 1000, 459, '0x1.1000000000000p-44', '0x1.0bd15aa2a0166p-52', '61a1f335a2577679f7616de90f208298b7ee2761c07dca1420aaea6725497c78', 113605, False),
]

# The same hunts, in the same order, under numpy 2.4.6's baseline float64
# power loop ("baseline(X86_V2)"), which x86-64 runners without AVX-512
# get: recorded with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR" from the library as it stood before the kernel raised the
# lattice's zero bases as 1.0. The loops round some powers differently,
# so the seeded hunts reach other bits; 5 of the 28 agree.
BASELINE_PINNED_HUNTS = [
    (1, 20000, 0, '0x1.0000000000000p-49', '0x1.e6948ad0e3eadp-53', '83ec2700445aace218a6ddf588d8551e722fc8d82b27a10bb6246ba61c5211ad', 21610, False),
    (1, 20000, 7, '0x1.0000000000000p-51', '0x1.f3c0942b17477p-53', '26152693805dcbaffb9dda1cdc33b2d4182317bfda9d9718adcd90c31d0ce68e', 21611, False),
    (1, 20000, 42, '0x1.0000000000000p-51', '0x1.f52de4b16eb77p-53', '171262d3b2d16358d88ce41f54f7eebc31bf8471d3e5e6421a4fa134b9d5bae2', 21611, False),
    (2, 20000, 0, '0x0.0p+0', '0x0.0p+0', '66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925', 20467, False),
    (2, 20000, 7, '0x1.7fe4000000000p-47', '0x1.a52e23c36be2cp-53', 'f3c1ac98f89b1839996f528fcc4fe09bd11627962415b0db0581ab87a9c18adf', 21990, False),
    (2, 20000, 42, '0x1.e800000000000p-51', '0x1.e7ffffff6f0e2p-54', '1791e733efa09bcb1ac6b1faedf19353ac8fac38517b7a7f67562ed0c71f4ac5', 20758, False),
    (3, 20000, 0, '0x1.7000000000000p-44', '0x1.52939da052172p-52', 'ef7c1e1aa115490bfb792a137a9bd8f136a7fb88c8e63e97207527020bca2aaf', 21865, False),
    (3, 20000, 7, '0x1.4000000000000p-43', '0x1.b6fdf797c3b02p-53', '5cda2eae8f201d09c7788c8ba610cfcc8ac605ac5b7272c8e4c4c866d728df0a', 21865, False),
    (3, 20000, 42, '0x1.7c00000000000p-46', '0x1.1ef13ee0654dcp-52', 'c76def5ef422f80f19a6450aee27af77bb0da87aab161ee0bef0c4f7591a6ab7', 23450, False),
    (5, 20000, 0, '0x1.7000000000000p-44', '0x1.595276c9ee109p-52', '4c6b0e35ab8e2f68e7d775c8990763b54e6e1cb42343d3e793de7fe83c40004d', 80930, False),
    (5, 20000, 7, '0x1.8000000000000p-45', '0x1.354c296a6f68dp-52', '7be5d67cafd050ac4afbe814f6aa50ae19ff02f3583f32a37518aa474ae6f4bf', 83791, False),
    (5, 20000, 42, '0x1.8000000000000p-43', '0x1.73f07b39c3b3bp-52', 'f53e9f3077e3e315eef056e3d7b82f8aa3a9f04d7efc12189838ff91a0d73efa', 81006, False),
    (12, 20000, 0, '0x1.0000000000000p-45', '0x1.eb7d9f439b4e6p-53', '16bef3829dd4a006dc2a5e2b151245946fb23f48579033746be56fa541bcbddb', 138002, False),
    (12, 20000, 7, '0x1.0000000000000p-44', '0x1.ff159ac2769a2p-53', 'e8e8104deb66e608fa0318f85bc4b1dbec959db56a8b62277ba0e75b72d7fa1b', 131186, False),
    (12, 20000, 42, '0x1.1000000000000p-44', '0x1.024f58b247810p-52', 'af6e738338d5236c9c625aa5665883ae4e4b6ad4939cbb7c7bbcee7c42361f50', 137600, False),
    (24, 20000, 0, '0x1.0000000000000p-45', '0x1.fac46382ca31fp-53', 'c43fe36c68a0d9c442383f9d64d4268811d64592a86713fb311e5e6d957b53e1', 133010, False),
    (24, 20000, 7, '0x1.0000000000000p-43', '0x1.c4754a3dcdef6p-53', 'd3d5463c04bc7fe8b64aba31644197776de567717af17a68be52538446234278', 155402, False),
    (24, 20000, 42, '0x1.0000000000000p-44', '0x1.efb5e3c6c8c6cp-53', 'bf262160ff3a5b485d69aca0003f7fea990219fe8e2824de26d1d7af28bf88eb', 155002, False),
    (5, 1000000, 42, '0x1.8000000000000p-43', '0x1.7e65bd4ec0670p-52', '6c1a3454eb8019e940f42d39087f0c9ed16592dd573530beb692a8faf8f957c9', 1067590, False),
    (7, 20000, 0, '0x1.0000000000000p-45', '0x1.f842f39ce9ceap-53', 'e8ef8e50485ecb85addb180ebb4a322eb7af9cb48d3f1fc9e76c897a0e7b360f', 126552, False),
    (7, 20000, 7, '0x1.0000000000000p-44', '0x1.f834dd98283a1p-53', '35ff480ca8f0c5c2a4b75d4825188b7266313bf6fd06d30512bfd57d38514883', 126746, False),
    (8, 20000, 0, '0x1.0000000000000p-44', '0x1.96e8c79c1a49bp-53', '57f0e4f15c902290b8a5dc84da02edb655e96e977161aac081a9482ea5d5b19c', 132002, False),
    (8, 20000, 7, '0x1.0000000000000p-44', '0x1.e1731bd84fc12p-53', '1d6a5c1a7f0ff154c6282d74f06871a3dd17c7baccb16b3ca2f98b6bfefb7507', 131802, False),
    (5, 1000, 0, '0x1.7000000000000p-44', '0x1.595276c9ee109p-52', '4c6b0e35ab8e2f68e7d775c8990763b54e6e1cb42343d3e793de7fe83c40004d', 61770, False),
    (24, 1000, 7, '0x1.0000000000000p-43', '0x1.c4754a3dcdef6p-53', 'd3d5463c04bc7fe8b64aba31644197776de567717af17a68be52538446234278', 136402, False),
    (12, 450001, 3, '0x1.1000000000000p-44', '0x1.019cf5f24a1cap-52', 'aa17918789b6568f15cdb204c8922b1ba23dc182d34acaa0dc362d9fdc8d8b96', 574214, False),
    (24, 1000, 165, '0x1.0000000000000p-44', '0x1.f5768a3f2e16fp-53', '6fcf5dc89f48d865a28e010473c9b41a17cace372c134404002bb3bf1e26d731', 135602, False),
    (24, 1000, 459, '0x1.0000000000000p-44', '0x1.fde9889e7dec5p-53', '368f3626d37f5893d42a7d7a5d7f7daf799672bd0ea201f8fe331097e3d3bfab', 119474, False),
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
    lo, hi = numeric_search.LOG10_MAGNITUDE_RANGE
    return 10.0 ** rng.uniform(lo, hi, size=shape)


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
    r = 5
    seed = np.random.SeedSequence(rows).spawn(3)[2]
    rng = np.random.default_rng(seed)
    whole_a = whole_log_uniform(rng, (rows, r))
    whole_b = whole_log_uniform(rng, (rows, r))
    pairs = [(a.copy(), b.copy()) for a, b in numeric_search._sweep_blocks(seed, rows, r)]
    assert [a.shape[0] for a, _ in pairs][:-1] == [4096] * (len(pairs) - 1)
    assert np.concatenate([a for a, _ in pairs]).tobytes() == whole_a.tobytes()
    assert np.concatenate([b for _, b in pairs]).tobytes() == whole_b.tobytes()


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


@pytest.mark.parametrize("seed, passes", [(7, 1), (165, 2)])
def test_streamed_lattice_matches_one_whole_draw(monkeypatch, seed, passes):
    # seed 165's level draw rejects a word, so its lattice is scanned
    # twice and only the second pass has the scales of the whole draw
    r, resolution = 24, 3
    grid_ss = np.random.SeedSequence(seed).spawn(2)[0]
    rng = np.random.default_rng(grid_ss)
    rows, width = numeric_search._GRID_POINT_CAP, 2 * r
    whole_levels = rng.integers(0, resolution, size=(rows, width)).tobytes()
    whole_scales = whole_log_uniform(rng, (rows, width)).tobytes()

    levels = digest_passes(monkeypatch, "_level_blocks")
    scales = digest_passes(monkeypatch, "_log_uniform_blocks")
    monkeypatch.setattr(numeric_search, "_scan_block", lambda *args: None)
    exps = np.asarray(GradingSignature(r).exponents, dtype=float)
    _, points = numeric_search._grid_stage(exps, resolution, grid_ss)
    assert points == rows
    assert (len(levels), len(scales)) == (passes, passes)
    assert levels[-1].hexdigest() == hashlib.sha256(whole_levels).hexdigest()
    assert scales[-1].hexdigest() == hashlib.sha256(whole_scales).hexdigest()
    if passes == 2:
        assert scales[0].hexdigest() != scales[1].hexdigest()


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
