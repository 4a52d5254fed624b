import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from gradenorm.certificate import (
    Certificate,
    CertificateLine,
    certificate_from_json,
    certificate_to_json,
    certificate_to_report,
    check_certificate,
    check_line,
    search_certificate,
)
from gradenorm.exactmath import binom
from gradenorm.expansion import lhs_orbits
from gradenorm.graded_space import GradingSignature

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(r):
    with open(FIXTURES / f"cert_r{r}.json", "r", encoding="utf-8") as fh:
        return certificate_from_json(json.load(fh))


def drop_line(cert, level, split):
    return Certificate(
        cert.r, tuple(ln for ln in cert.lines if (ln.level, ln.split) != (level, split))
    )


def retarget(cert, level, split, new_target):
    return Certificate(
        cert.r,
        tuple(
            CertificateLine(ln.level, ln.split, new_target)
            if (ln.level, ln.split) == (level, split)
            else ln
            for ln in cert.lines
        ),
    )


# ---------------------------------------------------------------------------
# check_line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "line",
    [
        (2, 3, 3),  # 56 <= 120 and (28/5, 12/5) over (5, 3)
        (3, 2, 3),  # 15 <= 120 and (21/5, 9/5) over (4, 2)
        (2, 4, 5),  # middle orbit on the middle slot, 70 <= 252
        (1, 4, 4),  # level one is the identity matching
    ],
)
def test_check_line_accepts(line):
    assert check_line(GradingSignature(5), CertificateLine(*line)) is None


def test_check_line_majorization_failure():
    # shadow hi is 21/5 < 5, the orbit's leading exponent
    assert check_line(GradingSignature(5), CertificateLine(3, 1, 3)) == "majorization"


def test_check_line_coefficient_failure():
    # binom(6, 2) = 15 > binom(10, 1) = 10, while majorization holds
    assert check_line(GradingSignature(5), CertificateLine(3, 2, 1)) == "coefficient"


def test_check_line_middle_mismatch():
    # a symmetric pair may not be charged to the single middle monomial
    assert check_line(GradingSignature(5), CertificateLine(1, 4, 5)) == "middle_mismatch"


@pytest.mark.parametrize("line", [(0, 1, 1), (6, 1, 1), (1, 6, 1), (1, 1, 6)])
def test_check_line_range_errors(line):
    with pytest.raises(ValueError):
        check_line(GradingSignature(5), CertificateLine(*line))


def test_certificate_line_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        CertificateLine(0, 1, 1)


@pytest.mark.parametrize("r", list(range(1, 21)) + [40, 60])
def test_middle_orbits_always_feasible_at_middle_slot(r):
    sig = GradingSignature(r)
    for i in range(1, r + 1):
        middle = sig.exponent(i) // 2
        assert check_line(sig, CertificateLine(i, middle, r)) is None
        assert binom(sig.exponent(i), middle) <= binom(2 * r, r)


# ---------------------------------------------------------------------------
# check_certificate
# ---------------------------------------------------------------------------

def test_fixture_certificates_validate():
    for r in (3, 4, 5):
        cert = load_fixture(r)
        report = check_certificate(GradingSignature(r), cert)
        assert report.valid and not report.violations


def test_r5_fixture_is_the_published_grouping():
    cert = load_fixture(5)
    assert len(cert.lines) == 15
    by_target = {}
    for ln in cert.lines:
        e = GradingSignature(5).exponent(ln.level)
        by_target.setdefault(ln.target, []).append(binom(e, ln.split))
    assert sorted(by_target[1], reverse=True) == [10, 8, 6]
    assert sorted(by_target[2], reverse=True) == [45, 28, 4]
    assert sorted(by_target[3], reverse=True) == [120, 56, 15]
    assert by_target[4] == [210]
    assert sorted(by_target[5], reverse=True) == [252, 70, 20, 6, 2]


def test_missing_line_reported_incomplete():
    cert = drop_line(load_fixture(5), 2, 3)
    report = check_certificate(GradingSignature(5), cert)
    assert not report.valid
    assert [v.reason for v in report.violations] == ["incomplete"]
    assert "i=2, s=3" in report.violations[0].detail


def test_retargeted_line_reported_coefficient():
    # binom(6, 2) = 15 > binom(10, 1) = 10; the move also collides with
    # the slot its sibling (3, 1, 1) already spends, which is reported too
    cert = retarget(load_fixture(5), 3, 2, 1)
    report = check_certificate(GradingSignature(5), cert)
    reasons = {v.reason for v in report.violations}
    assert not report.valid
    assert "coefficient" in reasons
    assert reasons <= {"coefficient", "slot_conflict"}


def test_duplicate_line_reported_incomplete():
    base = load_fixture(3)
    cert = Certificate(3, base.lines + (CertificateLine(2, 2, 2),))
    report = check_certificate(GradingSignature(3), cert)
    reasons = [v.reason for v in report.violations]
    assert "incomplete" in reasons


def test_slot_conflict_reported():
    base = load_fixture(3)
    # level 1 split 2 moved onto level 1's k=1 slot, already spent by split 1
    cert = retarget(base, 1, 2, 1)
    report = check_certificate(GradingSignature(3), cert)
    reasons = {v.reason for v in report.violations}
    assert "slot_conflict" in reasons


def test_check_certificate_r_mismatch():
    with pytest.raises(ValueError):
        check_certificate(GradingSignature(4), load_fixture(3))


def test_check_certificate_rejects_out_of_range_lines():
    cert = Certificate(3, (CertificateLine(1, 1, 9),))
    with pytest.raises(ValueError):
        check_certificate(GradingSignature(3), cert)


def test_check_report_json_shape():
    report = check_certificate(GradingSignature(5), retarget(load_fixture(5), 3, 2, 1))
    payload = report.to_json()
    assert payload["valid"] is False
    entry = next(v for v in payload["violations"] if v["reason"] == "coefficient")
    assert entry["line"] == {"i": 3, "s": 2, "k": 1}


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_r1_single_line():
    cert = search_certificate(GradingSignature(1))
    assert isinstance(cert, Certificate)
    assert cert.lines == (CertificateLine(1, 1, 1),)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_search_reproduces_fixtures(r):
    cert = search_certificate(GradingSignature(r))
    assert cert == load_fixture(r)


def test_search_r6_hand_enumeration():
    expected = {
        1: [1, 2, 3, 4, 5, 6],
        2: [1, 2, 3, 4, 6],
        3: [1, 3, 4, 6],
        4: [2, 4, 6],
        5: [3, 6],
        6: [6],
    }
    cert = search_certificate(GradingSignature(6))
    got = {}
    for ln in cert.lines:
        got.setdefault(ln.level, []).append(ln.target)
    assert got == expected
    assert check_certificate(GradingSignature(6), cert).valid


@pytest.mark.parametrize("r", range(1, 61))
def test_search_round_trips_through_checker(r):
    sig = GradingSignature(r)
    cert = search_certificate(sig)
    assert isinstance(cert, Certificate)
    assert len(cert.lines) == len(lhs_orbits(sig))
    assert check_certificate(sig, cert).valid


@pytest.mark.parametrize("r", range(1, 13))
def test_search_level_one_identity_matching(r):
    cert = search_certificate(GradingSignature(r))
    for ln in cert.lines:
        if ln.level == 1:
            assert ln.target == ln.split


def test_search_is_deterministic():
    a = search_certificate(GradingSignature(9))
    b = search_certificate(GradingSignature(9))
    assert a == b


def test_search_json_is_pinned_for_r_up_to_60():
    # digest of the certificates the earlier per-level matching search
    # emitted; the closed form must reproduce them byte for byte
    blob = "\n".join(
        json.dumps(certificate_to_json(search_certificate(GradingSignature(r))))
        for r in range(1, 61)
    )
    assert (
        hashlib.sha256(blob.encode()).hexdigest()
        == "c0e3b40842895cf52128d56d5e6e87b778eeb6394c4b3bea692e20058be4a3c4"
    )


def test_search_places_middle_orbits_on_middle_slot():
    for r in (2, 5, 8):
        sig = GradingSignature(r)
        cert = search_certificate(sig)
        for ln in cert.lines:
            if ln.split == sig.exponent(ln.level) // 2:
                assert ln.target == r


# ---------------------------------------------------------------------------
# numeric bridge: valid certificates imply the sampled inequalities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [2, 5, 7])
def test_certificate_groups_hold_numerically(r):
    sig = GradingSignature(r)
    cert = search_certificate(sig)
    report = certificate_to_report(sig, cert)
    rng = np.random.default_rng(500 + r)
    exps = np.asarray(sig.exponents, dtype=float)
    n = 2000
    a = 10.0 ** rng.uniform(-2, 2, size=(n, r))
    b = 10.0 ** rng.uniform(-2, 2, size=(n, r))
    big_a = np.power(a, exps).sum(axis=1) ** (1 / (2 * r))
    big_b = np.power(b, exps).sum(axis=1) ** (1 / (2 * r))
    for group in report.groups:
        k = group.k
        lhs = np.zeros(n)
        for row in group.lines:
            i, s = row["i"], row["s"]
            e = sig.exponent(i)
            x, y = a[:, i - 1], b[:, i - 1]
            if s == e // 2:
                lhs += row["coefficient"] * x ** (e // 2) * y ** (e // 2)
            else:
                lhs += row["coefficient"] * (x ** (e - s) * y**s + x**s * y ** (e - s))
        if k == r:
            rhs = group.rhs_coefficient * big_a**r * big_b**r
        else:
            rhs = group.rhs_coefficient * (
                big_a ** (2 * r - k) * big_b**k + big_a**k * big_b ** (2 * r - k)
            )
        rel = (lhs - rhs) / np.maximum(1.0, rhs)
        assert float(rel.max()) <= 1e-12


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def test_report_r5_matches_published_display():
    sig = GradingSignature(5)
    report = certificate_to_report(sig, load_fixture(5))
    text = report.render_text()
    assert (
        "120(a1^7 b1^3 + a1^3 b1^7) + 56(a2^5 b2^3 + a2^3 b2^5) + "
        "15(a3^4 b3^2 + a3^2 b3^4) <= 120(A^7 B^3 + A^3 B^7)"
    ) in text
    assert "252 a1^5 b1^5 + 70 a2^4 b2^4 + 20 a3^3 b3^3 + 6 a4^2 b4^2 + 2 a5 b5 <= 252 A^5 B^5" in text
    assert "210(a1^6 b1^4 + a1^4 b1^6) <= 210(A^6 B^4 + A^4 B^6)" in text


def test_report_includes_shadow_exponent_strings():
    report = certificate_to_report(GradingSignature(5), load_fixture(5))
    k3 = next(g for g in report.groups if g.k == 3)
    row = next(r for r in k3.lines if r["i"] == 2)
    assert row["shadow_exponents"] == ["28/5", "12/5"]
    assert row["orbit_exponents"] == [5, 3]


def test_report_r1_single_group():
    sig = GradingSignature(1)
    report = certificate_to_report(sig, search_certificate(sig))
    assert len(report.groups) == 1
    assert report.groups[0].display == "[k=1]  2 a1 b1 <= 2 A B"


def test_report_rejects_invalid_certificate():
    with pytest.raises(ValueError):
        certificate_to_report(GradingSignature(5), drop_line(load_fixture(5), 1, 1))


def test_report_json_round_trips_groups():
    report = certificate_to_report(GradingSignature(3), load_fixture(3))
    payload = report.to_json()
    assert payload["r"] == 3
    assert [g["k"] for g in payload["groups"]] == [1, 2, 3]
    assert payload["groups"][2]["is_middle"] is True


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def test_certificate_json_round_trip():
    cert = search_certificate(GradingSignature(7))
    assert certificate_from_json(certificate_to_json(cert)) == cert


def test_certificate_json_matches_documented_schema():
    payload = certificate_to_json(load_fixture(3))
    assert payload["r"] == 3
    assert payload["lines"][0] == {"i": 1, "s": 1, "k": 1}


@pytest.mark.parametrize(
    "payload",
    [
        {"r": 3},
        {"lines": []},
        {"r": 0, "lines": []},
        {"r": 3, "lines": [{"i": 1, "s": 1}]},
        {"r": 3, "lines": "nope"},
        {"r": True, "lines": []},
    ],
)
def test_certificate_json_rejects_malformed(payload):
    with pytest.raises(ValueError):
        certificate_from_json(payload)
