import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gradenorm.certificate as certificate_mod
from gradenorm.certificate import (
    REASONS,
    Certificate,
    CertificateLine,
    CheckReport,
    Violation,
    certificate_from_json,
    certificate_to_json,
    certificate_to_report,
    check_certificate,
    check_line,
    search_certificate,
)
from gradenorm.exactmath import ExponentPair, binom, majorizes
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
    # binom(6, 2) = 15 > binom(14, 1) = 14 at r = 7: a miss by one
    assert check_line(GradingSignature(7), CertificateLine(5, 2, 1)) == "coefficient"


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


# Exhaustive mutations against a criterion written here: binomials by a
# multiplicative loop, majorization on Fraction exponents, and its own
# completeness and slot rules (a repeated orbit or slot is charged to
# every line after the first that claims it).

def loop_binom(n, k):
    c = 1
    for j in range(k):
        c = c * (n - j) // (j + 1)
    return c


def reference_violations(sig, lines):
    r = sig.r
    expected = Counter()
    orbits = Counter()
    slots = Counter()
    for ln in lines:
        orbits[ln.level, ln.split] += 1
        if orbits[ln.level, ln.split] > 1:
            expected[ln, "incomplete"] += 1
        slots[ln.target, ln.level] += 1
        if slots[ln.target, ln.level] > 1:
            expected[ln, "slot_conflict"] += 1
    for i in range(1, r + 1):
        e = 2 * (r - i + 1)
        for s in range(1, e // 2 + 1):
            if (i, s) not in orbits:
                expected[None, "incomplete"] += 1
    for ln in lines:
        e = 2 * (r - ln.level + 1)
        k, s = ln.target, ln.split
        shade = ExponentPair(Fraction(e * (2 * r - k), 2 * r), Fraction(e * k, 2 * r))
        if 2 * s != e and k == r:
            expected[ln, "middle_mismatch"] += 1
        elif loop_binom(e, s) > loop_binom(2 * r, k):
            expected[ln, "coefficient"] += 1
        elif not majorizes(shade, ExponentPair(Fraction(e - s), Fraction(s))):
            expected[ln, "majorization"] += 1
    return expected


def single_line_mutations(cert):
    lines = cert.lines
    for j, ln in enumerate(lines):
        for k in range(1, cert.r + 1):
            yield lines[:j] + (CertificateLine(ln.level, ln.split, k),) + lines[j + 1 :]
        yield lines[:j] + lines[j + 1 :]
        yield lines + (ln,)


@pytest.mark.parametrize("r", range(1, 7))
def test_checker_matches_reference_on_every_single_line_mutation(r):
    sig = GradingSignature(r)
    seen = set()
    cases = 0
    for lines in single_line_mutations(search_certificate(sig)):
        expected = reference_violations(sig, lines)
        report = check_certificate(sig, Certificate(r, lines))
        assert report.valid == (not expected), lines
        assert Counter((v.line, v.reason) for v in report.violations) == expected, lines
        seen.update(reason for _, reason in expected)
        cases += 1
    n = r * (r + 1) // 2
    assert cases == n * (r + 2)
    if r >= 4:
        assert seen == set(REASONS)


def test_report_calls_check_certificate_exactly_once(monkeypatch):
    calls = []
    real_check = certificate_mod.check_certificate

    def counting(sig, cert):
        calls.append(cert)
        return real_check(sig, cert)

    monkeypatch.setattr(certificate_mod, "check_certificate", counting)
    sig = GradingSignature(12)
    cert = search_certificate(sig)
    certificate_to_report(sig, cert)
    assert calls == [cert]


# The batch checker against the per-line definition: the three loops of
# the checker as it was written over ``check_line``, on seeded random
# tamperings of the closed-form certificate.

def reference_check(sig, cert):
    if cert.r != sig.r:
        raise ValueError(f"certificate is for r={cert.r}, signature has r={sig.r}")
    violations = []
    seen_orbits = {}
    for line in cert.lines:
        key = (line.level, line.split)
        if key in seen_orbits:
            detail = f"duplicate line for orbit (i={key[0]}, s={key[1]})"
            violations.append(Violation(line, "incomplete", detail))
        else:
            seen_orbits[key] = line
    for i in range(1, sig.r + 1):
        for s in range(1, sig.exponent(i) // 2 + 1):
            if (i, s) not in seen_orbits:
                detail = f"orbit (i={i}, s={s}) has no line"
                violations.append(Violation(None, "incomplete", detail))
    seen_slots = set()
    for line in cert.lines:
        slot = (line.target, line.level)
        if slot in seen_slots:
            detail = f"slot (k={line.target}, i={line.level}) already spent"
            violations.append(Violation(line, "slot_conflict", detail))
        else:
            seen_slots.add(slot)
    for line in cert.lines:
        reason = check_line(sig, line)
        if reason is not None:
            violations.append(Violation(line, reason))
    return CheckReport(valid=not violations, violations=tuple(violations))


def tamper(rng, sig, lines):
    """One to five random edits: duplicate, drop, re-target, move,
    shuffle all lines, or (rarely) push one index out of range."""
    lines = list(lines)
    for _ in range(rng.randint(1, 5)):
        j = rng.randrange(len(lines))
        ln = lines[j]
        kind = rng.choice(["duplicate", "drop", "retarget", "retarget", "move", "shuffle", "range"])
        if kind == "duplicate":
            lines.insert(rng.randrange(len(lines) + 1), ln)
        elif kind == "drop" and len(lines) > 1:
            del lines[j]
        elif kind == "retarget":
            lines[j] = CertificateLine(ln.level, ln.split, rng.randint(1, sig.r))
        elif kind == "move":
            lines.insert(rng.randrange(len(lines) + 1), lines.pop(j))
        elif kind == "shuffle":
            rng.shuffle(lines)
        elif kind == "range" and rng.random() < 0.3:
            field = rng.choice(["level", "split", "target"])
            bad = {
                "level": (sig.r + 1, ln.split, ln.target),
                "split": (ln.level, sig.exponent(ln.level) // 2 + 1, ln.target),
                "target": (ln.level, ln.split, sig.r + rng.randint(1, 3)),
            }[field]
            lines[j] = CertificateLine(*bad)
    return tuple(lines)


def outcome(check, sig, cert):
    try:
        return check(sig, cert)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("r", [7, 12, 24, 40])
def test_checker_matches_per_line_reference_on_seeded_tamperings(r):
    rng = random.Random(1000 + r)
    sig = GradingSignature(r)
    base = search_certificate(sig).lines
    kinds = Counter()
    for _ in range(40):
        cert = Certificate(r, tamper(rng, sig, base))
        expected = outcome(reference_check, sig, cert)
        assert outcome(check_certificate, sig, cert) == expected
        if isinstance(expected, str):
            kinds["raised"] += 1
        else:
            kinds["valid" if expected.valid else "invalid"] += 1
    assert kinds["raised"] and kinds["invalid"]
    # several failing lines out of level order: per-line reasons follow the lines
    lines = list(base)
    rng.shuffle(lines)
    lines[:6] = [CertificateLine(ln.level, ln.split, 1) for ln in lines[:6]]
    cert = Certificate(r, tuple(lines))
    assert check_certificate(sig, cert) == reference_check(sig, cert)


def test_binomial_rows_equal_math_comb():
    for n in range(401):
        assert certificate_mod._binom_row(n, n) == [math.comb(n, s) for s in range(n + 1)]


def test_closed_form_certificate_checks_valid_for_every_r_up_to_150():
    for r in range(1, 151):
        sig = GradingSignature(r)
        assert check_certificate(sig, search_certificate(sig)).valid, r


def test_check_certificate_makes_no_per_line_binom_call(monkeypatch):
    calls = []
    real_binom = certificate_mod.binom

    def counting(n, k):
        calls.append((n, k))
        return real_binom(n, k)

    monkeypatch.setattr(certificate_mod, "binom", counting)
    sig = GradingSignature(200)
    cert = search_certificate(sig)
    assert check_certificate(sig, cert).valid
    assert len(calls) <= sig.r + 1  # at most one per row, none per line
    assert len(cert.lines) == 20100


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


def _sha256_lines(texts):
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def test_report_json_and_text_are_pinned_for_r_up_to_60():
    # digests recorded before the checker and the report moved to integers
    reports = [
        certificate_to_report(GradingSignature(r), search_certificate(GradingSignature(r)))
        for r in range(1, 61)
    ]
    assert (
        _sha256_lines(json.dumps(rep.to_json()) for rep in reports)
        == "3599706b4559345bbf89249145d8aa69eb1b84b7f74adbe30cb30a6ecaa7f9e7"
    )
    assert (
        _sha256_lines(rep.render_text() for rep in reports)
        == "02864109d95013553a1022d214ab9a93a8c580d2b386213ea64fe59747a5b7a6"
    )


def test_check_reports_are_pinned_for_fixtures_and_an_empty_certificate():
    certs = [load_fixture(r) for r in (3, 4, 5)] + [Certificate(300, ())]
    assert (
        _sha256_lines(
            json.dumps(check_certificate(GradingSignature(c.r), c).to_json()) for c in certs
        )
        == "eb3eca739ac4ddece3b1ceb884c1e39b7cde4512cc4cff87a6203f2aed53aec0"
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
