import copy
import hashlib
import json
import math
import pickle
import random
import sys
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
    InvalidCertificateError,
    ProofReport,
    Violation,
    _require_str_digits,
    certificate_from_json,
    certificate_to_json,
    certificate_to_report,
    check_certificate,
    check_line,
    report_pieces,
    search_certificate,
)
from gradenorm.cli import main
from gradenorm.exactmath import ExponentPair, binom, majorizes, ratio_to_str
from gradenorm.expansion import lhs_orbits, scaled_shadow
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
        reason = reference_line_reason(r, 2 * (r - ln.level + 1), ln.split, ln.target)
        if reason is not None:
            expected[ln, reason] += 1
    return expected


def reference_line_reason(r, e, s, k):
    shade = ExponentPair(Fraction(e * (2 * r - k), 2 * r), Fraction(e * k, 2 * r))
    if 2 * s != e and k == r:
        return "middle_mismatch"
    if loop_binom(e, s) > loop_binom(2 * r, k):
        return "coefficient"
    if not majorizes(shade, ExponentPair(Fraction(e - s), Fraction(s))):
        return "majorization"
    return None


def test_check_line_matches_reference_on_every_in_range_line_up_to_r_20():
    seen = Counter()
    for r in range(1, 21):
        sig = GradingSignature(r)
        for i, e in enumerate(sig.exponents, 1):
            for s in range(1, e // 2 + 1):
                for k in range(1, r + 1):
                    want = reference_line_reason(r, e, s, k)
                    assert check_line(sig, CertificateLine(i, s, k)) == want, (r, i, s, k)
                    seen[want] += 1
    assert sum(seen.values()) == 23_485
    assert set(seen) == {None, "coefficient", "majorization", "middle_mismatch"}


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
                # e_i // 2 + 1 for an in-range level; an earlier edit may
                # have moved this line's level out of range
                "split": (ln.level, sig.r + 2 - ln.level, ln.target),
                "target": (ln.level, ln.split, sig.r + rng.randint(1, 3)),
            }[field]
            lines[j] = CertificateLine(*bad)
    return tuple(lines)


def _sha256_lines(texts):
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


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
    # level 1 in two runs around level 2: the second run repeats an orbit
    # of the first and spends one of its slots again, and lines of both
    # levels target k < s
    one, two, *rest = _blocks((ln.level, ln.split, ln.target) for ln in base)
    half = len(one) // 2
    first, second = one[:half], one[half:]
    (i, s, _), k_spent = second[0], first[0][2]
    second = [(i, s, k_spent), *second[1:], first[1]]
    second[-2] = (*second[-2][:2], 1)
    two[-1] = (*two[-1][:2], 1)
    cert = Certificate(r, tuple(CertificateLine(*t) for t in first + two + second + _join(rest)))
    report = check_certificate(sig, cert)
    assert report == reference_check(sig, cert)
    assert {v.reason for v in report.violations} >= {"incomplete", "slot_conflict", "coefficient"}


def tampered_certificates():
    """Ten seeded tamperings per seed and length, r = 3..12, each built
    from lines and, for the same lines, parsed from JSON."""
    for r in range(3, 13):
        sig = GradingSignature(r)
        base = search_certificate(sig).lines
        for seed in range(4):
            rng = random.Random(7000 + 100 * seed + r)
            for _ in range(10):
                lines = tamper(rng, sig, base)
                rows = [{"i": ln.level, "s": ln.split, "k": ln.target} for ln in lines]
                yield sig, Certificate(r, lines), certificate_from_json({"r": r, "lines": rows})


def test_check_reports_of_seeded_tamperings_are_pinned():
    # digest recorded before certificates were stored as int columns
    texts = {"lines": [], "json": []}
    for sig, from_lines, from_json in tampered_certificates():
        for key, cert in (("lines", from_lines), ("json", from_json)):
            got = outcome(check_certificate, sig, cert)
            texts[key].append(got if isinstance(got, str) else json.dumps(got.to_json()))
    assert len(texts["lines"]) == 400
    assert texts["json"] == texts["lines"]
    assert (
        _sha256_lines(texts["lines"])
        == "aafe9133bec6b53db0c42a5724ec8474f4f792db5e1dba24f3790bf4d979e5c9"
    )


def test_violations_name_lines_equal_to_the_input_lines_in_order():
    for sig, from_lines, from_json in tampered_certificates():
        expected = outcome(reference_check, sig, from_lines)
        assert outcome(check_certificate, sig, from_lines) == expected
        assert outcome(check_certificate, sig, from_json) == expected


def test_tamper_draws_past_a_line_moved_out_of_range():
    # a "range" edit on a line whose level an earlier edit of the same
    # draw had set to r + 1 raised in the helper itself at draw 300 or so
    rng = random.Random(7)
    sig = GradingSignature(7)
    base = search_certificate(sig).lines
    for _ in range(300):
        cert = Certificate(7, tamper(rng, sig, base))
        assert outcome(check_certificate, sig, cert) == outcome(reference_check, sig, cert)


# Tamperings that keep the lines in level order, each breaking one
# condition of the builder's certificate: its splits, its lines, its
# order, its rising targets, a line test or an index range (swapped
# blocks break only the order and stay valid). A case returns the
# tampered (i, s, k) triples, or None where the length has no line to
# tamper with.

def _blocks(triples):
    """The triples of each level, in order."""
    blocks = {}
    for t in triples:
        blocks.setdefault(t[0], []).append(t)
    return list(blocks.values())


def _join(blocks):
    return [t for block in blocks for t in block]


def _split_skipped(sig, triples):
    # a line's split set to the next one, which is then repeated
    blocks = _blocks(triples)
    block = next((b for b in blocks if len(b) >= 2), None)
    if block is None:
        return None
    i, s, k = block[0]
    block[0] = (i, s + 1, k)
    return _join(blocks)


def _split_repeated(sig, triples):
    j = len(triples) // 2
    return triples[: j + 1] + [triples[j]] + triples[j + 1 :]


def _last_line_missing(level):
    def case(sig, triples):
        blocks = _blocks(triples)
        del blocks[level - 1][-1]
        return _join(blocks)

    return case


def _extra_line_at_level_1(sig, triples):
    blocks = _blocks(triples)
    blocks[0].append(blocks[0][0])
    return _join(blocks)


def _line_appended(sig, triples):
    return triples + [triples[-1]]


def _blocks_swapped(sig, triples):
    blocks = _blocks(triples)
    if len(blocks) < 2:
        return None
    blocks[0], blocks[-1] = blocks[-1], blocks[0]
    return _join(blocks)


def _level_relabelled(sig, triples):
    # (i, s, k) as (i + 1, s, k): a line of level i + 1 in level i's block
    blocks = _blocks(triples)
    block = next((b for b in blocks[:-1] if len(b) >= 2), None)
    if block is None:
        return None
    i, s, k = block[0]
    block[0] = (i + 1, s, k)
    return _join(blocks)


def _target_not_rising(step):
    # a line's target set to its predecessor's, minus step: preferably a
    # line whose new target still passes the line tests
    def case(sig, triples):
        r, picks = sig.r, []
        for j in range(1, len(triples)):
            (i0, _, k0), (i, s, _) = triples[j - 1], triples[j]
            if i0 == i and k0 - step >= 1:
                ok = reference_line_reason(r, sig.exponent(i), s, k0 - step) is None
                picks.append((not ok, j, k0 - step))
        if not picks:
            return None
        _, j, k = min(picks)
        i, s, _ = triples[j]
        return triples[:j] + [(i, s, k)] + triples[j + 1 :]

    return case


def _retarget_failing(reason):
    # the first line retargeted to fail with ``reason``, preferably one
    # whose new target still rises between its neighbours'
    def case(sig, triples):
        r, picks = sig.r, []
        for j, (i, s, _) in enumerate(triples):
            below = triples[j - 1][2] if j and triples[j - 1][0] == i else 0
            above = triples[j + 1][2] if j + 1 < len(triples) and triples[j + 1][0] == i else r + 1
            for k in range(1, r + 1):
                if reference_line_reason(r, sig.exponent(i), s, k) == reason:
                    picks.append((not below < k < above, j, k))
        if not picks:
            return None
        _, j, k = min(picks)
        i, s, _ = triples[j]
        return triples[:j] + [(i, s, k)] + triples[j + 1 :]

    return case


def _out_of_range(field):
    def case(sig, triples):
        j = len(triples) // 2
        i, s, k = triples[j]
        bad = (i, sig.r + 2 - i, k) if field == "split" else (i, s, sig.r + 1)
        return triples[:j] + [bad] + triples[j + 1 :]

    return case


def _in_order_cases(r):
    yield "split skipped", _split_skipped
    yield "split repeated", _split_repeated
    for level in sorted({1, (r + 1) // 2, r}):
        yield f"level {level} missing its last line", _last_line_missing(level)
    yield "extra line at level 1", _extra_line_at_level_1
    yield "line appended", _line_appended
    yield "first and last blocks swapped", _blocks_swapped
    yield "line relabelled to the next level", _level_relabelled
    yield "target equal to the previous one", _target_not_rising(0)
    yield "target below the previous one", _target_not_rising(1)
    yield "k = r on a non-middle orbit", _retarget_failing("middle_mismatch")
    yield "retarget failing the coefficient test", _retarget_failing("coefficient")
    yield "retarget failing majorization", _retarget_failing("majorization")
    yield "split out of range", _out_of_range("split")
    yield "target out of range", _out_of_range("target")


@pytest.mark.parametrize("r", [1, 2, 5, 12, 40])
def test_checker_matches_reference_on_tamperings_in_level_order(r):
    sig = GradingSignature(r)
    cert = search_certificate(sig)
    base = list(zip(cert.levels, cert.splits, cert.targets))
    ran = Counter()
    for name, case in _in_order_cases(r):
        triples = case(sig, list(base))
        if triples is None:
            continue
        tampered = Certificate(r, tuple(CertificateLine(*t) for t in triples))
        expected = outcome(reference_check, sig, tampered)
        assert outcome(check_certificate, sig, tampered) == expected, name
        ran["raised" if isinstance(expected, str) else expected.valid] += 1
    # at r = 1 only the repeats, the missing line and the ranges apply;
    # swapped blocks (and at r = 5 a target moved below) stay valid
    invalid, valid = {1: (4, 0), 2: (10, 1), 5: (12, 2), 12: (13, 1), 40: (13, 1)}[r]
    assert ran == Counter({False: invalid, True: valid, "raised": 2})


def _count_rows_and_binoms(monkeypatch):
    """The n of every ``_binom_row`` and ``binom`` the certificate module calls."""
    rows, binoms = [], []
    real_row, real_binom = certificate_mod._binom_row, certificate_mod.binom
    monkeypatch.setattr(certificate_mod, "_binom_row", lambda n, t: rows.append(n) or real_row(n, t))
    monkeypatch.setattr(certificate_mod, "binom", lambda n, k: binoms.append(n) or real_binom(n, k))
    return rows, binoms


def test_builder_certificates_are_checked_in_one_in_order_pass(monkeypatch):
    # the builder's targets have k >= s, so no line reads a coefficient
    rows, binoms = _count_rows_and_binoms(monkeypatch)
    for r in range(1, 61):
        sig = GradingSignature(r)
        assert check_certificate(sig, search_certificate(sig)) == CheckReport(True, ())
    assert check_certificate(GradingSignature(5), load_fixture(5)).valid
    assert rows == binoms == []


def test_valid_certificate_with_two_lines_swapped_in_a_level_checks_valid():
    sig = GradingSignature(12)
    lines = list(search_certificate(sig).lines)
    lines[3], lines[7] = lines[7], lines[3]  # level 1 has splits 1..12
    cert = Certificate(12, tuple(lines))
    assert check_certificate(sig, cert) == CheckReport(True, ()) == reference_check(sig, cert)


def test_only_one_line_test_can_fail_on_a_line():
    # the lemma that lets a line read its coefficients only when k < s:
    # for k >= s the coefficient test holds, for k < s majorization does
    for r in range(1, 61):
        two_r = 2 * r
        c_slots = [math.comb(two_r, k) for k in range(r + 1)]
        for e in range(2, two_r + 1, 2):
            for s in range(1, e // 2 + 1):
                c_orbit = math.comb(e, s)
                assert all(c_orbit <= c_slots[k] for k in range(s, r + 1)), (r, e, s)
                assert all(e * k <= two_r * s for k in range(1, s)), (r, e, s)


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


def test_shuffled_certificate_is_checked_and_reported_level_by_level(monkeypatch):
    # no row for lines with k >= s; a row of C(e_i, s) per level with a
    # line below its split, and the groups list their lines by level
    sig = GradingSignature(30)
    cert = search_certificate(sig)
    lines = list(cert.lines)
    rng = random.Random(30)
    rng.shuffle(lines)
    shuffled = Certificate(sig.r, lines)
    rows, _ = _count_rows_and_binoms(monkeypatch)
    assert check_certificate(sig, shuffled).valid
    assert rows == []
    assert certificate_to_report(sig, shuffled) == certificate_to_report(sig, cert)
    picks = rng.sample([j for j, ln in enumerate(lines) if ln.split > 1], 12)
    for j in picks:
        ln = lines[j]
        lines[j] = CertificateLine(ln.level, ln.split, rng.randint(1, ln.split - 1))
    retargeted = Certificate(sig.r, lines)
    rows.clear()
    assert check_certificate(sig, retargeted) == reference_check(sig, retargeted)
    below = sorted({lines[j].level for j in picks})
    assert rows == [2 * sig.r] + [sig.exponent(i) for i in below]


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
        k = group["k"]
        lhs = np.zeros(n)
        for row in group["lines"]:
            i, s = row["i"], row["s"]
            e = sig.exponent(i)
            x, y = a[:, i - 1], b[:, i - 1]
            if s == e // 2:
                lhs += row["coefficient"] * x ** (e // 2) * y ** (e // 2)
            else:
                lhs += row["coefficient"] * (x ** (e - s) * y**s + x**s * y ** (e - s))
        if k == r:
            rhs = group["rhs_coefficient"] * big_a**r * big_b**r
        else:
            rhs = group["rhs_coefficient"] * (
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
    k3 = next(g for g in report.groups if g["k"] == 3)
    row = next(r for r in k3["lines"] if r["i"] == 2)
    assert row["shadow_exponents"] == ["28/5", "12/5"]
    assert row["orbit_exponents"] == [5, 3]


def test_report_r1_single_group():
    sig = GradingSignature(1)
    report = certificate_to_report(sig, search_certificate(sig))
    assert len(report.groups) == 1
    assert report.groups[0]["display"] == "[k=1]  2 a1 b1 <= 2 A B"


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
# the report as a view, and its writer
# ---------------------------------------------------------------------------

def test_report_of_a_bad_certificate_raises_at_the_call():
    sig = GradingSignature(5)
    with pytest.raises(InvalidCertificateError):
        certificate_to_report(sig, retarget(load_fixture(5), 1, 1, 5))
    out_of_range = Certificate._from_columns(5, [1], [1], [6])
    with pytest.raises(ValueError, match="target 6 out of range for r=5"):
        certificate_to_report(sig, out_of_range)
    with pytest.raises(ValueError, match="certificate is for r=4"):
        certificate_to_report(sig, load_fixture(4))


def test_report_view_builds_its_groups_once_and_equals_the_eager_report():
    sig = GradingSignature(6)
    view = certificate_to_report(sig, search_certificate(sig))
    groups = view.groups
    assert view.groups is groups and type(groups) is tuple
    assert all(type(g) is dict and type(g["lines"]) is tuple for g in groups)
    eager = ProofReport(6, groups)
    assert eager == view and view == eager and repr(eager) == repr(view)
    with pytest.raises(TypeError):
        hash(view)
    # a view that has not built its groups pickles and copies too
    for report in (certificate_to_report(sig, search_certificate(sig)), view):
        for twin in (pickle.loads(pickle.dumps(report)), copy.copy(report), copy.deepcopy(report)):
            assert type(twin) is ProofReport and twin == report == eager


@pytest.mark.parametrize("r", range(1, 13))
def test_report_view_renders_as_the_eager_report_and_the_writer(r):
    sig = GradingSignature(r)
    view = certificate_to_report(sig, search_certificate(sig))
    text, payload = view.render_text(), view.to_json()
    eager = ProofReport(r, certificate_to_report(sig, search_certificate(sig)).groups)
    assert (eager.render_text(), eager.to_json()) == (text, payload)
    assert "".join(report_pieces(view)) == text
    assert "".join(report_pieces(view, as_json=True)) == json.dumps(payload)


def retargeted_and_shuffled_r5():
    """Two valid r = 5 certificates the builder does not emit: level 4
    sends its middle orbit (s = 2) to k = 1, below s = 1's k = 2, so in
    order of k its splits do not step by one; and the same lines
    shuffled, so the levels do not ascend."""
    cert = retarget(search_certificate(GradingSignature(5)), 4, 2, 1)
    order = list(range(len(cert.levels)))
    random.Random(5).shuffle(order)
    shuffled = Certificate._from_columns(
        5, *([column[j] for j in order] for column in (cert.levels, cert.splits, cert.targets))
    )
    return cert, shuffled


def test_report_writer_takes_any_valid_certificate():
    sig = GradingSignature(5)
    cert, shuffled = retargeted_and_shuffled_r5()
    view = certificate_to_report(sig, cert)
    assert view.groups[0]["lines"][-1]["i"] == 4
    for report in (view, certificate_to_report(sig, shuffled)):
        assert "".join(report_pieces(report)) == view.render_text()
        assert "".join(report_pieces(report, True)) == json.dumps(view.to_json())


def _reference_groups(cert):
    """The groups of a valid certificate, from its columns, ``math.comb``
    and ``scaled_shadow``, without the report code."""

    def power(x, p):
        return x if p == 1 else f"{x}^{p}"

    def symmetric(c, a, b, hi, lo):
        if hi == lo:
            return f"{c} {power(a, hi)} {power(b, hi)}"
        return f"{c}({power(a, hi)} {power(b, lo)} + {power(a, lo)} {power(b, hi)})"

    r, two_r = cert.r, 2 * cert.r
    lines = sorted(zip(cert.levels, cert.splits, cert.targets))
    groups = []
    for k in range(1, r + 1):
        rows, terms = [], []
        for i, s, _ in (line for line in lines if line[2] == k):
            e = two_r + 2 - 2 * i
            c = math.comb(e, s)
            hi, lo = scaled_shadow(two_r, e, k)
            rows.append({"i": i, "s": s, "coefficient": c, "orbit_exponents": [e - s, s],
                         "shadow_exponents": [ratio_to_str(hi, two_r), ratio_to_str(lo, two_r)]})
            terms.append(symmetric(c, f"a{i}", f"b{i}", e - s, s))
        if rows:
            c_slot = math.comb(two_r, k)
            display = f"[k={k}]  {' + '.join(terms)} <= {symmetric(c_slot, 'A', 'B', two_r - k, k)}"
            groups.append({"k": k, "rhs_coefficient": c_slot, "is_middle": k == r,
                           "display": display, "lines": tuple(rows)})
    return tuple(groups)


@pytest.mark.parametrize("r", range(1, 13))
def test_report_view_groups_match_a_reference_built_from_the_columns(r):
    sig = GradingSignature(r)
    certs = [search_certificate(sig)]
    if r == 5:
        certs += retargeted_and_shuffled_r5()
    for cert in certs:
        groups, expected = certificate_to_report(sig, cert).groups, _reference_groups(cert)
        assert groups == expected
        assert repr(groups) == repr(expected)  # key order, and tuples of lines


def test_report_writer_needs_a_view():
    with pytest.raises(TypeError, match="certificate_to_report"):
        next(report_pieces(ProofReport(1, ())))


@pytest.mark.parametrize("r, fits", [(1, True), (7145, True), (7146, False), (10**12, False)])
def test_report_length_is_checked_against_the_int_to_str_limit(r, fits):
    # C(2r, r) has 4,300 digits at r = 7145 and 4,301 at r = 7146; no
    # certificate is built, and r = 10**12 forms no binomial
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        if fits:
            _require_str_digits(r)
        else:
            with pytest.raises(ValueError, match=rf"r={r}\b.*4300 digits"):
                _require_str_digits(r)
        # no limit, no check
        sys.set_int_max_str_digits(0)
        _require_str_digits(min(r, 7146))
    finally:
        sys.set_int_max_str_digits(saved)


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


# The first malformed row names itself; texts recorded before certificates
# were stored as int columns. The row sits between a valid row and two
# other malformed rows.
MALFORMED_ROWS = [
    *(
        ({"i": 1, "s": 1, "k": 1, key: value}, f"{name} must be a positive integer, got {text}")
        for key, name in (("i", "level"), ("s", "split"), ("k", "target"))
        for value, text in (
            (True, "True"),
            (False, "False"),
            (1.0, "1.0"),
            (2.5, "2.5"),
            (0, "0"),
            (-1, "-1"),
            ("1", "'1'"),
            (None, "None"),
        )
    ),
    ({"i": 1, "s": 1}, "certificate line needs keys 'i', 's', 'k': {'i': 1, 's': 1}"),
    ({"s": 1, "k": 1}, "certificate line needs keys 'i', 's', 'k': {'s': 1, 'k': 1}"),
    ([1, 1, 1], "certificate line needs keys 'i', 's', 'k': [1, 1, 1]"),
    ("row", "certificate line needs keys 'i', 's', 'k': 'row'"),
    (None, "certificate line needs keys 'i', 's', 'k': None"),
    (3, "certificate line needs keys 'i', 's', 'k': 3"),
]


def with_malformed_row(row, *after):
    return {"r": 3, "lines": [{"i": 1, "s": 1, "k": 1}, row, *after]}


@pytest.mark.parametrize("after", [(), ({"i": -7, "s": 1, "k": 1}, {"i": 1})])
@pytest.mark.parametrize("row, message", MALFORMED_ROWS)
def test_certificate_json_names_the_first_malformed_row(row, message, after):
    with pytest.raises(ValueError) as info:
        certificate_from_json(with_malformed_row(row, *after))
    assert str(info.value) == message


@pytest.mark.parametrize("row, message", MALFORMED_ROWS)
def test_check_of_a_malformed_row_is_a_usage_error_naming_it(capsys, tmp_path, row, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(with_malformed_row(row)), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_certificate_json_accepts_int_subclasses_as_certificate_line_does():
    class Index(int):
        pass

    rows = [{"i": Index(1), "s": 1, "k": Index(1)}]
    cert = certificate_from_json({"r": 1, "lines": rows})
    assert cert == Certificate(1, (CertificateLine(1, 1, 1),))
    assert check_certificate(GradingSignature(1), cert).valid


# ---------------------------------------------------------------------------
# storage: three int columns, whichever way the certificate was built
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [1, 5, 12, 40])
def test_certificates_built_three_ways_are_equal(r):
    searched = search_certificate(GradingSignature(r))
    parsed = certificate_from_json(json.loads(json.dumps(certificate_to_json(searched))))
    columns = (searched.levels, searched.splits, searched.targets)
    lines = tuple(CertificateLine(i, s, k) for i, s, k in zip(*columns))
    from_lines = Certificate(r, lines)
    for cert in (searched, parsed):
        assert cert == from_lines and from_lines == cert
        assert hash(cert) == hash(from_lines)
        assert cert.lines == lines
        assert repr(cert) == repr(from_lines)
    assert from_lines.lines is lines
    assert (from_lines.levels, from_lines.splits, from_lines.targets) == columns
    assert len({searched, parsed, from_lines}) == 1
    assert searched != Certificate(r, lines[:-1]) and searched != Certificate(r + 1, lines)


def test_certificate_lines_are_built_once_and_the_certificate_is_frozen():
    cert = search_certificate(GradingSignature(6))
    assert cert.lines is cert.lines
    assert repr(cert).startswith("Certificate(r=6, lines=(CertificateLine(level=1, split=1")
    with pytest.raises(AttributeError):
        cert.r = 7
    with pytest.raises(AttributeError):
        cert.levels = ()


def test_certificate_pickles_and_copies_by_value():
    cert = search_certificate(GradingSignature(9))
    for twin in (pickle.loads(pickle.dumps(cert)), copy.copy(cert), copy.deepcopy(cert)):
        assert twin == cert and twin.lines == cert.lines


@pytest.mark.parametrize(
    "argv",
    [
        ["prove", "--r", "12", "--json"],
        ["check", str(FIXTURES / "cert_r5.json")],
        ["report", str(FIXTURES / "cert_r5.json"), "--json"],
        ["report", str(FIXTURES / "cert_r5.json")],
    ],
)
def test_exact_commands_build_no_certificate_line(monkeypatch, capsys, argv):
    # a valid certificate is built, checked and rendered from its columns
    def no_line(line, *fields):
        raise AssertionError(f"CertificateLine{fields} built")

    monkeypatch.setattr(CertificateLine, "__init__", no_line)
    assert main(argv) == 0
    assert capsys.readouterr().out
