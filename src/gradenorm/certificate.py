"""Proof certificates for the scalar triangle inequality: the proof
object, a trusted exact checker, and an untrusted closed-form builder
that emits a certificate for any grading length.

A certificate assigns every left-hand orbit (i, s) to a right-hand
orbit k. A line (i, s, k) is admissible when

  (a) coefficient:  binom(e_i, s) <= binom(2r, k), and
  (b) majorization: the Hölder shadow exponents of slot (k, i) majorize
      the orbit exponents (e_i - s, s).

Additionally no two lines of one level may share a target (each Hölder
slot (k, i) may be spent once), every orbit must be covered exactly
once, and a symmetric-pair orbit may never target the middle k = r,
whose right-hand side is a single balanced monomial; condition (b)
already enforces this because the balanced shadow (e_i/2, e_i/2) cannot
majorize (e_i - s, s) with s < e_i/2.

Soundness. Fix nonnegative profiles a, b with scalar norms A, B. For a
line (i, s, k), (b) plus the two-variable Muirhead inequality bound the
orbit monomials by the matching shadow monomials, and (a) lifts the
bound to the coefficients:

    binom(e_i, s) (a_i^{e_i-s} b_i^s + a_i^s b_i^{e_i-s})
        <= binom(2r, k) (a_i^alpha b_i^beta + a_i^beta b_i^alpha).

A middle orbit contributes the single monomial a_i^{e_i/2} b_i^{e_i/2},
which the slot also covers since a shadow pair dominates twice the
balanced monomial. Summing the slots spent on one target k < r and
applying Hölder's inequality bounds the total by
binom(2r, k)(A^{2r-k} B^k + A^k B^{2r-k}); for k = r the same step with
exponents (2, 2) gives binom(2r, r) A^r B^r. Summing over k and adding
back the cancelled pure terms yields

    sum_i (a_i + b_i)^{e_i}  <=  (A + B)^{2r},

the scalar triangle inequality. Per-level Euclidean triangle
inequalities and monotonicity then extend it to graded vectors.

The checker computes with Python integers only. It tests (b) with every
exponent multiplied by 2r: the shadow becomes (e_i (2r - k), e_i k)
(``expansion.scaled_shadow``) and the orbit (2r (e_i - s), 2r s), both
integer pairs, and scaling both pairs by the same positive factor
changes neither their sums nor which leading exponent is larger, so
this is the definition of majorization itself (``exactmath.majorizes``),
not a lemma about the builder. Orbits come from ``expansion`` too, so
no ``Fraction`` is built. ``check_line`` takes the binomials of (a) from
``binom``; ``check_certificate`` and the report take them from one row
of C(2r, k) per call and one row of C(e_i, s) per level, built by the
exact recurrence C(n, s+1) = C(n, s)(n - s)/(s + 1), so no table
outlives a call. Both make the same comparisons, in one line predicate.
The builder is untrusted by design: whatever it returns is re-checked.
It targets each orbit at k = floor(n s / e) with n = 2r and
e = e_i <= n. That k passes (a): k >= s and n - k >= n (e - s) / e >=
e - s, and C(x + y, x) grows in both x and y, so C(e, s) =
C(s + (e - s), s) <= C(k + (n - k), k) = C(n, k). It passes (b),
which is e (n - k) >= n (e - s), that is k <= n s / e. It is injective
per level (floors of a sequence with increments n/e >= 1 are strictly
increasing), so a certificate exists for every length and no search is
needed. The paper proves length 5; the other lengths rest on this
argument, and the checker still checks every line.

Checker and builder are pure and can run concurrently without
coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import attrgetter
from typing import Any

from .exactmath import GradingSignature, binom
from .expansion import orbit_triples, scaled_shadow

# The rational-exponent definitions the checker reproduces in integers.
# They stay module attributes because the benchmark's traced run
# (bench/tracing.py) rebinds them here by name.
from .exactmath import majorizes  # noqa: F401
from .expansion import lhs_orbits, orbit_exponents, shadow  # noqa: F401

__all__ = [
    "CertificateLine",
    "Certificate",
    "Violation",
    "CheckReport",
    "ReportGroup",
    "ProofReport",
    "REASONS",
    "InvalidCertificateError",
    "check_line",
    "check_certificate",
    "search_certificate",
    "certificate_to_report",
    "certificate_to_json",
    "certificate_from_json",
]

REASON_COEFFICIENT = "coefficient"
REASON_MAJORIZATION = "majorization"
REASON_SLOT_CONFLICT = "slot_conflict"
REASON_INCOMPLETE = "incomplete"
REASON_MIDDLE_MISMATCH = "middle_mismatch"

_FIELDS = ("level", "split", "target")

REASONS = (
    REASON_COEFFICIENT,
    REASON_MAJORIZATION,
    REASON_SLOT_CONFLICT,
    REASON_INCOMPLETE,
    REASON_MIDDLE_MISMATCH,
)


class InvalidCertificateError(ValueError):
    """A well-formed certificate that fails the check. Other
    ``ValueError``s are domain errors: an index out of range, or a
    certificate for another length."""


@dataclass(frozen=True)
class CertificateLine:
    """One grouped comparison: left orbit (level, split) bounded by the
    shadow slot of right-hand orbit ``target``."""

    level: int
    split: int
    target: int

    def __post_init__(self) -> None:
        i, s, k = self.level, self.split, self.target
        if type(i) is int and type(s) is int and type(k) is int and i > 0 and s > 0 and k > 0:
            return
        for name in _FIELDS:
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class Certificate:
    """A complete assignment of left orbits to right orbits for length r."""

    r: int
    lines: tuple[CertificateLine, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lines", tuple(self.lines))


@dataclass(frozen=True)
class Violation:
    line: CertificateLine | None
    reason: str
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    valid: bool
    violations: tuple[Violation, ...]

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [
                {
                    "line": None if v.line is None else _line_to_json(v.line),
                    "reason": v.reason,
                    "detail": v.detail,
                }
                for v in self.violations
            ],
        }


def _binom_row(n: int, top: int) -> list[int]:
    """C(n, 0..top) by C(n, s+1) = C(n, s)(n-s)/(s+1); every division is exact."""
    row = [1] * (top + 1)
    for s in range(top):
        row[s + 1] = row[s] * (n - s) // (s + 1)
    return row


def _line_reason(r: int, e: int, s: int, k: int, c_orbit: int, c_slot: int) -> str | None:
    """The one line formula: the tests of an in-range line (i, s, k), with
    e = e_i, c_orbit = C(e, s) and c_slot = C(2r, k)."""
    if k == r and s != e // 2:
        # a symmetric pair cannot be charged to the single middle monomial
        return REASON_MIDDLE_MISMATCH
    if c_orbit > c_slot:
        return REASON_COEFFICIENT
    two_r = 2 * r
    hi, lo = scaled_shadow(two_r, e, k)
    # the orbit scaled by 2r; s <= e/2, so orbit_hi is its larger exponent
    orbit_hi, orbit_lo = two_r * (e - s), two_r * s
    if hi + lo != orbit_hi + orbit_lo or max(hi, lo) < orbit_hi:
        return REASON_MAJORIZATION
    return None


def check_line(sig: GradingSignature, line: CertificateLine) -> str | None:
    """None when the line is admissible, otherwise the violation reason.

    Integers only: big-integer coefficient comparison, and majorization
    of the exponent pairs scaled by 2r (see the module docstring).
    Out-of-range indices are a domain error.
    """
    e = sig.exponent(line.level)  # raises on an out-of-range level
    s, k = line.split, line.target
    if not 1 <= s <= e // 2:
        raise ValueError(f"split {s} out of range for level {line.level} (e={e})")
    if not 1 <= k <= sig.r:
        raise ValueError(f"target {k} out of range for r={sig.r}")
    return _line_reason(sig.r, e, s, k, binom(e, s), binom(2 * sig.r, k))


def check_certificate(sig: GradingSignature, cert: Certificate) -> CheckReport:
    """Validate completeness, slot discipline, and every line.

    A valid report means the certificate is a sound proof of the scalar
    triangle inequality for this length (see the module docstring). The
    first out-of-range line raises ``ValueError`` from ``check_line``, as
    does a certificate for another length. Violations are listed as
    duplicates, missing orbits, slot conflicts, then per line in order.
    """
    r, exponents, lines = sig.r, sig.exponents, cert.lines
    if cert.r != r:
        raise ValueError(f"certificate is for r={cert.r}, signature has r={r}")
    levels, splits, targets = (list(map(attrgetter(f), lines)) for f in _FIELDS)
    # the first line with an index out of range; s <= e_i // 2 is s <= r + 1 - i
    for line, i, s, k in zip(lines, levels, splits, targets):
        if not (1 <= i <= r and 1 <= s <= r + 1 - i and 1 <= k <= r):
            check_line(sig, line)  # raises

    # sets as long as the lines mean that no orbit and no slot repeats
    seen_orbits = set(zip(levels, splits))
    duplicates, conflicts = [], []
    if len(seen_orbits) < len(lines) or len(set(zip(targets, levels))) < len(lines):
        orbits, slots = set(), set()
        for line, i, s, k in zip(lines, levels, splits, targets):
            if (i, s) in orbits:
                detail = f"duplicate line for orbit (i={i}, s={s})"
                duplicates.append(Violation(line, REASON_INCOMPLETE, detail))
            if (k, i) in slots:
                detail = f"slot (k={k}, i={i}) already spent"
                conflicts.append(Violation(line, REASON_SLOT_CONFLICT, detail))
            orbits.add((i, s))
            slots.add((k, i))
    missing = []
    if len(seen_orbits) < r * (r + 1) // 2:  # every line is in range here
        for i, _, s in orbit_triples(sig):
            if (i, s) not in seen_orbits:
                detail = f"orbit (i={i}, s={s}) has no line"
                missing.append(Violation(None, REASON_INCOMPLETE, detail))

    # each line level by level, with one row of C(e_i, s) alive at a time
    c_slots = _binom_row(2 * r, r)
    failed = {}
    level = 0
    triples = zip(levels, splits, targets)
    for i, s, k in triples if levels == sorted(levels) else sorted(triples):
        if i != level:
            level, e = i, exponents[i - 1]
            c_orbits = _binom_row(e, e // 2)
        reason = _line_reason(r, e, s, k, c_orbits[s], c_slots[k])
        if reason is not None:
            failed[i, s, k] = reason
    per_line = []
    if failed:
        for line, key in zip(lines, zip(levels, splits, targets)):
            if key in failed:
                per_line.append(Violation(line, failed[key]))
    violations = duplicates + missing + conflicts + per_line
    return CheckReport(valid=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Builder: the closed-form target of every orbit
# ---------------------------------------------------------------------------

def search_certificate(sig: GradingSignature) -> Certificate:
    """Build the certificate that sends each orbit (i, s) to
    k = floor(2r s / e_i), sorted by level and then split.

    The module docstring shows these lines are admissible and spend each
    slot (k, i) once, so every length has a certificate and building it
    costs one line per orbit. The result is still untrusted until
    ``check_certificate`` agrees.
    """
    two_r = 2 * sig.r
    return Certificate(
        sig.r, tuple(CertificateLine(i, s, two_r * s // e) for i, e, s in orbit_triples(sig))
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _symmetric_display(c: int, a: str, b: str, hi: int, lo: int) -> str:
    """c (a^hi b^lo + a^lo b^hi), or the single c a^hi b^lo when hi = lo,
    for hi >= lo >= 1; an exponent 1 is not written."""
    if hi == lo:
        return f"{c} {a} {b}" if hi == 1 else f"{c} {a}^{hi} {b}^{hi}"
    if lo == 1:
        return f"{c}({a}^{hi} {b} + {a} {b}^{hi})"
    return f"{c}({a}^{hi} {b}^{lo} + {a}^{lo} {b}^{hi})"


@dataclass(frozen=True)
class ReportGroup:
    k: int
    rhs_coefficient: int
    is_middle: bool
    display: str
    lines: tuple[dict, ...]


@dataclass(frozen=True)
class ProofReport:
    r: int
    groups: tuple[ReportGroup, ...] = field(default_factory=tuple)

    def render_text(self) -> str:
        out = [f"triangle-inequality certificate, length r = {self.r}"]
        out.extend(g.display for g in self.groups)
        return "\n".join(out)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "groups": [
                {
                    "k": g.k,
                    "rhs_coefficient": g.rhs_coefficient,
                    "is_middle": g.is_middle,
                    "display": g.display,
                    "lines": list(g.lines),
                }
                for g in self.groups
            ],
        }


def certificate_to_report(sig: GradingSignature, cert: Certificate) -> ProofReport:
    """Group a valid certificate by target and render each comparison,
    as display text and as JSON-ready line records for spot checking.

    The certificate is checked once, by ``check_certificate``, whose
    domain errors pass through; a certificate that fails the check
    raises ``InvalidCertificateError``."""
    report = check_certificate(sig, cert)
    if not report.valid:
        reasons = ", ".join(sorted({v.reason for v in report.violations}))
        raise InvalidCertificateError(f"certificate does not validate ({reasons})")

    r, exponents = sig.r, sig.exponents
    two_r = 2 * r
    # each line's JSON row and display term, filed under its target k,
    # level by level; a valid certificate spends each slot (k, i) once
    rows_at = [[] for _ in range(r + 1)]
    terms_at = [[] for _ in range(r + 1)]
    level = 0
    for line in sorted(cert.lines, key=attrgetter("level")):
        i, s, k = line.level, line.split, line.target
        if i != level:
            level, e = i, exponents[i - 1]
            c_orbits = _binom_row(e, e // 2)
            a, b = f"a{i}", f"b{i}"
        c = c_orbits[s]
        # ``ratio_to_str``'s format over 2r; hi + lo = 2r e, so one gcd serves both
        hi, lo = scaled_shadow(two_r, e, k)
        g = gcd(lo, two_r)
        den, hi, lo = two_r // g, hi // g, lo // g
        sh = [str(hi), str(lo)] if den == 1 else [f"{hi}/{den}", f"{lo}/{den}"]
        row = dict(i=i, s=s, coefficient=c, orbit_exponents=[e - s, s], shadow_exponents=sh)
        rows_at[k].append(row)
        terms_at[k].append(_symmetric_display(c, a, b, e - s, s))

    c_slots = _binom_row(two_r, r)
    groups = []
    for k in range(1, r + 1):
        if rows_at[k]:
            rhs = _symmetric_display(c_slots[k], "A", "B", two_r - k, k)
            display = f"[k={k}]  {' + '.join(terms_at[k])} <= {rhs}"
            groups.append(ReportGroup(k, c_slots[k], k == r, display, tuple(rows_at[k])))
    return ProofReport(r=r, groups=tuple(groups))


# ---------------------------------------------------------------------------
# JSON wire format: {"r": int, "lines": [{"i": int, "s": int, "k": int}, ...]}
# ---------------------------------------------------------------------------

def _line_to_json(line: CertificateLine) -> dict:
    return {"i": line.level, "s": line.split, "k": line.target}


def certificate_to_json(cert: Certificate) -> dict:
    lines = [{"i": ln.level, "s": ln.split, "k": ln.target} for ln in cert.lines]
    return {"r": cert.r, "lines": lines}


def certificate_from_json(obj: Any) -> Certificate:
    if not isinstance(obj, dict) or "r" not in obj or "lines" not in obj:
        raise ValueError("certificate JSON needs keys 'r' and 'lines'")
    r = obj["r"]
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ValueError(f"'r' must be a positive integer, got {r!r}")
    raw_lines = obj["lines"]
    if not isinstance(raw_lines, list):
        raise ValueError("'lines' must be a list")
    lines = []
    for row in raw_lines:
        if not isinstance(row, dict) or "i" not in row or "s" not in row or "k" not in row:
            raise ValueError(f"certificate line needs keys 'i', 's', 'k': {row!r}")
        lines.append(CertificateLine(row["i"], row["s"], row["k"]))
    return Certificate(r, tuple(lines))
