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

The checker uses exact integer and rational arithmetic only. The
builder is untrusted by design: whatever it returns is re-checked. It
targets each orbit at k = floor(2r s / e_i), which satisfies (a) and (b)
and is injective per level (floors of a sequence with increments
2r/e_i >= 1 are strictly increasing), so a certificate exists for every
length and no search is needed.

Checker and builder are pure and can run concurrently without
coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .exactmath import GradingSignature, binom, majorizes, rational_to_str
from .expansion import lhs_orbits, orbit_exponents, shadow

__all__ = [
    "CertificateLine",
    "Certificate",
    "Violation",
    "CheckReport",
    "ReportGroup",
    "ProofReport",
    "REASONS",
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

REASONS = (
    REASON_COEFFICIENT,
    REASON_MAJORIZATION,
    REASON_SLOT_CONFLICT,
    REASON_INCOMPLETE,
    REASON_MIDDLE_MISMATCH,
)


@dataclass(frozen=True)
class CertificateLine:
    """One grouped comparison: left orbit (level, split) bounded by the
    shadow slot of right-hand orbit ``target``."""

    level: int
    split: int
    target: int

    def __post_init__(self) -> None:
        for name in ("level", "split", "target"):
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


def _check_ranges(sig: GradingSignature, line: CertificateLine) -> None:
    if not 1 <= line.level <= sig.r:
        raise ValueError(f"level {line.level} out of range for r={sig.r}")
    e = sig.exponent(line.level)
    if not 1 <= line.split <= e // 2:
        raise ValueError(f"split {line.split} out of range for level {line.level} (e={e})")
    if not 1 <= line.target <= sig.r:
        raise ValueError(f"target {line.target} out of range for r={sig.r}")


def check_line(sig: GradingSignature, line: CertificateLine) -> str | None:
    """None when the line is admissible, otherwise the violation reason.

    Exact arithmetic only: big-integer coefficient comparison and
    rational majorization. Out-of-range indices are a domain error.
    """
    _check_ranges(sig, line)
    e = sig.exponent(line.level)
    is_middle = line.split == e // 2
    if not is_middle and line.target == sig.r:
        # a symmetric pair cannot be charged to the single middle monomial
        return REASON_MIDDLE_MISMATCH
    if binom(e, line.split) > binom(2 * sig.r, line.target):
        return REASON_COEFFICIENT
    shade = shadow(sig, line.target, line.level).exponents
    if not majorizes(shade, orbit_exponents(sig, line.level, line.split)):
        return REASON_MAJORIZATION
    return None


def check_certificate(sig: GradingSignature, cert: Certificate) -> CheckReport:
    """Validate completeness, slot discipline, and every line.

    A valid report means the certificate is a sound proof of the scalar
    triangle inequality for this length (see the module docstring).
    """
    if cert.r != sig.r:
        raise ValueError(f"certificate is for r={cert.r}, signature has r={sig.r}")
    for line in cert.lines:
        _check_ranges(sig, line)

    violations: list[Violation] = []

    seen_orbits: dict[tuple[int, int], CertificateLine] = {}
    for line in cert.lines:
        key = (line.level, line.split)
        if key in seen_orbits:
            violations.append(
                Violation(line, REASON_INCOMPLETE, f"duplicate line for orbit (i={key[0]}, s={key[1]})")
            )
        else:
            seen_orbits[key] = line
    for orbit in lhs_orbits(sig):
        if (orbit.level, orbit.split) not in seen_orbits:
            violations.append(
                Violation(
                    None,
                    REASON_INCOMPLETE,
                    f"orbit (i={orbit.level}, s={orbit.split}) has no line",
                )
            )

    seen_slots: set[tuple[int, int]] = set()
    for line in cert.lines:
        slot = (line.target, line.level)
        if slot in seen_slots:
            violations.append(
                Violation(
                    line,
                    REASON_SLOT_CONFLICT,
                    f"slot (k={line.target}, i={line.level}) already spent",
                )
            )
        else:
            seen_slots.add(slot)

    for line in cert.lines:
        reason = check_line(sig, line)
        if reason is not None:
            violations.append(Violation(line, reason))

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
        sig.r,
        tuple(
            CertificateLine(i, s, two_r * s // sig.exponent(i))
            for i in range(1, sig.r + 1)
            for s in range(1, sig.exponent(i) // 2 + 1)
        ),
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _pow(base: str, exp) -> str:
    return base if exp == 1 else f"{base}^{exp}"


def _orbit_display(sig: GradingSignature, line: CertificateLine) -> str:
    e = sig.exponent(line.level)
    c = binom(e, line.split)
    a, b = f"a{line.level}", f"b{line.level}"
    if line.split == e // 2:
        return f"{c} {_pow(a, e // 2)} {_pow(b, e // 2)}"
    hi, lo = e - line.split, line.split
    return f"{c}({_pow(a, hi)} {_pow(b, lo)} + {_pow(a, lo)} {_pow(b, hi)})"


def _rhs_display(sig: GradingSignature, k: int) -> str:
    c = binom(2 * sig.r, k)
    if k == sig.r:
        return f"{c} {_pow('A', sig.r)} {_pow('B', sig.r)}"
    hi, lo = 2 * sig.r - k, k
    return f"{c}({_pow('A', hi)} {_pow('B', lo)} + {_pow('A', lo)} {_pow('B', hi)})"


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
    as display text and as JSON-ready line records for spot checking."""
    report = check_certificate(sig, cert)
    if not report.valid:
        reasons = ", ".join(sorted({v.reason for v in report.violations}))
        raise ValueError(f"certificate does not validate ({reasons})")

    by_target: dict[int, list[CertificateLine]] = {}
    for line in cert.lines:
        by_target.setdefault(line.target, []).append(line)

    groups = []
    for k in sorted(by_target):
        members = sorted(by_target[k], key=lambda ln: ln.level)
        lhs = " + ".join(_orbit_display(sig, ln) for ln in members)
        display = f"[k={k}]  {lhs} <= {_rhs_display(sig, k)}"
        rows = []
        for ln in members:
            e = sig.exponent(ln.level)
            shade = shadow(sig, k, ln.level).exponents
            rows.append(
                {
                    "i": ln.level,
                    "s": ln.split,
                    "coefficient": binom(e, ln.split),
                    "orbit_exponents": [e - ln.split, ln.split],
                    "shadow_exponents": [rational_to_str(shade.hi), rational_to_str(shade.lo)],
                }
            )
        groups.append(
            ReportGroup(
                k=k,
                rhs_coefficient=binom(2 * sig.r, k),
                is_middle=(k == sig.r),
                display=display,
                lines=tuple(rows),
            )
        )
    return ProofReport(r=sig.r, groups=tuple(groups))


# ---------------------------------------------------------------------------
# JSON wire format: {"r": int, "lines": [{"i": int, "s": int, "k": int}, ...]}
# ---------------------------------------------------------------------------

def _line_to_json(line: CertificateLine) -> dict:
    return {"i": line.level, "s": line.split, "k": line.target}


def certificate_to_json(cert: Certificate) -> dict:
    return {"r": cert.r, "lines": [_line_to_json(line) for line in cert.lines]}


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
        if not isinstance(row, dict) or not {"i", "s", "k"} <= set(row):
            raise ValueError(f"certificate line needs keys 'i', 's', 'k': {row!r}")
        lines.append(CertificateLine(row["i"], row["s"], row["k"]))
    return Certificate(r, tuple(lines))
