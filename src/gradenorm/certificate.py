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

The checker computes with Python integers only. Both pairs of (b) have
degree e_i: the shadow's exponents sum to e_i (2r - k)/2r + e_i k/2r.
For two pairs of equal degree, majorization is one comparison of the
leading exponents (``exactmath.majorizes``). Since k <= r the shadow's
leading exponent is e_i (2r - k)/2r, and since s <= e_i/2 the orbit's is
e_i - s, so (b) is e_i (2r - k) >= 2r (e_i - s), that is e_i k <= 2r s.
This holds by algebra for every in-range line, not only the builder's.
Orbits come from ``expansion``, so no ``Fraction`` is built.
``check_line`` takes the binomials of (a) from ``binom``;
``check_certificate`` and the report walk the certificate's columns level
by level and take them from one row of C(2r, k) per call and one row of
C(e_i, s) per level, built by the exact recurrence
C(n, s+1) = C(n, s)(n - s)/(s + 1), so no table outlives a call. Both
make the same comparisons, in one line predicate.

Storage. A ``Certificate`` is the checker's own form: three int columns,
``levels``, ``splits`` and ``targets``. The builder and
``certificate_from_json`` fill them directly, and a certificate built
from ``CertificateLine``s reads them off once. The checker, the report
and ``certificate_to_json`` read the columns alone, whichever way the
certificate was built, so a valid certificate costs no object per line.
``Certificate.lines`` builds the ``CertificateLine`` tuple on first read
and keeps it; a ``Violation`` carries a ``CertificateLine`` built for
the one line it names.

The builder is untrusted by design: whatever it returns is re-checked.
It targets each orbit at k = floor(n s / e) with n = 2r and
e = e_i <= n. That k passes (a): k >= s and n - k >= n (e - s) / e >=
e - s, and C(x + y, x) grows in both x and y, so C(e, s) =
C(s + (e - s), s) <= C(k + (n - k), k) = C(n, k). It passes (b),
e k <= n s, since k <= n s / e. It is injective per level (floors of a
sequence with increments n/e >= 1 are strictly increasing), so a
certificate exists for every length and no search is needed. The paper
proves length 5; the other lengths rest on this argument, and the
checker still checks every line.

Checker and builder are pure and can run concurrently without
coordination.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter

from .exactmath import FrozenValue, GradingSignature, _binom_row, binom
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


class CertificateLine(FrozenValue):
    """One grouped comparison: left orbit (level, split) bounded by the
    shadow slot of right-hand orbit ``target``."""

    __match_args__ = _FIELDS

    def __init__(self, level: int, split: int, target: int) -> None:
        i, s, k = level, split, target
        if not (type(i) is int and type(s) is int and type(k) is int and i > 0 and s > 0 and k > 0):
            for name, v in zip(_FIELDS, (i, s, k)):
                if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                    raise ValueError(f"{name} must be a positive integer, got {v!r}")
        put = object.__setattr__
        put(self, "level", i)
        put(self, "split", s)
        put(self, "target", k)


class Certificate(FrozenValue):
    """A complete assignment of left orbits to right orbits for length r,
    stored as three int columns: line j is (levels[j], splits[j],
    targets[j]). ``Certificate(r, lines)`` reads the columns off the lines
    once; ``lines`` builds the ``CertificateLine`` tuple on first read and
    keeps it. Equality and hash compare r and the columns, that is r and
    the lines."""

    __match_args__ = ("r", "levels", "splits", "targets")

    def __init__(self, r: int, lines: tuple[CertificateLine, ...]) -> None:
        lines = tuple(lines)
        self._set(r, *(tuple(map(attrgetter(f), lines)) for f in _FIELDS), lines)

    @classmethod
    def _from_columns(cls, r: int, levels, splits, targets) -> Certificate:
        cert = cls.__new__(cls)
        cert._set(r, tuple(levels), tuple(splits), tuple(targets), None)
        return cert

    def _set(self, *values) -> None:
        for name, value in zip((*self.__match_args__, "_lines"), values):
            object.__setattr__(self, name, value)

    @property
    def lines(self) -> tuple[CertificateLine, ...]:
        if self._lines is None:
            lines = tuple(map(CertificateLine, self.levels, self.splits, self.targets))
            object.__setattr__(self, "_lines", lines)
        return self._lines

    def __repr__(self) -> str:
        return f"Certificate(r={self.r!r}, lines={self.lines!r})"


class Violation(FrozenValue):
    __match_args__ = ("line", "reason", "detail")

    def __init__(self, line: CertificateLine | None, reason: str, detail: str = "") -> None:
        put = object.__setattr__
        put(self, "line", line)
        put(self, "reason", reason)
        put(self, "detail", detail)


class CheckReport(FrozenValue):
    __match_args__ = ("valid", "violations")

    def __init__(self, valid: bool, violations: tuple[Violation, ...]) -> None:
        put = object.__setattr__
        put(self, "valid", valid)
        put(self, "violations", violations)

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


def _by_level(cert: Certificate):
    """The lines as (i, s, k), level by level: in place when the levels
    already ascend, otherwise sorted."""
    triples = zip(cert.levels, cert.splits, cert.targets)
    return triples if list(cert.levels) == sorted(cert.levels) else sorted(triples)


def _line_reason(r: int, e: int, s: int, k: int, c_orbit: int, c_slot: int) -> str | None:
    """The one line formula: the tests of an in-range line (i, s, k), with
    e = e_i, c_orbit = C(e, s) and c_slot = C(2r, k)."""
    if k == r and s != e // 2:
        # a symmetric pair cannot be charged to the single middle monomial
        return REASON_MIDDLE_MISMATCH
    if c_orbit > c_slot:
        return REASON_COEFFICIENT
    if e * k > 2 * r * s:
        # the shadow's leading exponent e (2r - k)/2r is below e - s
        return REASON_MAJORIZATION
    return None


def check_line(sig: GradingSignature, line: CertificateLine) -> str | None:
    """None when the line is admissible, otherwise the violation reason.

    Integers only: big-integer coefficient comparison, and majorization
    as e_i k <= 2r s (see the module docstring).
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
    r, exponents = sig.r, sig.exponents
    if cert.r != r:
        raise ValueError(f"certificate is for r={cert.r}, signature has r={r}")
    levels, splits, targets = cert.levels, cert.splits, cert.targets
    # the first line with an index out of range; s <= e_i // 2 is s <= r + 1 - i
    for i, s, k in zip(levels, splits, targets):
        if not (1 <= i <= r and 1 <= s <= r + 1 - i and 1 <= k <= r):
            check_line(sig, CertificateLine(i, s, k))  # raises

    # sets as long as the lines mean that no orbit and no slot repeats
    n = len(levels)
    seen_orbits = set(zip(levels, splits))
    duplicates, conflicts = [], []
    if len(seen_orbits) < n or len(set(zip(targets, levels))) < n:
        orbits, slots = set(), set()
        for i, s, k in zip(levels, splits, targets):
            if (i, s) in orbits:
                detail = f"duplicate line for orbit (i={i}, s={s})"
                line = CertificateLine(i, s, k)
                duplicates.append(Violation(line, REASON_INCOMPLETE, detail))
            if (k, i) in slots:
                detail = f"slot (k={k}, i={i}) already spent"
                line = CertificateLine(i, s, k)
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
    for i, s, k in _by_level(cert):
        if i != level:
            level, e = i, exponents[i - 1]
            c_orbits = _binom_row(e, e // 2)
        reason = _line_reason(r, e, s, k, c_orbits[s], c_slots[k])
        if reason is not None:
            failed[i, s, k] = reason
    per_line = []
    if failed:
        for key in zip(levels, splits, targets):
            if key in failed:
                per_line.append(Violation(CertificateLine(*key), failed[key]))
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
    # three passes over the orbits, so that no per-line tuple stays alive
    return Certificate._from_columns(
        sig.r,
        [i for i, _, _ in orbit_triples(sig)],
        [s for _, _, s in orbit_triples(sig)],
        [two_r * s // e for _, e, s in orbit_triples(sig)],
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


class ProofReport(FrozenValue):
    """A valid certificate grouped by target k. Each group is the dict its
    JSON carries: ``k``, ``rhs_coefficient`` (C(2r, k)), ``is_middle``
    (k = r), ``display`` (the comparison as text) and ``lines`` (a tuple
    of line records ``i``, ``s``, ``coefficient``, ``orbit_exponents``,
    ``shadow_exponents``)."""

    __match_args__ = ("r", "groups")

    def __init__(self, r: int, groups: tuple[dict, ...]) -> None:
        put = object.__setattr__
        put(self, "r", r)
        put(self, "groups", groups)

    def render_text(self) -> str:
        out = [f"triangle-inequality certificate, length r = {self.r}"]
        out.extend(g["display"] for g in self.groups)
        return "\n".join(out)

    def to_json(self) -> dict:
        return {"r": self.r, "groups": [dict(g, lines=list(g["lines"])) for g in self.groups]}


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
    for i, s, k in _by_level(cert):
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
            groups.append(dict(k=k, rhs_coefficient=c_slots[k], is_middle=k == r,
                               display=display, lines=tuple(rows_at[k])))
    return ProofReport(r=r, groups=tuple(groups))


# ---------------------------------------------------------------------------
# JSON wire format: {"r": int, "lines": [{"i": int, "s": int, "k": int}, ...]}
# ---------------------------------------------------------------------------

def _line_to_json(line: CertificateLine) -> dict:
    return {"i": line.level, "s": line.split, "k": line.target}


def certificate_to_json(cert: Certificate) -> dict:
    columns = zip(cert.levels, cert.splits, cert.targets)
    return {"r": cert.r, "lines": [{"i": i, "s": s, "k": k} for i, s, k in columns]}


def certificate_from_json(obj: object) -> Certificate:
    if not isinstance(obj, dict) or "r" not in obj or "lines" not in obj:
        raise ValueError("certificate JSON needs keys 'r' and 'lines'")
    r = obj["r"]
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ValueError(f"'r' must be a positive integer, got {r!r}")
    raw_lines = obj["lines"]
    if not isinstance(raw_lines, list):
        raise ValueError("'lines' must be a list")
    levels, splits, targets = [], [], []
    for row in raw_lines:
        if not isinstance(row, dict) or "i" not in row or "s" not in row or "k" not in row:
            raise ValueError(f"certificate line needs keys 'i', 's', 'k': {row!r}")
        i, s, k = row["i"], row["s"], row["k"]
        if not (type(i) is int and type(s) is int and type(k) is int and i > 0 and s > 0 and k > 0):
            # ``CertificateLine`` raises its own text, or accepts an int subclass
            CertificateLine(i, s, k)
        levels.append(i)
        splits.append(s)
        targets.append(k)
    return Certificate._from_columns(r, levels, splits, targets)
