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

At most one of (a) and (b) can fail on a line, and k against s says
which. Since e_i <= 2r and s <= e_i/2 <= r, for k >= s (a) holds:
C(e_i, s) <= C(2r, s) <= C(2r, k), because binomials grow in n, and in
the lower index up to n/2 = r. For k < s (b) holds: e_i k <= 2r k < 2r s.
So ``_line_reason``, the one line predicate that ``check_line`` and
``check_certificate`` share, reads the coefficients only when k < s, and
only then does a caller form them: ``check_line`` from ``binom``,
``check_certificate`` from rows built by the exact recurrence
C(n, s+1) = C(n, s)(n - s)/(s + 1), so no table outlives a call.

``check_certificate`` walks the columns once, in input order, whatever
the order of the lines. Each level gets a flag per split and one per
slot k when its first line arrives, which name repeated orbits and
spent slots in input order; a line with k >= s is decided on the spot,
and a line with k < s after the walk, level by level, from one row of
C(e_i, s) at a time and the row of C(2r, k). The builder targets no
line below its split, so its certificates are checked with no binomial
at all. Orbits are listed as missing only when the lines, less their
repeats, are fewer than the r(r+1)/2 orbits. A report walks by target
instead, in one place, ``_group_texts``, and keeps one coefficient per
level, stepping it by the same recurrence.

Storage. A ``Certificate`` is the checker's own form: three int columns,
``levels``, ``splits`` and ``targets``. The builder and
``certificate_from_json`` fill them directly, and a certificate built
from ``CertificateLine``s reads them off once. The checker, the report
and ``certificate_to_json`` read the columns alone, whichever way the
certificate was built, so a valid certificate costs no object per line.
A check keeps about 1.5 r^2 bytes of flags and a pair (s, k) per line
with k < s, whatever the order of the lines.
``Certificate.lines`` builds the ``CertificateLine`` tuple on first read
and keeps it; a ``Violation`` carries a ``CertificateLine`` built for
the one line it names. Reports read the columns too:
``certificate_to_report`` checks the certificate and returns a
``ProofReport`` view over it, which builds nothing until it is read.
``_group_texts`` files each line's level and split under its target k
and formats one group at a time, as display text or as JSON text; it is
the only formatter of a report. ``report_pieces`` writes its groups
between the header and the separators, so ``prove`` and ``report``
print a proof of any length with no dict, string or coefficient per
line alive at once, and a view's ``groups`` are the dicts that
``json.loads`` makes of its JSON group texts.

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

import json
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter

from .exactmath import FrozenValue, GradingSignature, InvalidCertificateError, _binom_row, binom
from .expansion import orbit_triples, shadow_strings

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
    "report_pieces",
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
    """The lines as (i, s, k), level by level, for the report's grouping:
    in place when the levels already ascend, otherwise sorted."""
    triples = zip(cert.levels, cert.splits, cert.targets)
    return triples if list(cert.levels) == sorted(cert.levels) else sorted(triples)


def _line_reason(
    r: int, e: int, s: int, k: int, c_orbit: int | None, c_slot: int | None
) -> str | None:
    """The one line formula: the tests of an in-range line (i, s, k), with
    e = e_i, c_orbit = C(e, s) and c_slot = C(2r, k). For k >= s only (b)
    can fail and for k < s only (a) (see the module docstring), so the
    coefficients are read only when k < s; otherwise they may be None."""
    if k == r and s != e // 2:
        # a symmetric pair cannot be charged to the single middle monomial
        return REASON_MIDDLE_MISMATCH
    if k < s:
        return REASON_COEFFICIENT if c_orbit > c_slot else None
    if e * k > 2 * r * s:
        # the shadow's leading exponent e (2r - k)/2r is below e - s
        return REASON_MAJORIZATION
    return None


def check_line(sig: GradingSignature, line: CertificateLine) -> str | None:
    """None when the line is admissible, otherwise the violation reason.

    Integers only: a big-integer coefficient comparison, formed only
    when k < s, and majorization as e_i k <= 2r s (see the module
    docstring). Out-of-range indices are a domain error.
    """
    e = sig.exponent(line.level)  # raises on an out-of-range level
    r, s, k = sig.r, line.split, line.target
    if not 1 <= s <= e // 2:
        raise ValueError(f"split {s} out of range for level {line.level} (e={e})")
    if not 1 <= k <= r:
        raise ValueError(f"target {k} out of range for r={r}")
    if k < s:
        return _line_reason(r, e, s, k, binom(e, s), binom(2 * r, k))
    return _line_reason(r, e, s, k, None, None)


def check_certificate(sig: GradingSignature, cert: Certificate) -> CheckReport:
    """Validate completeness, slot discipline, and every line.

    A valid report means the certificate is a sound proof of the scalar
    triangle inequality for this length (see the module docstring). The
    first out-of-range line raises ``ValueError`` from ``check_line``, as
    does a certificate for another length. Violations are listed as
    duplicates, missing orbits, slot conflicts, then per line in order.

    One walk over the columns, in input order, flags each level's splits
    and slots as its lines arrive, and decides each line with k >= s on
    the spot. Lines with k < s are decided after the walk, level by
    level, from one row of C(e_i, s) at a time and the row of C(2r, k);
    the builder's certificates have none, so checking them forms no
    binomial.
    """
    r, exponents = sig.r, sig.exponents
    if cert.r != r:
        raise ValueError(f"certificate is for r={cert.r}, signature has r={r}")
    levels, splits, targets = cert.levels, cert.splits, cert.targets
    # each level's flags, made when its first line arrives: one per split
    # s = 1..e_i/2 and one per slot k = 1..r
    split_flags, slot_flags = [None] * (r + 1), [None] * (r + 1)
    duplicates, conflicts, failed, deferred = [], [], {}, {}
    level = top = 0  # the level of the last line and its largest split, e_i/2 = r + 1 - i
    for i, s, k in zip(levels, splits, targets):
        if i != level and 1 <= i <= r:
            level, e, top = i, exponents[i - 1], r + 1 - i
            if split_flags[i] is None:
                split_flags[i], slot_flags[i] = bytearray(top + 1), bytearray(r + 1)
            seen, spent = split_flags[i], slot_flags[i]
        if not (i == level and 1 <= s <= top and 1 <= k <= r):
            check_line(sig, CertificateLine(i, s, k))  # raises
        if seen[s]:
            detail = f"duplicate line for orbit (i={i}, s={s})"
            duplicates.append(Violation(CertificateLine(i, s, k), REASON_INCOMPLETE, detail))
        if spent[k]:
            detail = f"slot (k={k}, i={i}) already spent"
            conflicts.append(Violation(CertificateLine(i, s, k), REASON_SLOT_CONFLICT, detail))
        seen[s] = spent[k] = 1
        if k < s:
            deferred.setdefault(i, []).append((s, k))
        else:
            reason = _line_reason(r, e, s, k, None, None)
            if reason is not None:
                failed[i, s, k] = reason

    missing = []
    if len(levels) - len(duplicates) < r * (r + 1) // 2:  # every line is in range here
        for i, _, s in orbit_triples(sig):
            if split_flags[i] is None or not split_flags[i][s]:
                detail = f"orbit (i={i}, s={s}) has no line"
                missing.append(Violation(None, REASON_INCOMPLETE, detail))

    # the lines with k < s, level by level, with one row of C(e_i, s)
    # alive at a time
    if deferred:
        c_slots = _binom_row(2 * r, r)
        for i in sorted(deferred):
            e = exponents[i - 1]
            c_orbits = _binom_row(e, e // 2)
            for s, k in deferred[i]:
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
    levels, splits, targets = [], [], []
    # the orbits (i, s), s = 1..e_i/2, of ``orbit_triples``, a level at a time
    for i, e in enumerate(sig.exponents, 1):
        m = e // 2
        levels += [i] * m
        splits += range(1, m + 1)
        targets += [two_r * s // e for s in range(1, m + 1)]
    return Certificate._from_columns(sig.r, levels, splits, targets)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _symmetric_display(c: int | str, a: str, b: str, hi: int, lo: int) -> str:
    """c (a^hi b^lo + a^lo b^hi), or the single c a^hi b^lo when hi = lo,
    for hi >= lo >= 1; an exponent 1 is not written."""
    if hi == lo:
        return f"{c} {a} {b}" if hi == 1 else f"{c} {a}^{hi} {b}^{hi}"
    if lo == 1:
        return f"{c}({a}^{hi} {b} + {a} {b}^{hi})"
    return f"{c}({a}^{hi} {b}^{lo} + {a}^{lo} {b}^{hi})"


def _group_display(two_r: int, k: int, c_slot: int, terms: list[str]) -> str:
    """Group k's comparison: its lines' terms <= C(2r, k)'s right-hand term."""
    rhs = _symmetric_display(c_slot, "A", "B", two_r - k, k)
    return f"[k={k}]  {' + '.join(terms)} <= {rhs}"


def _group_texts(cert: Certificate, as_json: bool) -> Iterator[str]:
    """The groups of a checked certificate, by target k: each group's
    display text, or with ``as_json`` its JSON object text. The lines'
    levels and splits are filed under their targets, and each group is
    formatted from them when its turn comes; a valid certificate spends
    each slot (k, i) once."""
    r, two_r = cert.r, 2 * cert.r
    levels_at = [[] for _ in range(r + 1)]
    splits_at = [[] for _ in range(r + 1)]
    for i, s, k in _by_level(cert):
        levels_at[k].append(i)
        splits_at[k].append(s)
    # each level's last split and its C(e_i, s): a group takes one line
    # from most levels, and the builder's lines of a level come in order
    # of k with consecutive splits, so the next coefficient is one step of
    # the recurrence, and one int per level stays alive, not all of them
    last_s = [0] * (r + 1)
    last_c = [1] * (r + 1)
    c_slots = _binom_row(two_r, r)
    for k in range(1, r + 1):
        if not levels_at[k]:
            continue
        rows, terms = [], []
        for i, s in zip(levels_at[k], splits_at[k]):
            e = two_r + 2 - 2 * i
            c = last_c[i] * (e - s + 1) // s if s == last_s[i] + 1 else binom(e, s)
            last_s[i], last_c[i] = s, c
            text = str(c)
            terms.append(_symmetric_display(text, f"a{i}", f"b{i}", e - s, s))
            if as_json:
                hi, lo = map(_quote, shadow_strings(two_r, e, k))
                rows.append(
                    f'{{"i": {i}, "s": {s}, "coefficient": {text}, "orbit_exponents": '
                    f'[{e - s}, {s}], "shadow_exponents": [{hi}, {lo}]}}'
                )
        display = _group_display(two_r, k, c_slots[k], terms)
        if not as_json:
            yield display
            continue
        middle = "true" if k == r else "false"
        yield (
            f'{{"k": {k}, "rhs_coefficient": {c_slots[k]}, "is_middle": {middle}, '
            f'"display": {_quote(display)}, "lines": [{", ".join(rows)}]}}'
        )


class ProofReport(FrozenValue):
    """A valid certificate grouped by target k. Each group is the dict its
    JSON carries: ``k``, ``rhs_coefficient`` (C(2r, k)), ``is_middle``
    (k = r), ``display`` (the comparison as text) and ``lines`` (a tuple
    of line records ``i``, ``s``, ``coefficient``, ``orbit_exponents``,
    ``shadow_exponents``).

    ``ProofReport(r, groups)`` keeps the groups it is given.
    ``certificate_to_report`` returns a view instead, over the columns of
    the certificate it checked. A view's ``groups`` parses the JSON text
    of each group that ``report_pieces`` would write, on first read, and
    keeps the tuple, as ``Certificate.lines`` does; so, like
    ``render_text`` and ``to_json``, it raises ``ValueError`` past the
    int-to-str digit limit (``_require_str_digits``). ``report_pieces``
    writes the text or JSON a group at a time without building the
    dicts. Equality, hash and repr read ``r`` and ``groups``, whichever
    way the report was built."""

    __match_args__ = ("r", "groups")

    def __init__(self, r: int, groups: tuple[dict, ...]) -> None:
        self._set(r, groups, None)

    @classmethod
    def _view(cls, cert: Certificate) -> ProofReport:
        report = cls.__new__(cls)
        report._set(cert.r, None, cert)
        return report

    def _set(self, r: int, groups: tuple[dict, ...] | None, cert: Certificate | None) -> None:
        put = object.__setattr__
        put(self, "r", r)
        put(self, "_groups", groups)
        put(self, "_cert", cert)

    @property
    def groups(self) -> tuple[dict, ...]:
        if self._groups is None:
            groups = map(json.loads, _group_texts(self._cert, as_json=True))
            groups = tuple(dict(g, lines=tuple(g["lines"])) for g in groups)
            object.__setattr__(self, "_groups", groups)
        return self._groups

    def render_text(self) -> str:
        out = [f"triangle-inequality certificate, length r = {self.r}"]
        out.extend(g["display"] for g in self.groups)
        return "\n".join(out)

    def to_json(self) -> dict:
        return {"r": self.r, "groups": [dict(g, lines=list(g["lines"])) for g in self.groups]}


def certificate_to_report(sig: GradingSignature, cert: Certificate) -> ProofReport:
    """Group a valid certificate by target, as a view that renders each
    comparison as display text and as JSON-ready line records for spot
    checking.

    The certificate is checked once, here, by ``check_certificate``,
    whose domain errors pass through; a certificate that fails the check
    raises ``InvalidCertificateError``."""
    report = check_certificate(sig, cert)
    if not report.valid:
        reasons = ", ".join(sorted({v.reason for v in report.violations}))
        raise InvalidCertificateError(f"certificate does not validate ({reasons})")
    return ProofReport._view(cert)


def _require_str_digits(r: int) -> None:
    """Raise ``ValueError`` when C(2r, r), the largest number a report of
    length r prints, has more digits than ``int``-to-``str`` conversion
    allows (``sys.get_int_max_str_digits``; 0 means no limit). For
    r > 4 * limit, C(2r, r) >= 2^r > 10^limit, and no binomial is formed."""
    limit = sys.get_int_max_str_digits()
    if limit and (r > 4 * limit or binom(2 * r, r) >= 10**limit):
        raise ValueError(
            f"a report of length r={r} prints C(2r, r), which has more than "
            f"{limit} digits, the int-to-str limit of sys.set_int_max_str_digits"
        )


def report_pieces(report: ProofReport, as_json: bool = False) -> Iterator[str]:
    """The text of ``report.render_text()``, or with ``as_json`` that of
    ``json.dumps(report.to_json())``, in pieces, one a group, for a report
    that ``certificate_to_report`` returned. The groups come from
    ``_group_texts``, the one formatter of a report, whose JSON texts a
    view's ``groups`` also parses; no group dict is built here. Past the
    int-to-str digit limit a piece raises ``ValueError``, so the caller
    checks the length with ``_require_str_digits`` before writing the
    first piece."""
    if report._cert is None:
        raise TypeError("report_pieces writes a report that certificate_to_report returned")
    groups = _group_texts(report._cert, as_json)
    if not as_json:
        yield f"triangle-inequality certificate, length r = {report.r}"
        for display in groups:
            yield "\n" + display
        return
    yield f'{{"r": {report.r}, "groups": ['
    for n, group in enumerate(groups):
        yield ", " + group if n else group
    yield "]}"


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
