"""The exact core (exactmath, expansion, certificate) and the commands
built on it alone (check, prove, report, --version) must run without
numpy, the float modules, dataclasses and inspect, and without loading
fractions or decimal; check, prove and report build no Fraction. The
package exports every public name lazily.
The core's value classes keep the behaviour they had as frozen
dataclasses."""

import copy
import fractions
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gradenorm
from gradenorm.certificate import (
    Certificate,
    CertificateLine,
    CheckReport,
    ProofReport,
    Violation,
)
from gradenorm.cli import main
from gradenorm.exactmath import ExponentPair, GradingSignature
from gradenorm.expansion import ShadowPair, TermOrbit

ROOT = Path(__file__).resolve().parents[1]
CERT_R5 = str(ROOT / "tests" / "fixtures" / "cert_r5.json")

_ASSERT_FLOAT_FREE = """
import sys
loaded = [m for m in ("numpy", "gradenorm.graded_space", "gradenorm.numeric_search")
          if m in sys.modules]
assert not loaded, f"loaded {loaded}"
"""


def run_python(source):
    return subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def test_exact_commands_do_not_load_numpy():
    argvs = [
        ["check", CERT_R5],
        ["prove", "--r", "5", "--json"],
        ["report", CERT_R5, "--json"],
        ["--version"],
    ]
    source = (
        "from gradenorm import REASONS, InvalidCertificateError\n"
        "from gradenorm.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "assert codes == [0, 0, 0, 0], codes\n"
    )
    # the value classes are plain classes: no dataclass machinery either
    # (typing is not asserted: a site .pth hook may load it first)
    no_dataclasses = (
        "slow = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "assert not slow, f'loaded {slow}'\n"
    )
    # fractions (with decimal and numbers) is imported by the functions
    # that build a Fraction, which these commands never call
    no_fractions = (
        "rational = [m for m in ('fractions', 'decimal') if m in sys.modules]\n"
        "assert not rational, f'loaded {rational}'\n"
    )
    result = run_python(source + _ASSERT_FLOAT_FREE + no_dataclasses + no_fractions)
    assert result.returncode == 0, result.stderr
    # the commands really ran: three JSON documents and the version line
    *documents, version = result.stdout.splitlines()
    assert [sorted(json.loads(doc)) for doc in documents] == [
        ["valid", "violations"],
        ["certificate", "report"],
        ["lhs_orbits", "report", "rhs_orbits", "shadows"],
    ]
    assert version == f"gradenorm {gradenorm.__version__}"


@pytest.mark.parametrize(
    "argv",
    [
        ["report", CERT_R5, "--json"],
        ["prove", "--r", "12", "--json"],
        ["check", CERT_R5],
    ],
)
def test_exact_commands_build_no_fraction(monkeypatch, capsys, argv):
    # the ledger, the checker and the report are integer-only
    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built")

    monkeypatch.setattr(fractions, "Fraction", no_fraction)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)


def test_importing_the_checker_does_not_load_numpy():
    result = run_python("import gradenorm.certificate\n" + _ASSERT_FLOAT_FREE)
    assert result.returncode == 0, result.stderr


def test_every_exported_name_resolves():
    for name in gradenorm.__all__:
        assert getattr(gradenorm, name) is not None, name
    assert gradenorm.GradingSignature is gradenorm.graded_space.GradingSignature


_LINE = CertificateLine(1, 2, 3)
_PAIR = ExponentPair(Fraction(1, 2), Fraction(7, 2))

# class -> (positional args, the same as keywords, args that differ in
# one field, the repr of the first)
VALUE_CLASSES = {
    GradingSignature: ((3,), {"r": 3}, (4,), "GradingSignature(r=3)"),
    ExponentPair: (
        (Fraction(1, 2), Fraction(7, 2)),
        {"hi": Fraction(7, 2), "lo": Fraction(1, 2)},
        (Fraction(1, 2), Fraction(5, 2)),
        "ExponentPair(hi=Fraction(7, 2), lo=Fraction(1, 2))",
    ),
    TermOrbit: (
        (2, 3, 20, True),
        {"level": 2, "split": 3, "coefficient": 20, "is_middle": True},
        (2, 3, 20, False),
        "TermOrbit(level=2, split=3, coefficient=20, is_middle=True)",
    ),
    ShadowPair: (
        (1, 2, _PAIR),
        {"k": 1, "level": 2, "exponents": _PAIR},
        (1, 3, _PAIR),
        "ShadowPair(k=1, level=2, exponents=ExponentPair(hi=Fraction(7, 2), lo=Fraction(1, 2)))",
    ),
    CertificateLine: (
        (1, 2, 3),
        {"level": 1, "split": 2, "target": 3},
        (1, 2, 4),
        "CertificateLine(level=1, split=2, target=3)",
    ),
    Certificate: (
        (2, (_LINE, CertificateLine(2, 1, 1))),
        {"r": 2, "lines": (_LINE, CertificateLine(2, 1, 1))},
        (2, (_LINE, CertificateLine(2, 1, 2))),
        "Certificate(r=2, lines=(CertificateLine(level=1, split=2, target=3), "
        "CertificateLine(level=2, split=1, target=1)))",
    ),
    Violation: (
        (_LINE, "coefficient"),
        {"line": _LINE, "reason": "coefficient", "detail": ""},
        (_LINE, "coefficient", "why"),
        "Violation(line=CertificateLine(level=1, split=2, target=3), "
        "reason='coefficient', detail='')",
    ),
    CheckReport: (
        (False, (Violation(None, "incomplete", "gap"),)),
        {"valid": False, "violations": (Violation(None, "incomplete", "gap"),)},
        (True, ()),
        "CheckReport(valid=False, violations=(Violation(line=None, "
        "reason='incomplete', detail='gap'),))",
    ),
    ProofReport: (
        (5, (("k", 1),)),
        {"r": 5, "groups": (("k", 1),)},
        (5, (("k", 2),)),
        "ProofReport(r=5, groups=(('k', 1),))",
    ),
}


@pytest.mark.parametrize("cls", list(VALUE_CLASSES), ids=lambda cls: cls.__name__)
def test_exact_value_classes(cls):
    args, kwargs, other_args, text = VALUE_CLASSES[cls]
    value = cls(*args)
    assert repr(value) == text
    # equal fields: equal and one hash, also built from keywords
    for twin in (cls(*args), cls(**kwargs)):
        assert twin == value and not twin != value and hash(twin) == hash(value)
    # one field differs
    other = cls(*other_args)
    assert other != value and not other == value
    # another class, even with the same field values, is never equal
    assert value.__eq__(args) is NotImplemented
    assert value != args and value != object()
    name = cls.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


def test_exact_value_class_details():
    assert Violation(None, "incomplete").detail == ""
    # the pair is stored larger first, whichever order it is given in
    pair = ExponentPair(lo=Fraction(7, 2), hi=1)
    assert (pair.hi, pair.lo) == (Fraction(7, 2), Fraction(1))
    assert type(pair.lo) is Fraction and pair == ExponentPair(1, Fraction(7, 2))
    # equality, hash and repr of a signature ignore its exponent ladder
    sig, twin = GradingSignature(3), GradingSignature(3)
    assert sig.exponents == (6, 4, 2)
    object.__setattr__(twin, "exponents", ())
    assert twin == sig and hash(twin) == hash(sig) and repr(twin) == repr(sig)
    assert GradingSignature.__match_args__ == ("r",)
    with pytest.raises(AttributeError):
        sig.exponents = ()
    # a report's groups are dicts, so it is not hashable
    with pytest.raises(TypeError):
        hash(ProofReport(5, ({"k": 1},)))
