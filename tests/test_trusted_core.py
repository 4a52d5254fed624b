"""The exact core (exactmath, expansion, certificate) and the commands
built on it alone (check, prove, report, --version) must run without
numpy and without the float modules, and check, prove and report build
no Fraction; the package exports every public name lazily."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradenorm
from gradenorm import exactmath, expansion
from gradenorm.cli import main

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
        "from gradenorm.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "assert codes == [0, 0, 0, 0], codes\n"
    )
    result = run_python(source + _ASSERT_FLOAT_FREE)
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

    monkeypatch.setattr(exactmath, "Fraction", no_fraction)
    monkeypatch.setattr(expansion, "Fraction", no_fraction)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)


def test_importing_the_checker_does_not_load_numpy():
    result = run_python("import gradenorm.certificate\n" + _ASSERT_FLOAT_FREE)
    assert result.returncode == 0, result.stderr


def test_every_exported_name_resolves():
    for name in gradenorm.__all__:
        assert getattr(gradenorm, name) is not None, name
    assert gradenorm.GradingSignature is gradenorm.graded_space.GradingSignature
