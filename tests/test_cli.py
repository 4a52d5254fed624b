import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gradenorm.certificate as certificate_mod
from gradenorm import numeric_search
from gradenorm.cli import main
from gradenorm.graded_space import (
    GradingSignature,
    ScalarProfile,
    hnorm,
    random_vector,
    triangle_defect,
    vector_from_json,
    vector_to_json,
)

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# prove / check / report
# ---------------------------------------------------------------------------

def test_prove_r5_writes_certificate_and_report(capsys, tmp_path):
    out = tmp_path / "cert.json"
    code, stdout, _ = run(capsys, "prove", "--r", "5", "--out", str(out))
    assert code == 0
    assert "<=" in stdout and "252 A^5 B^5" in stdout
    payload = json.loads(out.read_text())
    assert payload["r"] == 5 and len(payload["lines"]) == 15


def test_prove_json_mode_is_parseable(capsys):
    code, stdout, _ = run(capsys, "prove", "--r", "4", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["certificate"]["r"] == 4
    assert [g["k"] for g in payload["report"]["groups"]] == [1, 2, 3, 4]


def test_prove_builds_the_certificate_json_once_for_out_and_json(capsys, tmp_path, monkeypatch):
    calls = []
    real = certificate_mod.certificate_to_json
    monkeypatch.setattr(certificate_mod, "certificate_to_json", lambda c: calls.append(c) or real(c))
    out = tmp_path / "cert.json"
    code, stdout, _ = run(capsys, "prove", "--r", "5", "--out", str(out), "--json")
    assert code == 0 and len(calls) == 1
    assert json.loads(out.read_text()) == json.loads(stdout)["certificate"] == real(calls[0])


@pytest.mark.parametrize("r", [1, 5, 6, 8])
def test_prove_check_round_trip(capsys, tmp_path, r):
    out = tmp_path / f"cert_{r}.json"
    code, _, _ = run(capsys, "prove", "--r", str(r), "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "check", str(out))
    assert code == 0
    assert json.loads(stdout)["valid"] is True


def test_prove_exits_one_when_its_certificate_fails_the_check(capsys, monkeypatch):
    # the builder re-targets level 3's first orbit above 2, onto k = 3: the
    # certificate then fails the re-check, and prove must say so without
    # emitting anything
    real_search = certificate_mod.search_certificate

    def retargeted(sig):
        cert = real_search(sig)
        lines = tuple(
            certificate_mod.CertificateLine(3, 1, 3) if (ln.level, ln.split) == (3, 1) else ln
            for ln in cert.lines
        )
        return certificate_mod.Certificate(cert.r, lines)

    monkeypatch.setattr(certificate_mod, "search_certificate", retargeted)
    code, stdout, err = run(capsys, "prove", "--r", "5")
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and "does not validate" in err


def test_check_golden_fixture(capsys):
    code, stdout, _ = run(capsys, "check", str(FIXTURES / "cert_r5.json"))
    assert code == 0
    assert json.loads(stdout) == {"valid": True, "violations": []}


def test_check_flags_missing_line(capsys, tmp_path):
    cert = json.loads((FIXTURES / "cert_r5.json").read_text())
    cert["lines"] = [ln for ln in cert["lines"] if (ln["i"], ln["s"]) != (2, 3)]
    path = write_json(tmp_path / "broken.json", cert)
    code, stdout, _ = run(capsys, "check", path)
    assert code == 1
    report = json.loads(stdout)
    assert report["valid"] is False
    assert report["violations"][0]["reason"] == "incomplete"


def test_check_flags_coefficient_violation(capsys, tmp_path):
    cert = json.loads((FIXTURES / "cert_r5.json").read_text())
    for ln in cert["lines"]:
        if (ln["i"], ln["s"]) == (3, 2):
            ln["k"] = 1
    path = write_json(tmp_path / "retarget.json", cert)
    code, stdout, _ = run(capsys, "check", path)
    assert code == 1
    reasons = {v["reason"] for v in json.loads(stdout)["violations"]}
    assert "coefficient" in reasons


def test_check_malformed_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "error" in err.lower()


def test_check_missing_file_is_usage_error(capsys, tmp_path):
    code, _, _ = run(capsys, "check", str(tmp_path / "nope.json"))
    assert code == 2


def test_report_renders_golden_certificate(capsys):
    code, stdout, _ = run(capsys, "report", str(FIXTURES / "cert_r5.json"))
    assert code == 0
    assert "120(a1^7 b1^3 + a1^3 b1^7)" in stdout


def test_report_json_includes_orbit_tables(capsys):
    code, stdout, _ = run(capsys, "report", str(FIXTURES / "cert_r3.json"), "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["report"]["r"] == 3
    assert len(payload["lhs_orbits"]) == 6
    assert len(payload["rhs_orbits"]) == 3
    assert any(row["hi"] == "10/3" for row in payload["shadows"])


def test_report_invalid_certificate_exits_one(capsys, tmp_path):
    cert = json.loads((FIXTURES / "cert_r3.json").read_text())
    cert["lines"] = cert["lines"][:-1]
    path = write_json(tmp_path / "invalid.json", cert)
    code, _, err = run(capsys, "report", path)
    assert code == 1
    assert "does not validate" in err


@pytest.mark.parametrize(
    "line, message",
    [
        ({"i": 9, "s": 1, "k": 1}, "level 9 out of range for r=3"),
        ({"i": 1, "s": 1, "k": 7}, "target 7 out of range for r=3"),
    ],
)
def test_check_and_report_agree_on_out_of_range_line(capsys, tmp_path, line, message):
    path = write_json(tmp_path / "out_of_range.json", {"r": 3, "lines": [line]})
    results = [run(capsys, command, path) for command in ("check", "report")]
    assert results == [(2, "", f"error: {message}\n")] * 2


@pytest.mark.parametrize(
    "argv",
    [["prove", "--r", "7146"], ["prove", "--r", "7146", "--json"], ["report", "{}"],
     ["report", "{}", "--json"]],
)
def test_prove_and_report_refuse_a_length_whose_numbers_str_cannot_print(capsys, tmp_path, argv):
    # C(2r, r) has 4,301 digits at r = 7146: the command stops before its
    # first byte, and before it builds or checks a certificate
    path = write_json(tmp_path / "cert.json", {"r": 7146, "lines": []})
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, stdout, err = run(capsys, *(arg.format(path) for arg in argv))
    finally:
        sys.set_int_max_str_digits(saved)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "r=7146" in err and "4300 digits" in err


# sha256 of the stdout of each exact command for r = 1..60, one run after
# another, recorded before prove and report wrote their output in pieces;
# report and check read the built certificate from a file
EXACT_OUTPUT_SHA256 = {
    "prove": "64cf9caafa011cbd2bc274b9a8ad8d176ab840e2d5211e464a9547afac378858",
    "prove --json": "a5b0d702dc846dea99dd0cd04446ba42bd90550ca79f8ba12f2995dcb3a71d9c",
    "report": "64cf9caafa011cbd2bc274b9a8ad8d176ab840e2d5211e464a9547afac378858",
    "report --json": "097bbda9cb4aeaa45966f3f55f1ecd06b12336253f22fba9b36fbb89ee0c2a97",
    "check": "cb85f0cec0eb2ba76618c110e8501eb43621b611605a57bf1d22e4e9fb4a9014",
}


def exact_output_sha256(capsys, tmp_path, command):
    name, *flags = command.split()
    digest = hashlib.sha256()
    for r in range(1, 61):
        if name == "prove":
            argv = ["prove", "--r", str(r)]
        else:
            cert = certificate_mod.search_certificate(GradingSignature(r))
            payload = certificate_mod.certificate_to_json(cert)
            argv = [name, write_json(tmp_path / f"cert_{r}.json", payload)]
        code, stdout, err = run(capsys, *argv, *flags)
        assert (code, err) == (0, "")
        digest.update(stdout.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("command", list(EXACT_OUTPUT_SHA256))
def test_exact_command_output_is_pinned_for_r_up_to_60(capsys, tmp_path, command):
    assert exact_output_sha256(capsys, tmp_path, command) == EXACT_OUTPUT_SHA256[command]


# sha256 of the file that prove --out writes (json.dump with indent=2)
PROVE_OUT_SHA256 = {
    1: "e23edee83495781d3b77ec8efe4de8f9d23c17b80081af8adc6d9ae71234b561",
    5: "d54aeb1c6c1e2c44704659a07f6ddcc705c561018117cdfd39a8b3e4f9d6ea78",
    40: "5a723558ef7746a43b43285101ef4d6fc7d076a6cca12ee0c37aa7b7739bc828",
}


@pytest.mark.parametrize("r", list(PROVE_OUT_SHA256))
def test_prove_out_file_is_pinned(capsys, tmp_path, r):
    out = tmp_path / "cert.json"
    assert run(capsys, "prove", "--r", str(r), "--json", "--out", str(out))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PROVE_OUT_SHA256[r]


# ---------------------------------------------------------------------------
# hunt
# ---------------------------------------------------------------------------

def test_hunt_r2_no_violation(capsys):
    code, stdout, _ = run(
        capsys, "hunt", "--r", "2", "--samples", "20000", "--seed", "42", "--json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["violation_found"] is False
    assert payload["max_relative_defect"] <= 1e-12
    assert payload["samples_evaluated"] >= 20000


def test_hunt_human_output(capsys):
    code, stdout, _ = run(capsys, "hunt", "--r", "3", "--samples", "5000", "--seed", "1")
    assert code == 0
    assert "no violation" in stdout


@pytest.mark.parametrize("r, message", [("0", "must be >= 1, got 0"), ("x", "not an integer: 'x'")])
def test_hunt_rejects_r_that_is_not_a_positive_integer(capsys, r, message):
    code, stdout, err = run(capsys, "hunt", "--r", r)
    assert (code, stdout) == (2, "")
    assert err.endswith(f"error: argument --r: {message}\n")


def test_hunt_rejects_negative_seed(capsys):
    code, stdout, err = run(capsys, "hunt", "--r", "3", "--seed", "-1")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and "rng_seed" in err


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_hunt_non_finite_defect_is_an_error_not_a_violation(capsys, monkeypatch, mode):
    # a kernel whose every row is NaN leaves the hunt no finite defect;
    # the lattice passes its zero entries as ``zeros`` under X86_V4
    def nan_norms(exponents, *blocks, zeros=None):
        return np.full((len(blocks), blocks[0].shape[0]), np.nan)

    monkeypatch.setattr(numeric_search, "_batch_norms", nan_norms)
    code, stdout, err = run(capsys, "hunt", "--r", "47", "--samples", "20000", *mode)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and "at r=47 found no finite defect" in err
    assert err.count("\n") == 1
    assert "Infinity" not in err


@pytest.mark.parametrize("message", ["Unable to allocate 1.49 GiB", ""])
def test_hunt_out_of_memory_is_a_usage_error_not_a_violation(capsys, monkeypatch, message):
    # exit 1 means a violation; running out of memory is exit 2 with one
    # error line and no traceback
    def no_memory(config, threads=1):
        raise MemoryError(message)

    monkeypatch.setattr(numeric_search, "hunt", no_memory)
    code, stdout, err = run(capsys, "hunt", "--r", "1000", "--samples", "2000")
    assert code == 2
    assert stdout == ""
    assert err == f"error: {message or 'out of memory'}\n"


def test_hunt_violation_prints_both_argmax_profiles_and_exits_one(capsys, monkeypatch):
    sig = GradingSignature(2)
    argmax = (ScalarProfile(sig, [1.0, 0.5]), ScalarProfile(sig, [0.25, 2.0]))

    def violating(config, threads=1):
        return numeric_search.SearchOutcome(0.5, 0.25, argmax, 7, True)

    monkeypatch.setattr(numeric_search, "hunt", violating)
    code, stdout, err = run(capsys, "hunt", "--r", "2", "--seed", "3")
    assert (code, err) == (1, "")
    assert stdout == (
        "VIOLATION: max relative defect 2.500e-01 over 7 evaluations (r=2, seed=3)\n"
        "argmax a = [1.0, 0.5]\n"
        "argmax b = [0.25, 2.0]\n"
    )


@pytest.mark.parametrize(
    "r, mode, threads",
    [
        ("52", [], None),
        ("52", ["--json"], None),
        ("52", ["--json"], "2"),
        ("47", [], "2"),
        ("47", ["--json"], None),
    ],
)
def test_hunt_where_power_sums_overflow_exits_0_without_warnings(
    capsys, monkeypatch, r, mode, threads
):
    # from r = 47 on, 1e3 ** 2r leaves the double range; the kernel
    # rescales those rows, and nothing may warn, in the main thread or
    # in a pool worker
    if threads is not None:
        monkeypatch.setenv("GRADENORM_THREADS", threads)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, "hunt", "--r", r, "--samples", "20000", *mode)
    assert (code, err) == (0, "")
    if mode:
        payload = strict_json(stdout)
        assert payload["r"] == int(r)
        assert payload["violation_found"] is False
        assert payload["max_relative_defect"] <= 1e-12
    else:
        assert "no violation" in stdout


def test_hunt_threads_env_does_not_change_outcome(capsys, monkeypatch):
    args = ["hunt", "--r", "2", "--samples", "30000", "--seed", "9", "--json"]
    code, solo, _ = run(capsys, *args)
    assert code == 0
    monkeypatch.setenv("GRADENORM_THREADS", "4")
    code, pooled, _ = run(capsys, *args)
    assert code == 0
    assert json.loads(solo) == json.loads(pooled)


def test_hunt_ignores_malformed_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("GRADENORM_THREADS", "lots")
    code, stdout, err = run(capsys, "hunt", "--r", "2", "--samples", "5000", "--json")
    assert code == 0
    assert "GRADENORM_THREADS" in err


# ---------------------------------------------------------------------------
# norm / dilate / triangle-sample
# ---------------------------------------------------------------------------

def zero_vector_payload(r=3, dim=2):
    return {"r": r, "components": [[0.0] * dim for _ in range(r)]}


def test_norm_of_zero_vector(capsys, tmp_path):
    path = write_json(tmp_path / "zero.json", zero_vector_payload())
    code, stdout, _ = run(capsys, "norm", "--in", path, "--json")
    assert code == 0
    assert json.loads(stdout) == {"r": 3, "hnorm": 0.0}


def test_norm_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(zero_vector_payload())))
    code, stdout, _ = run(capsys, "norm")
    assert code == 0
    assert float(stdout.strip()) == 0.0


def test_norm_r5_all_unit_levels(capsys, tmp_path):
    payload = {"r": 5, "components": [[1.0, 0.0, 0.0]] * 5}
    path = write_json(tmp_path / "unit.json", payload)
    code, stdout, _ = run(capsys, "norm", "--in", path, "--json")
    assert code == 0
    assert json.loads(stdout)["hnorm"] == pytest.approx(5 ** 0.1, rel=1e-14)


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "components, expected",
    [
        ([[1e100], [1.0], [1.0]], 1e100),
        ([[1e200, 1.0], [2.0], [1e-300]], 1e200),
        ([[1e-200], [1e-200], [0.0], [0.0], [0.0]], 1e-160),
    ],
)
def test_norm_json_is_finite_outside_double_range(capsys, tmp_path, components, expected):
    payload = {"r": len(components), "components": components}
    path = write_json(tmp_path / "extreme.json", payload)
    code, stdout, _ = run(capsys, "norm", "--in", path, "--json")
    assert code == 0
    assert strict_json(stdout)["hnorm"] == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_norm_of_level_beyond_double_range_is_usage_error(capsys, tmp_path):
    path = write_json(tmp_path / "huge.json", {"r": 2, "components": [[1.5e308, 1.5e308], [1.0]]})
    code, stdout, stderr = run(capsys, "norm", "--in", path, "--json")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:")


def test_triangle_sample_of_level_beyond_double_range_is_usage_error(capsys, tmp_path):
    big = {"r": 2, "components": [[1e308], [1.0]]}
    path = write_json(tmp_path / "pair.json", {"X": big, "Y": big})
    # the sum of the first levels overflows; the suite turns a leaked warning into a failure
    code, stdout, stderr = run(capsys, "triangle-sample", "--in", path, "--json")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:")


def test_norm_malformed_vector_is_usage_error(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {"r": 2, "components": [[1.0]]})
    code, _, _ = run(capsys, "norm", "--in", path)
    assert code == 2


def test_dilate_negation_preserves_norm(capsys, tmp_path):
    rng = np.random.default_rng(77)
    vec = random_vector(GradingSignature(4), rng)
    path = write_json(tmp_path / "vec.json", vector_to_json(vec))
    code, stdout, _ = run(capsys, "dilate", "--t", "-1", "--in", path)
    assert code == 0
    dilated = vector_from_json(json.loads(stdout))
    assert hnorm(dilated) == hnorm(vec)


def test_dilate_rejects_zero_parameter(capsys, tmp_path):
    path = write_json(tmp_path / "vec.json", zero_vector_payload())
    code, _, _ = run(capsys, "dilate", "--t", "0", "--in", path)
    assert code == 2


@pytest.mark.parametrize("t", ["0", "nan", "inf", "-inf"])
def test_dilate_error_names_a_zero_or_nonfinite_parameter(capsys, tmp_path, t):
    path = write_json(tmp_path / "vec.json", zero_vector_payload())
    code, stdout, stderr = run(capsys, "dilate", f"--t={t}", "--in", path)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: dilation parameter t must be finite and nonzero")


@pytest.mark.parametrize(
    "components, t",
    [
        ([[1e300], [1.0], [1.0]], "1e10"),  # the first level overflows
        ([[1.0], [1.0], [1.0]], "1e150"),  # t ** 3 overflows
    ],
)
def test_dilate_out_of_double_range_is_usage_error(capsys, tmp_path, components, t):
    path = write_json(tmp_path / "vec.json", {"r": 3, "components": components})
    code, stdout, stderr = run(capsys, "dilate", "--t", t, "--in", path)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:")


def test_triangle_sample_random_pair(capsys):
    code, stdout, _ = run(capsys, "triangle-sample", "--r", "5", "--seed", "3", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["triangle_defect"] <= 1e-12
    assert payload["X"]["r"] == 5


def test_triangle_sample_supplied_pair(capsys, tmp_path):
    rng = np.random.default_rng(78)
    x = random_vector(GradingSignature(3), rng)
    y = random_vector(GradingSignature(3), rng)
    path = write_json(
        tmp_path / "pair.json", {"X": vector_to_json(x), "Y": vector_to_json(y)}
    )
    code, stdout, _ = run(capsys, "triangle-sample", "--in", path)
    assert code == 0
    assert "triangle defect" in stdout


def triangle_sample_agrees_with_the_library(stdout, x, y):
    payload = json.loads(stdout)
    assert payload["X"] == vector_to_json(x) and payload["Y"] == vector_to_json(y)
    defect = payload["triangle_defect"]
    own = payload["hnorm_sum"] - payload["hnorm_x"] - payload["hnorm_y"]
    assert defect.hex() == triangle_defect(x, y).hex() == own.hex()


def test_triangle_sample_reports_the_library_defect_of_a_sampled_pair(capsys):
    code, stdout, _ = run(capsys, "triangle-sample", "--r", "5", "--seed", "3", "--json")
    assert code == 0
    rng = np.random.default_rng(3)
    x = random_vector(GradingSignature(5), rng)
    y = random_vector(GradingSignature(5), rng)
    triangle_sample_agrees_with_the_library(stdout, x, y)


def test_triangle_sample_reports_the_library_defect_of_a_supplied_pair(capsys, tmp_path):
    rng = np.random.default_rng(79)
    sig = GradingSignature(4)
    x = random_vector(sig, rng, dims=(2, 1, 3, 2), magnitude_decades=(-3.0, 3.0))
    y = random_vector(sig, rng, dims=(2, 1, 3, 2), magnitude_decades=(-3.0, 3.0))
    path = write_json(tmp_path / "pair.json", {"X": vector_to_json(x), "Y": vector_to_json(y)})
    code, stdout, _ = run(capsys, "triangle-sample", "--in", path, "--json")
    assert code == 0
    triangle_sample_agrees_with_the_library(stdout, x, y)


def test_triangle_sample_needs_input_or_length(capsys, tmp_path):
    assert run(capsys, "triangle-sample") == (2, "", "error: provide --in or --r\n")
    path = write_json(tmp_path / "vector.json", {"r": 2, "components": [[1.0], [2.0]]})
    assert run(capsys, "triangle-sample", "--in", path) == (
        2,
        "",
        "error: expected JSON with keys 'X' and 'Y'\n",
    )


def test_triangle_sample_respects_dims(capsys):
    code, stdout, _ = run(
        capsys, "triangle-sample", "--r", "3", "--dims", "1,4,2", "--seed", "0", "--json"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert [len(c) for c in payload["X"]["components"]] == [1, 4, 2]


def imported_modules(argv):
    """The modules a ``python -X importtime -m gradenorm`` child imports,
    with its exit code."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gradenorm", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(FIXTURES.parents[1] / "src")},
    )
    lines = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
    return result.returncode, {line.rsplit("|", 1)[1].strip() for line in lines}


@pytest.mark.parametrize(
    "command",
    [
        ["norm", "--in", "vector.json"],
        ["norm", "--in", "vector.json", "--json"],
        ["dilate", "--t", "-2", "--in", "vector.json"],
        ["triangle-sample", "--in", "pair.json", "--json"],
    ],
    ids=["norm", "norm-json", "dilate", "triangle-sample-in"],
)
def test_float_commands_on_a_file_import_neither_numpy_nor_dataclasses(tmp_path, command):
    vector = {"r": 3, "components": [[1.0, -2.5], [3], [0.5, 2**60 + 1, -4.0]]}
    write_json(tmp_path / "vector.json", vector)
    write_json(tmp_path / "pair.json", {"X": vector, "Y": vector})
    code, modules = imported_modules([str(tmp_path / arg) if arg.endswith(".json") else arg for arg in command])
    assert code == 0 and "gradenorm.graded_space" in modules
    assert not {m for m in modules if m.split(".")[0] in ("numpy", "dataclasses")}


# ---------------------------------------------------------------------------
# every error a subcommand can reach: its exit code and one error: line
# ---------------------------------------------------------------------------

def error_case_paths(tmp_path):
    """The files an error case names: missing, malformed, unwritable, the
    r = 3 fixture tampered three ways, a valid vector, vectors with an
    entry that is not a JSON number, and a pair whose sum leaves the
    double range."""
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json", encoding="utf-8")
    paths = {
        "missing": str(tmp_path / "nope.json"),
        "garbage": str(garbage),
        "unwritable": str(tmp_path / "no-such-dir" / "cert.json"),
    }
    edits = {
        "dropped": lambda cert: cert["lines"].pop(),
        "out_of_range": lambda cert: cert["lines"][0].update(i=9),
        "no_lines": lambda cert: cert.pop("lines"),
    }
    for name, edit in edits.items():
        cert = json.loads((FIXTURES / "cert_r3.json").read_text())
        edit(cert)
        paths[name] = write_json(tmp_path / f"{name}.json", cert)
    # a vector with a non-numeric entry, alone and as one of a pair
    bad = {"r": 1, "components": [[{"a": 1}]]}
    paths["non_numeric"] = write_json(tmp_path / "non_numeric.json", bad)
    pair = {"X": bad, "Y": {"r": 1, "components": [[1.0]]}}
    paths["non_numeric_pair"] = write_json(tmp_path / "non_numeric_pair.json", pair)
    paths["vector"] = write_json(tmp_path / "vector.json", {"r": 2, "components": [[1.0], [2.0]]})
    big = {"r": 2, "components": [[1.5e308], [1.0]]}
    paths["overflowing_sum"] = write_json(tmp_path / "overflowing_sum.json", {"X": big, "Y": big})
    # JSON values that numpy would convert to floats
    for name, entry in (("string", "1.5"), ("boolean", True), ("null", None)):
        paths[name] = write_json(tmp_path / f"{name}.json", {"r": 1, "components": [[entry]]})
    return paths


ERROR_CASES = [
    (["norm", "--in", "{missing}"], 2),
    (["norm", "--in", "{garbage}"], 2),
    (["norm", "--in", "{non_numeric}"], 2),
    (["norm", "--json", "--in", "{non_numeric}"], 2),
    (["norm", "--in", "{string}"], 2),
    (["norm", "--json", "--in", "{boolean}"], 2),
    (["norm", "--in", "{null}"], 2),
    (["dilate", "--t", "2", "--in", "{missing}"], 2),
    (["dilate", "--t", "2", "--in", "{garbage}"], 2),
    (["dilate", "--t", "2", "--in", "{non_numeric}"], 2),
    (["dilate", "--t", "2", "--in", "{string}"], 2),
    (["dilate", "--t", "2", "--in", "{null}"], 2),
    (["dilate", "--t=nan", "--in", "{vector}"], 2),
    (["dilate", "--t=inf", "--in", "{vector}"], 2),
    (["dilate", "--t=-inf", "--in", "{vector}"], 2),
    (["triangle-sample"], 2),
    (["triangle-sample", "--in", "{missing}"], 2),
    (["triangle-sample", "--in", "{garbage}"], 2),
    (["triangle-sample", "--in", "{non_numeric_pair}"], 2),
    (["triangle-sample", "--in", "{overflowing_sum}"], 2),
    (["triangle-sample", "--r", "3", "--seed", "-5"], 2),
    (["prove", "--r", "3", "--out", "{unwritable}"], 2),
    (["prove", "--r", "3", "--json", "--out", "{unwritable}"], 2),
    (["check", "{missing}"], 2),
    (["check", "{garbage}"], 2),
    (["check", "{out_of_range}"], 2),
    (["check", "{no_lines}"], 2),
    (["report", "{missing}"], 2),
    (["report", "{garbage}"], 2),
    (["report", "{dropped}"], 1),
    (["report", "--json", "{dropped}"], 1),
    (["report", "{out_of_range}"], 2),
    (["report", "{no_lines}"], 2),
    (["hunt", "--r", "3", "--seed", "-1"], 2),
    (["hunt", "--r", "3", "--seed", "-1", "--json"], 2),
]


@pytest.mark.parametrize("argv, code", ERROR_CASES, ids=[" ".join(a) for a, _ in ERROR_CASES])
def test_every_subcommand_error_exits_with_its_code_and_one_error_line(
    capsys, tmp_path, argv, code
):
    paths = error_case_paths(tmp_path)
    got, stdout, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (got, stdout) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["conjecture"]) == 2


def test_console_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "gradenorm", "prove", "--r", "2"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(FIXTURES.parents[1] / "src")},
    )
    assert result.returncode == 0
    assert "[k=2]" in result.stdout


# ---------------------------------------------------------------------------
# how a child ends: atexit handlers, flushed streams, os._exit
# ---------------------------------------------------------------------------

def buffered_env():
    """The environment with src on the path and without PYTHONUNBUFFERED,
    so that a child's stdout to a file or pipe is block-buffered and a
    skipped final flush would lose its tail."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(FIXTURES.parents[1] / "src")
    return env


def exit_path_paths(tmp_path):
    """The files the exit-path cases name: the r = 5 fixture, the r = 40
    builder certificate, the fixture tampered as the cli-oneshot bench
    tampers it, a vector, and a file that is not there."""
    fixture = json.loads((FIXTURES / "cert_r5.json").read_text())
    tampered = json.loads(json.dumps(fixture))
    tampered["lines"][0]["k"] = 5  # (i=1, s=1) charged to the middle orbit
    cert40 = certificate_mod.search_certificate(GradingSignature(40))
    vector = {"r": 5, "components": [[0.5, -1.25, 2.0], [3.0], [-0.75, 4.5], [1e-3], [2.5, -6.0]]}
    return {
        "r5": str(FIXTURES / "cert_r5.json"),
        "r40": write_json(tmp_path / "cert_r40.json", certificate_mod.certificate_to_json(cert40)),
        "tampered": write_json(tmp_path / "tampered.json", tampered),
        "vector": write_json(tmp_path / "vector.json", vector),
        "missing": str(tmp_path / "nope.json"),
    }


# the nine commands of the cli-oneshot bench mix, a usage error, a
# missing file, and one output far larger than a stdout buffer
EXIT_PATH_CASES = [
    (["--version"], 0),
    (["check", "{r5}"], 0),
    (["check", "{r40}"], 0),
    (["check", "{tampered}"], 1),
    (["prove", "--r", "5", "--json"], 0),
    (["report", "{r5}", "--json"], 0),
    (["norm", "--in", "{vector}"], 0),
    (["triangle-sample", "--r", "5", "--seed", "11", "--json"], 0),
    (["hunt", "--r", "3", "--samples", "10000", "--seed", "11", "--json"], 0),
    (["prove", "--r", "0"], 2),
    (["check", "{missing}"], 2),
    (["prove", "--r", "200", "--json"], 0),
]

PROVE_R200_JSON_SHA256 = "df2c9713fa043ac9c04ebe11a78170059bd5b40b30b307d481a275b94caf9e07"


@pytest.mark.parametrize(
    "argv, code", EXIT_PATH_CASES, ids=[" ".join(a) for a, _ in EXIT_PATH_CASES]
)
def test_a_child_writes_what_main_writes_and_exits_with_its_code(capsys, tmp_path, argv, code):
    paths = exit_path_paths(tmp_path)
    argv = [arg.format(**paths) for arg in argv]
    out_path = tmp_path / "child.out"
    with open(out_path, "wb") as out:
        child = subprocess.run(
            [sys.executable, "-m", "gradenorm", *argv],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env=buffered_env(),
        )
    got, stdout, err = run(capsys, *argv)
    assert got == code
    assert (child.returncode, child.stderr) == (got, err)
    assert out_path.read_bytes() == stdout.encode("utf-8")
    if argv == ["prove", "--r", "200", "--json"]:
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == PROVE_R200_JSON_SHA256


def test_an_atexit_handler_runs_once_after_the_commands_output(tmp_path):
    script = (
        "import atexit, sys\n"
        "from gradenorm.cli import entrypoint\n"
        "atexit.register(print, 'handler ran')\n"
        "sys.argv = ['gradenorm', 'check', sys.argv[1]]\n"
        "entrypoint()\n"
    )
    out_path = tmp_path / "child.out"
    with open(out_path, "wb") as out:
        child = subprocess.run(
            [sys.executable, "-c", script, str(FIXTURES / "cert_r5.json")],
            stdout=out,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env=buffered_env(),
        )
    assert (child.returncode, child.stderr) == (0, "")
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["valid"] is True
    assert lines[1:] == ["handler ran"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_buffered_stdout_to_a_full_device_still_exits_120():
    with open("/dev/full", "wb") as full:
        child = subprocess.run(
            [sys.executable, "-m", "gradenorm", "--version"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env=buffered_env(),
        )
    assert child.returncode == 120
    assert child.stderr.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert "No space left on device" in child.stderr


def test_a_reader_that_stops_early_still_gets_the_broken_pipe_error():
    # what `gradenorm prove --r 300 --json | head -c 20` does
    with subprocess.Popen(
        [sys.executable, "-m", "gradenorm", "prove", "--r", "300", "--json"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=buffered_env(),
    ) as child:
        try:
            head = child.stdout.read(20)
            child.stdout.close()
            err = child.stderr.read().decode("utf-8")
            code = child.wait(timeout=120)
        finally:
            child.kill()  # a no-op once the child has exited
    assert head == b'{"certificate": {"r"'
    assert (code, err) == (2, "error: [Errno 32] Broken pipe\n")


def test_hunt_at_one_thread_imports_no_thread_pool(monkeypatch):
    monkeypatch.delenv("GRADENORM_THREADS", raising=False)
    code, modules = imported_modules(["hunt", "--r", "3", "--samples", "1000"])
    assert code == 0 and "gradenorm.numeric_search" in modules
    assert not {m for m in modules if m.split(".")[0] == "concurrent"}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("caller", [None, "2"])
def test_the_cli_holds_openblas_to_one_thread_unless_the_caller_sets_it(caller):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(FIXTURES.parents[1] / "src")
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    child = (
        "import os, gradenorm.cli, numpy; "
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=60, env=env
    )
    assert result.returncode == 0, result.stderr
    setting, threads = result.stdout.split()
    if caller is None:
        assert (setting, threads) == ("1", "1")
    else:
        assert setting == caller
