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
import gradenorm.cli as cli_mod
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
    real = cli_mod.certificate_to_json
    monkeypatch.setattr(cli_mod, "certificate_to_json", lambda c: calls.append(c) or real(c))
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
    real_search = cli_mod.search_certificate

    def retargeted(sig):
        cert = real_search(sig)
        lines = tuple(
            certificate_mod.CertificateLine(3, 1, 3) if (ln.level, ln.split) == (3, 1) else ln
            for ln in cert.lines
        )
        return certificate_mod.Certificate(cert.r, lines)

    monkeypatch.setattr(cli_mod, "search_certificate", retargeted)
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
