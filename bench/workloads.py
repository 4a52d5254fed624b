"""The four benchmark workloads.

Each is a closed loop with one client: the next call starts when the
last one returns. A workload builds its inputs from the seed in
``setup``, runs one untimed warm-up operation, then runs rounds until
the run's time is spent. Every operation is checked; an exception from
the library or a failed check counts the operation as failed, and its
latency is still recorded.

Why each workload exists is written down in README.md beside this file.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import reference

CHILD_TIMEOUT_S = 60.0

# calibrate() takes about this long on a shared 2-vCPU Intel Xeon VM with
# Python 3.11; times are reported at that speed.
CAL_REF_S = 0.008


def median(values) -> float:
    return statistics.median(values) if len(values) else 0.0


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (about 8 ms here).

    It touches nothing of gradenorm, so a change to the library cannot
    move it; it moves only with the speed the machine gives this process.
    The total time, not the best of several short runs, tracks that speed
    best over the length of an operation.
    """
    start = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 1000):
        x = (x + Fraction(i, i + 1)) / 2
    return time.perf_counter() - start


class Tally:
    """Outcome of every timed operation: latency per label and failures."""

    def __init__(self) -> None:
        self.latency_ms: dict[str, array] = defaultdict(lambda: array("d"))
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []  # the first few, for the record
        self.round_marks: list[tuple[dict[str, int], float]] = []  # (samples per label, scale)

    def record(self, label: str, seconds: float, problem: str | None) -> None:
        self.attempted += 1
        self.latency_ms[label].append(seconds * 1e3)
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"op": label, "problem": problem})

    def mark_round(self, scale: float) -> None:
        self.round_marks.append(({label: len(v) for label, v in self.latency_ms.items()}, scale))

    def round_latency_ms(self, scaled: bool = False) -> list[list[float]]:
        """Latencies of each round, in wall time or at the round's reference speed."""
        rounds = [[] for _ in self.round_marks]
        for label, values in self.latency_ms.items():
            start = 0
            for out, (counts, scale) in zip(rounds, self.round_marks):
                end = counts.get(label, 0)
                out.extend(v * (scale if scaled else 1.0) for v in values[start:end])
                start = end
        return rounds


def rate(rounds: list[dict], work: str, seconds: str, scaled: bool = True) -> float:
    """Median over rounds of work per second, at the reference speed if ``scaled``."""
    return median(
        [rd[work] / (rd[seconds] * (rd["scale"] if scaled else 1.0)) for rd in rounds if rd[seconds]]
    )


def timed(fn: Callable, *args: Any) -> tuple[Any, float]:
    """Call ``fn``; an exception is returned in place of the value."""
    start = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:  # counted as a failed operation by the caller
        value = exc
    return value, time.perf_counter() - start


def run_child(argv: list[str], env: dict, cwd: Path, out_dir: Path):
    """Run one child to completion and time it from spawn to exit.

    Returns (exit code, stdout, stderr, seconds, peak RSS in MB). Output
    goes to files so that ``os.wait4`` can reap the child and report its
    own resource usage. A child still running after CHILD_TIMEOUT_S is
    killed.
    """
    out_path, err_path = out_dir / "child.out", out_dir / "child.err"
    started: list[subprocess.Popen] = []
    timer = threading.Timer(CHILD_TIMEOUT_S, lambda: [p.kill() for p in started])
    timer.start()
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=cwd
            )
            started.append(proc)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        seconds,
        usage.ru_maxrss / 1024,
    )


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["GRADENORM_THREADS"] = "1"
    return env


class Workload:
    name = ""
    # What calibrate() takes at the reference speed; None reports wall time.
    # See README.md for why each workload has the probe it has.
    cal_ref_s: float | None = CAL_REF_S

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.lib = ctx.lib
        self.tracer = ctx.tracer
        self.rng = random.Random(ctx.seed)
        self.tally = Tally()
        self.cals: list[float] = []  # every calibration of the run
        self._round_cals: list[float] = []

    def calibrate(self) -> float:
        return calibrate()

    def setup_scale(self) -> float:
        """Reference seconds per wall second right after set-up."""
        return self.cal_ref_s / self.calibrate() if self.cal_ref_s else 1.0

    def recalibrate(self) -> None:
        if self.cal_ref_s:
            self._round_cals.append(self.calibrate())

    def end_round(self, rd: dict) -> None:
        """Fix the round's scale to the reference speed: ``cal_ref_s`` over
        the median of the calibrations taken during the round."""
        cals, self._round_cals = self._round_cals, []
        self.cals += cals
        rd["scale"] = self.cal_ref_s / statistics.median(cals) if cals else 1.0
        self.tally.mark_round(rd["scale"])

    def setup(self) -> None:
        """Build every input from the seed (timed as set-up)."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self) -> dict:
        """One pass over the workload's mix; returns that round's totals."""
        raise NotImplementedError

    def work_per_s(self, rounds: list[dict], scaled: bool = True) -> float:
        return rate(rounds, "work", "work_s", scaled)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def named_metrics(self, rounds: list[dict], e2e: dict) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end figures, by the names README.md uses."""
        return {}

    def layer_values(self, rounds: list[dict]) -> dict[str, float]:
        """Per-layer figures the benchmark times itself (traced run)."""
        return {}

    def outcomes(self) -> dict:
        """Anything worth keeping in the run record beyond the metrics."""
        return {}


# ---------------------------------------------------------------------------
# prove-ladder: the exact core alone
# ---------------------------------------------------------------------------

LADDER = (2, 5, 12, 24, 40)


class ProveLadder(Workload):
    name = "prove-ladder"

    def setup(self) -> None:
        fixture = json.loads(
            (self.ctx.root / "tests" / "fixtures" / "cert_r5.json").read_text(encoding="utf-8")
        )
        self.fixture_lines = [(row["i"], row["s"], row["k"]) for row in fixture["lines"]]
        self.sigs = {r: self.lib.graded_space.GradingSignature(r) for r in LADDER}
        self.first_text: dict[int, str] = {}

    def warm_up(self) -> None:
        self._step(LADDER[0])

    def run_round(self) -> dict:
        order = list(LADDER)
        self.rng.shuffle(order)
        rd = {"work": 0, "work_s": 0.0, "check_s": 0.0}
        for r in order:
            self.recalibrate()
            problem, lines, parts, seconds = self._step(r)
            self.tally.record(f"r{r}", seconds, problem)
            if problem is None:
                rd["work"] += lines
            rd["work_s"] += sum(parts.get(p, 0.0) for p in ("search_s", "report_s", "to_json_s"))
            rd["check_s"] += parts.get("check_s", 0.0)
            for part, value in parts.items():
                rd[f"{part}.r{r}"] = value
        return rd

    def _step(self, r: int):
        """search, report and serialize, then parse and check the text."""
        cert_mod, sig, tr = self.lib.certificate, self.sigs[r], self.tracer
        tr.next_op()
        start = time.perf_counter()
        try:
            with tr.span("certificate.search"):
                cert = cert_mod.search_certificate(sig)
            t1 = time.perf_counter()
            with tr.span("certificate.report"):
                report = cert_mod.certificate_to_report(sig, cert)
            t2 = time.perf_counter()
            with tr.span("certificate.to_json"):
                text = json.dumps(cert_mod.certificate_to_json(cert))
            t3 = time.perf_counter()
            with tr.span("certificate.check"):
                checked = cert_mod.check_certificate(
                    sig, cert_mod.certificate_from_json(json.loads(text))
                )
            t4 = time.perf_counter()
        except Exception as exc:  # counted as a failed operation
            return f"r={r}: raised {exc!r}", 0, {}, time.perf_counter() - start
        parts = {"search_s": t1 - start, "report_s": t2 - t1, "to_json_s": t3 - t2, "check_s": t4 - t3}
        return self._verify(r, cert, report, text, checked), len(cert.lines), parts, t4 - start

    def _verify(self, r, cert, report, text, checked) -> str | None:
        if not checked.valid:
            return f"check_certificate rejected r={r}: {checked.to_json()['violations'][:3]}"
        if report.r != r or len(cert.lines) != r * (r + 1) // 2:
            return f"r={r}: {len(cert.lines)} lines, expected {r * (r + 1) // 2}"
        if self.first_text.setdefault(r, text) != text:
            return f"r={r}: certificate JSON differs from the first run for this r"
        if r == 5:
            lines = [(ln.level, ln.split, ln.target) for ln in cert.lines]
            if lines != self.fixture_lines:
                return "r=5 lines differ from tests/fixtures/cert_r5.json"
            if reference.grouping(5, lines) != reference.PUBLISHED_R5_GROUPS:
                return "r=5 grouping differs from the published proof"
        return None

    def named_metrics(self, rounds, e2e):
        return {
            "prove_lines_per_s": (self.work_per_s(rounds), "lines/s"),
            "check_lines_per_s": (rate(rounds, "work", "check_s"), "lines/s"),
        }

    def layer_values(self, rounds):
        def part(key: str) -> float:
            return median([rd[key] for rd in rounds if key in rd])

        out = {f"certificate.search_s.r{r}": part(f"search_s.r{r}") for r in LADDER}
        out["certificate.report_s.r40"] = part("report_s.r40")
        out["certificate.check_s.r40"] = part("check_s.r40")
        return out


# ---------------------------------------------------------------------------
# hunt: the float hunter alone
# ---------------------------------------------------------------------------

# (r, samples). r >= 47 is left out: there the kernel overflows (ROADMAP
# item 2) and the hunt fails, and a benchmark operation must not fail.
HUNT_MIX = ((5, 1_000_000), (12, 200_000), (24, 100_000))
# How long a hunt takes depends on its rng_seed, by up to a factor
# of two, so each run rotates the mix over this many rng_seeds drawn from
# the workload seed. From round HUNT_RNG_SEEDS + 1 on, every hunt repeats
# an earlier (r, rng_seed) and must reproduce its outcome bit for bit.
HUNT_RNG_SEEDS = 4


def _outcome_key(outcome) -> tuple:
    """Everything a hunt reports, in a form compared bit for bit."""
    return (
        float(outcome.max_defect).hex(),
        float(outcome.max_relative_defect).hex(),
        outcome.argmax[0].magnitudes.tobytes(),
        outcome.argmax[1].magnitudes.tobytes(),
        outcome.samples_evaluated,
        outcome.violation_found,
    )


def calibrate_hunt(np) -> float:
    """Seconds for a fixed hunt-shaped numpy loop (about 75 ms here).

    A seeded sweep of 50,000 pairs through an r=12 power-sum kernel, then
    1,500 single-row steps, like the ascent. It is written here and calls
    nothing of gradenorm.
    """
    exponents = np.arange(24.0, 0.0, -2.0)

    def defects(a, b):
        def norms(m):
            return np.power(np.power(m, exponents).sum(axis=1), 1.0 / 24)

        return norms(a + b) - norms(a) - norms(b)

    start = time.perf_counter()
    rng = np.random.default_rng(7)
    a, b = (10.0 ** rng.uniform(-3.0, 3.0, size=(50_000, 12)) for _ in range(2))
    sweep = defects(a, b)
    best = int(np.argmax(sweep))
    x, value = np.concatenate([a[best], b[best]]), sweep[best]
    for step in range(1_500):
        cand = x.copy()
        cand[step % 24] *= 1.001
        cand_value = defects(cand[None, :12], cand[None, 12:])[0]
        if cand_value > value:
            x, value = cand, cand_value
    return time.perf_counter() - start


class Hunt(Workload):
    name = "hunt"
    # numpy-bound: its times follow calibrate_hunt(), not calibrate()
    cal_ref_s = 0.075

    def calibrate(self) -> float:
        return calibrate_hunt(self.lib.np)

    def setup(self) -> None:
        self.rng_seeds = [self.rng.randrange(2**32) for _ in range(HUNT_RNG_SEEDS)]
        self.rounds_run = 0
        self.first: dict[tuple[int, int], tuple] = {}
        self.first_outcome: dict[str, dict] = {}

    def warm_up(self) -> None:
        self._hunt(*HUNT_MIX[0], self.rng_seeds[0])

    def run_round(self) -> dict:
        # the mix's i-th hunt uses rng_seed i + round, rotating
        seeded = [
            (r, samples, self.rng_seeds[(i + self.rounds_run) % HUNT_RNG_SEEDS])
            for i, (r, samples) in enumerate(HUNT_MIX)
        ]
        self.rounds_run += 1
        self.rng.shuffle(seeded)
        rd = {"work": 0, "work_s": 0.0}
        for r, samples, rng_seed in seeded:
            self.recalibrate()
            problem, evaluated, seconds = self._hunt(r, samples, rng_seed)
            self.tally.record(f"r{r}", seconds, problem)
            if problem is None:
                rd["work"] += evaluated
            rd["work_s"] += seconds
            rd[f"hunt_s.r{r}"] = seconds
        return rd

    def _hunt(self, r: int, samples: int, rng_seed: int):
        ns = self.lib.numeric_search
        config = ns.SearchConfig(r, samples, rng_seed=rng_seed)
        where = f"r={r}, rng_seed={rng_seed}"
        self.tracer.next_op()
        start = time.perf_counter()
        try:
            with self.tracer.span("numeric_search.hunt"):
                outcome = ns.hunt(config, threads=1)
        except Exception as exc:  # counted as a failed operation
            self.first_outcome.setdefault(where, {"raised": repr(exc)})
            return f"{where}: hunt raised {exc!r}", 0, time.perf_counter() - start
        seconds = time.perf_counter() - start
        self.first_outcome.setdefault(where, outcome.to_json())
        return self._verify(where, (r, rng_seed), outcome), outcome.samples_evaluated, seconds

    def _verify(self, where: str, key: tuple[int, int], outcome) -> str | None:
        bits = _outcome_key(outcome)
        if self.first.setdefault(key, bits) != bits:
            return f"{where}: outcome differs from the first run of this (r, rng_seed)"
        rel = outcome.max_relative_defect
        if outcome.violation_found:
            return f"{where}: false violation, max relative defect {rel!r}, though prove certifies r={key[0]}"
        if not math.isfinite(rel) or rel > reference.REL_TOL:
            return f"{where}: max relative defect {rel!r} is not finite or above {reference.REL_TOL}"
        return None

    def named_metrics(self, rounds, e2e):
        return {"hunt_pairs_per_s": (self.work_per_s(rounds), "pairs/s")}

    def layer_values(self, rounds):
        return {
            f"numeric_search.hunt_s.r{r}": median([rd[f"hunt_s.r{r}"] for rd in rounds])
            for r, _ in HUNT_MIX
        }

    def outcomes(self):
        return {"first_outcome": dict(sorted(self.first_outcome.items()))}


# ---------------------------------------------------------------------------
# vector-api: the per-object graded layer alone
# ---------------------------------------------------------------------------

VECTOR_RS = (1, 5, 12)
VECTORS_PER_R = 100
LEVEL_DIM = 3


def random_levels(rng: random.Random, r: int) -> list[list[float]]:
    """r levels, each a random direction of magnitude 10^U(-1.5, 1.5)."""
    levels = []
    for _ in range(r):
        direction = [rng.gauss(0.0, 1.0) for _ in range(LEVEL_DIM)]
        scale = 10 ** rng.uniform(-1.5, 1.5) / math.hypot(*direction)
        levels.append([v * scale for v in direction])
    return levels


class _Case:
    """One (x, y, t) input with its pure-Python reference results."""

    def __init__(self, r, sig, x, y, t, np) -> None:
        self.r, self.sig, self.t = r, sig, t
        self.x, self.y = x, y
        self.x_arrays = tuple(np.array(c) for c in x)
        self.y_arrays = tuple(np.array(c) for c in y)
        self.norm_x = reference.norm(x)
        norm_y = reference.norm(y)
        norm_sum = reference.norm(reference.add(x, y))
        self.triangle = norm_sum - self.norm_x - norm_y
        self.triangle_scale = norm_sum + self.norm_x + norm_y
        self.dilated = reference.dilate(t, x)
        norm_dilated = reference.norm(self.dilated)
        self.homogeneity = norm_dilated - abs(t) * self.norm_x
        self.homogeneity_scale = norm_dilated + abs(t) * self.norm_x
        self.labels = {
            call: f"{call}.r{r}"
            for call in ("construct", "hnorm", "triangle_defect", "homogeneity_defect", "dilate")
        }


def _vector_problem(value, want) -> str | None:
    if isinstance(value, Exception):
        return f"raised {value!r}"
    got = [c.tolist() for c in value.components]
    return None if reference.levels_close(got, want) else f"components {got} != reference {want}"


def _scalar_problem(value, want: float, scale: float) -> str | None:
    if isinstance(value, Exception):
        return f"raised {value!r}"
    return None if reference.close(value, want, scale) else f"{value!r} != reference {want!r}"


class VectorApi(Workload):
    name = "vector-api"

    def setup(self) -> None:
        gs, np, rng = self.lib.graded_space, self.lib.np, self.rng
        self.cases = []
        for r in VECTOR_RS:
            sig = gs.GradingSignature(r)
            for _ in range(VECTORS_PER_R):
                t = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-1.0, 1.0)
                x, y = random_levels(rng, r), random_levels(rng, r)
                self.cases.append(_Case(r, sig, x, y, t, np))

    def warm_up(self) -> None:
        case = self.cases[0]
        self.lib.graded_space.GradedVector(case.sig, case.x_arrays)

    def run_round(self) -> dict:
        gs, record = self.lib.graded_space, self.tally.record
        work, busy = 0, 0.0
        failed_before = self.tally.failed
        for index, c in enumerate(self.cases):
            if index % VECTORS_PER_R == 0:
                self.recalibrate()
            label = c.labels
            x, s1 = timed(gs.GradedVector, c.sig, c.x_arrays)
            y, s2 = timed(gs.GradedVector, c.sig, c.y_arrays)
            norm, s3 = timed(gs.hnorm, x)
            tri, s4 = timed(gs.triangle_defect, x, y)
            hom, s5 = timed(gs.homogeneity_defect, x, c.t)
            dil, s6 = timed(gs.dilate, c.t, x)
            record(label["construct"], s1, _vector_problem(x, c.x))
            record(label["construct"], s2, _vector_problem(y, c.y))
            record(label["hnorm"], s3, _scalar_problem(norm, c.norm_x, c.norm_x))
            record(label["triangle_defect"], s4, _scalar_problem(tri, c.triangle, c.triangle_scale))
            record(
                label["homogeneity_defect"], s5, _scalar_problem(hom, c.homogeneity, c.homogeneity_scale)
            )
            record(label["dilate"], s6, _vector_problem(dil, c.dilated))
            work += 6
            busy += s1 + s2 + s3 + s4 + s5 + s6
        return {"work": work - (self.tally.failed - failed_before), "work_s": busy, "calls": work}

    def named_metrics(self, rounds, e2e):
        return {"vector_calls_per_s": (self.work_per_s(rounds), "calls/s")}

    def layer_values(self, rounds):
        lat = self.tally.latency_ms
        out = {
            f"graded_space.hnorm.us_per_call.r{r}": median(lat[f"hnorm.r{r}"]) * 1e3 for r in VECTOR_RS
        }
        out["graded_space.triangle_defect.us_per_call.r5"] = median(lat["triangle_defect.r5"]) * 1e3
        out["graded_space.homogeneity_defect.us_per_call.r5"] = (
            median(lat["homogeneity_defect.r5"]) * 1e3
        )
        out["graded_space.construct_us"] = (
            median([v for r in VECTOR_RS for v in lat[f"construct.r{r}"]]) * 1e3
        )
        return out


# ---------------------------------------------------------------------------
# cli-oneshot: one `python -m gradenorm` child at a time
# ---------------------------------------------------------------------------


def parse_importtime(stderr: str) -> tuple[int, dict[str, float]]:
    """Modules imported and cumulative ms per module, from ``-X importtime``."""
    count, cumulative_ms = 0, {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        count += 1
        cumulative_ms.setdefault(fields[2].strip(), int(fields[1]) / 1e3)
    return count, cumulative_ms


class _Command:
    def __init__(self, name: str, args: list[str], code: int, check: Callable[[str], str | None]):
        self.name, self.args, self.code, self.check = name, args, code, check


def _json_equals(expected: Any) -> Callable[[str], str | None]:
    expected = json.loads(json.dumps(expected))

    def check(stdout: str) -> str | None:
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        return None if got == expected else "JSON differs from the library's result"

    return check


class CliOneshot(Workload):
    name = "cli-oneshot"
    # Children follow the start-up time of a bare interpreter, not the
    # in-process loop, so that is this workload's probe.
    cal_ref_s = 0.075

    def calibrate(self) -> float:
        return run_child([sys.executable, "-c", "pass"], self.env, self.ctx.root, self.ctx.workdir)[3]

    def setup(self) -> None:
        lib, seed, work = self.lib, self.ctx.seed, self.ctx.workdir
        cert_mod, gs = lib.certificate, lib.graded_space
        self.env = child_env(self.ctx.root)
        self.imports: list[tuple[int, dict]] = []
        self.child_rss_mb = 0.0

        def write(name: str, payload: Any) -> str:
            path = work / name
            path.write_text(json.dumps(payload), encoding="utf-8")
            return str(path)

        fixture = json.loads(
            (self.ctx.root / "tests" / "fixtures" / "cert_r5.json").read_text(encoding="utf-8")
        )
        sig5, sig40 = gs.GradingSignature(5), gs.GradingSignature(40)
        cert5 = cert_mod.certificate_from_json(fixture)
        cert40 = cert_mod.search_certificate(sig40)
        tampered = json.loads(json.dumps(fixture))
        tampered["lines"][0]["k"] = 5  # (i=1, s=1) charged to the middle orbit
        proved = cert_mod.search_certificate(sig5)

        def checked(cert_json) -> dict:
            cert = cert_mod.certificate_from_json(cert_json)
            return cert_mod.check_certificate(gs.GradingSignature(cert.r), cert).to_json()

        vector = {"r": 5, "components": random_levels(self.rng, 5)}
        rng = lib.np.random.default_rng(seed)
        x, y = gs.random_vector(sig5, rng), gs.random_vector(sig5, rng)
        hunted = lib.numeric_search.hunt(
            lib.numeric_search.SearchConfig(r=3, sample_count=10_000, rng_seed=seed)
        )
        version = f"gradenorm {lib.gradenorm.__version__}"
        norm = gs.hnorm(gs.vector_from_json(vector))
        exp = lib.expansion
        r5_path = write("cert_r5.json", fixture)
        r40_json = cert_mod.certificate_to_json(cert40)
        self.mix = [
            _Command(
                "version", ["--version"], 0,
                lambda out: None if out.strip() == version else f"printed {out.strip()!r}",
            ),
            _Command("check_r5", ["check", r5_path], 0, _json_equals(checked(fixture))),
            _Command(
                "check_r40", ["check", write("cert_r40.json", r40_json)], 0,
                _json_equals(checked(r40_json)),
            ),
            _Command(
                "check_tampered", ["check", write("cert_tampered.json", tampered)], 1,
                _json_equals(checked(tampered)),
            ),
            _Command(
                "prove_r5", ["prove", "--r", "5", "--json"], 0,
                _json_equals(
                    {
                        "certificate": cert_mod.certificate_to_json(proved),
                        "report": cert_mod.certificate_to_report(sig5, proved).to_json(),
                    }
                ),
            ),
            _Command(
                "report_r5", ["report", r5_path, "--json"], 0,
                _json_equals(
                    {
                        "report": cert_mod.certificate_to_report(sig5, cert5).to_json(),
                        "lhs_orbits": exp.orbit_table(sig5),
                        "rhs_orbits": exp.rhs_table(sig5),
                        "shadows": exp.shadow_table(sig5),
                    }
                ),
            ),
            _Command(
                "norm", ["norm", "--in", write("vector.json", vector)], 0,
                lambda out: None if out.strip() == repr(norm) else f"printed {out.strip()!r}",
            ),
            _Command(
                "triangle_sample", ["triangle-sample", "--r", "5", "--seed", str(seed), "--json"], 0,
                _json_equals(
                    {
                        "X": gs.vector_to_json(x),
                        "Y": gs.vector_to_json(y),
                        "hnorm_x": gs.hnorm(x),
                        "hnorm_y": gs.hnorm(y),
                        "hnorm_sum": gs.hnorm(x + y),
                        "triangle_defect": gs.triangle_defect(x, y),
                    }
                ),
            ),
            _Command(
                "hunt_r3", ["hunt", "--r", "3", "--samples", "10000", "--seed", str(seed), "--json"],
                0, _json_equals(hunted.to_json()),
            ),
        ]

    def warm_up(self) -> None:
        self._run(self.mix[0])

    def _run(self, command: _Command):
        argv = [sys.executable]
        if self.tracer.enabled:
            argv += ["-X", "importtime"]
        argv += ["-m", "gradenorm", *command.args]
        self.tracer.next_op()
        with self.tracer.span(f"cli.{command.name}"):
            code, out, err, seconds, rss_mb = run_child(
                argv, self.env, self.ctx.root, self.ctx.workdir
            )
        if self.tracer.enabled:
            self.imports.append(parse_importtime(err))
        if code != command.code:
            problem = f"{command.name}: exit code {code}, expected {command.code}: {err[-300:]!r}"
        else:
            problem = command.check(out)
            problem = problem and f"{command.name}: {problem}"
        return problem, seconds, rss_mb

    def run_round(self) -> dict:
        order = list(self.mix)
        self.rng.shuffle(order)
        rd = {"work": 0, "work_s": 0.0}
        for index, command in enumerate(order):
            if index % 3 == 0:
                self.recalibrate()
            problem, seconds, rss_mb = self._run(command)
            self.tally.record(command.name, seconds, problem)
            self.child_rss_mb = max(self.child_rss_mb, rss_mb)
            rd["work"] += problem is None
            rd["work_s"] += seconds
        return rd

    def peak_rss_mb(self) -> float:
        return self.child_rss_mb

    def named_metrics(self, rounds, e2e):
        return {"cli_ms_p50": (e2e["op_ms_p50"], "ms"), "cli_ms_tail": (e2e["op_ms_tail"], "ms")}

    def layer_values(self, rounds):
        out = {f"cli.{c.name}_ms": median(self.tally.latency_ms[c.name]) for c in self.mix}
        out["cli.interpreter_ms"] = median(self.cals) * 1e3  # the calibration children
        out["cli.modules_loaded"] = median([count for count, _ in self.imports])
        for module in ("numpy", "gradenorm"):
            out[f"cli.import.{module}_ms"] = median(
                [ms[module] for _, ms in self.imports if module in ms]
            )
        return out


WORKLOADS = {w.name: w for w in (ProveLadder, Hunt, VectorApi, CliOneshot)}
