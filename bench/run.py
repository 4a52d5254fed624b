"""Benchmark for gradenorm: one workload per run, every operation checked.

    python3 bench/run.py --workload prove-ladder --seed 0 --seconds 20 --trace 0

Workloads: prove-ladder, hunt, vector-api, cli-oneshot (README.md says
why each exists). The library is imported from ``src/`` of the checkout
this file sits in; nothing is installed or built.

With ``--trace 0`` the last line of stdout is the JSON result with every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` the library is
instrumented and the result holds every per-layer metric instead. A
readable report, the change against the previous recorded run and, for a
traced run, the tracing overhead go to stderr. Each run's full record is
written to ``bench/results/`` as strict JSON.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here

import argparse
import datetime
import json
import math
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS, median, run_child

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

SETUP_SAMPLES = 3  # this process plus two children that only set up
TAIL_PERCENTILES = (50, 75, 90, 95, 99)
TAIL_MIN_BEYOND = 10


class SetupError(Exception):
    pass


def import_library() -> SimpleNamespace:
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import numpy as np

        import gradenorm
        from gradenorm import certificate, expansion, graded_space, numeric_search
    except ImportError as exc:
        raise SetupError(f"cannot import gradenorm from {src}: {exc}") from exc
    if not Path(gradenorm.__file__).resolve().is_relative_to(src):
        raise SetupError(f"gradenorm was imported from {gradenorm.__file__}, not from {src}")
    return SimpleNamespace(
        np=np,
        gradenorm=gradenorm,
        certificate=certificate,
        expansion=expansion,
        graded_space=graded_space,
        numeric_search=numeric_search,
    )


def latency_ms(round_latencies: list[list[float]]) -> tuple[float, int, float]:
    """(p50, tail percentile, tail) of a run's latencies.

    p50 is the median over rounds of each round's median, so that a mix
    of slow and fast operations does not put it on the edge between two
    kinds. The tail is the highest of TAIL_PERCENTILES with at least
    TAIL_MIN_BEYOND samples beyond it, over all latencies of the run; if
    none above p50 has, it is p50.
    """
    p50 = statistics.median([statistics.median(r) for r in round_latencies if r])
    ordered = sorted(v for r in round_latencies for v in r)
    n = len(ordered)
    for p in reversed(TAIL_PERCENTILES[1:]):
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p50, p, ordered[rank - 1]
    return p50, 50, p50


def setup_in_child(args) -> tuple[float, float]:
    """(set-up seconds, scale) of a fresh process that only sets up."""
    argv = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(args.trace), "--setup-only",
    ]
    code, out, err, _, _ = run_child(argv, dict(os.environ), ROOT, args.workdir)
    if code != 0:
        raise SetupError(f"set-up child exited {code}: {err[-500:]}")
    sample = json.loads(out.strip().splitlines()[-1])
    return sample["setup_s"], sample["scale"]


def round_diff(now: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in now.items()}


def per_layer(spec, workload, rounds, layer_rounds, tracer) -> tuple[dict, dict]:
    """Every per-layer metric of the spec; a layer the workload leaves idle reads 0."""
    values = {m["name"]: 0.0 for m in spec["per_layer"]}
    pairs = list(zip(layer_rounds, rounds))

    def each_round(f) -> float:
        return median([f(d, rd) for d, rd in pairs])

    def total(key: str, scale: float = 1.0) -> float:
        return each_round(lambda d, rd: d.get(key, 0) * scale)

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        return each_round(lambda d, rd: d.get(num, 0) / d[den] * scale if d.get(den) else 0.0)

    for name in ("exactmath.binom", "exactmath.majorizes", "expansion.shadow", "certificate.check_line"):
        values[f"{name}.calls"] = total(f"{name}.calls")
        values[f"{name}.self_s"] = total(f"{name}.self_ns", 1e-9)
    values["expansion.orbit_exponents.calls"] = total("expansion.orbit_exponents.calls")
    values["expansion.lhs_orbits.self_s"] = total("expansion.lhs_orbits.self_ns", 1e-9)
    search_checks = "certificate.search>certificate.check_line.calls"
    values["certificate.search.edge_yield"] = each_round(
        lambda d, rd: rd["work"] / d[search_checks] if d.get(search_checks) else 0.0
    )

    values["numeric_search.scan.self_s"] = total("numeric_search.scan.self_ns", 1e-9)
    values["numeric_search.ascent.self_s"] = total("numeric_search.ascent.self_ns", 1e-9)
    values["numeric_search.other_s"] = each_round(
        lambda d, rd: (
            d.get("numeric_search.hunt.total_ns", 0)
            - d.get("numeric_search.scan.total_ns", 0)
            - d.get("numeric_search.ascent.total_ns", 0)
        )
        * 1e-9
    )
    for name in ("batch_defects.calls", "batch_defects.rows", "nonfinite_rows"):
        values[f"numeric_search.{name}"] = total(f"numeric_search.{name}")
    for r in (5, 12):
        values[f"numeric_search.kernel_ns_per_row.r{r}"] = ratio(f"kernel_ns.r{r}", f"kernel_rows.r{r}")

    for name in ("scalar_profile", "scalar_norm"):
        key = f"graded_space.{name}"
        values[f"{key}.self_us"] = ratio(f"{key}.self_ns", f"{key}.calls", 1e-3)
    values["graded_space.vectors_built_per_call"] = each_round(
        lambda d, rd: d.get("graded_space.vectors_built", 0) / rd["calls"] if rd.get("calls") else 0.0
    )

    values.update(workload.layer_values(rounds))
    unknown = set(values) - {m["name"] for m in spec["per_layer"]}
    if unknown:
        raise SetupError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    reasons = {}
    for name in values:
        reason = tracing.missing_reason(tracer, name)
        if reason:
            values[name], reasons[name] = None, reason
    return values, reasons


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def strict(obj):
    """A copy in which each non-finite float is null, with the reason beside it."""

    def bad(v) -> bool:
        return isinstance(v, float) and not math.isfinite(v)

    def reason(v) -> str:
        return f"non-finite value {v!r} has no JSON form"

    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if bad(v):
                out[k], out[f"{k}_null_reason"] = None, reason(v)
            else:
                out[k] = strict(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [{"value": None, "null_reason": reason(v)} if bad(v) else strict(v) for v in obj]
    return obj


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, lib) -> dict:
    commit = git_commit()
    out = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": lib.np.__version__,
        "gradenorm": lib.gradenorm.__version__,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": os.getloadavg(),
    }
    if commit is None:
        out["git_commit_null_reason"] = "the checkout has no readable .git"
    return out


def previous_record(workload: str, trace: int) -> dict | None:
    files = sorted(RESULTS.glob(f"*-{workload}-seed*-trace{trace}.json"))
    return json.loads(files[-1].read_text(encoding="utf-8")) if files else None


def compare(spec, now: dict, before: dict) -> dict:
    """Change of each end-to-end metric against an earlier run."""
    out = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        old = before.get(name)
        if not old or now.get(name) is None:
            continue
        change = (now[name] - old) / old
        worse = change if m["better"] == "lower" else -change
        out[name] = {
            "before": old,
            "now": now[name],
            "change": change,
            "worse_than_bound": worse > m["bound"],
        }
    return out


def write_record(record: dict, args) -> Path:
    RESULTS.mkdir(exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    path = RESULTS / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(strict(record), indent=1, allow_nan=False) + "\n", encoding="utf-8")
    return path


def say(text: str = "") -> None:
    print(text, file=sys.stderr)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def measure(args, spec, lib, workload, tracer) -> int:
    prov = provenance(args, lib)
    workload.setup()
    if tracer.enabled:
        tracing.instrument(tracer, lib)
    workload.warm_up()
    setup_s = time.perf_counter() - T0
    setup_scale = workload.setup_scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "scale": setup_scale}))
        return 0
    setup_samples = [(setup_s, setup_scale)]
    setup_samples += [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]

    if tracer.enabled:
        tracer.reset()
        before = tracer.snapshot()
    rounds, layer_rounds = [], []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round())
        workload.end_round(rounds[-1])
        if tracer.enabled:
            now = tracer.snapshot()
            layer_rounds.append(round_diff(now, before))
            before = now
        elapsed = time.perf_counter() - start
        # stop at the round boundary nearest to the requested time
        if elapsed + 0.5 * elapsed / len(rounds) >= args.seconds:
            break
    peak_rss_mb = workload.peak_rss_mb()  # before the summaries below allocate

    tally = workload.tally
    p50_ms, tail_p, tail_ms = latency_ms(tally.round_latency_ms(scaled=True))
    e2e = {
        "setup_s": statistics.median([s * scale for s, scale in setup_samples]),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_rss_mb,
        "work_per_s": workload.work_per_s(rounds),
        "op_ms_p50": p50_ms,
        "op_ms_tail": tail_ms,
    }
    if set(e2e) != {m["name"] for m in spec["end_to_end"]}:
        raise SetupError("end-to-end metrics differ from BENCHMARK.json")
    wall_p50_ms, _, wall_tail_ms = latency_ms(tally.round_latency_ms())
    wall = {
        "setup_s": statistics.median([s for s, _ in setup_samples]),
        "work_per_s": workload.work_per_s(rounds, scaled=False),
        "op_ms_p50": wall_p50_ms,
        "op_ms_tail": wall_tail_ms,
    }
    named = {
        "setup_s": (e2e["setup_s"], "s"),
        "failed_frac": (tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
        **workload.named_metrics(rounds, e2e),
    }
    tail_note = f"p{tail_p} of {tally.attempted} operations"
    if tail_p == 50:
        tail_note += f" (no percentile above p50 has {TAIL_MIN_BEYOND} samples beyond it; op_ms_p50 shown)"

    record = {
        "provenance": prov,
        "measured_s": elapsed,
        "rounds": len(rounds),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "setup_samples_s": setup_samples,
        "end_to_end": e2e,
        "end_to_end_wall": wall,
        "calibration_s": workload.cals,
        "op_ms_tail_percentile": tail_p,
        "op_ms_tail_note": tail_note,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "round_totals": rounds,
        **workload.outcomes(),
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if tracer.enabled:
        layers, reasons = per_layer(spec, workload, rounds, layer_rounds, tracer)
        untraced = previous_record(args.workload, 0)
        record["per_layer"] = layers
        record["per_layer_missing"] = reasons
        record["trace_overhead"] = (
            compare(spec, e2e, untraced["end_to_end"])
            if untraced
            else {"missing": "no untraced run of this workload is recorded in bench/results"}
        )
        origin = tracer.spans[0][2] if tracer.spans else 0
        record["spans"] = {
            "fields": ["id", "name", "start_ns", "end_ns", "parent_id", "op_id"],
            "rows": [[i, n, s - origin, e - origin, p, o] for i, n, s, e, p, o in tracer.spans],
        }
        result_metrics = layers
    else:
        result_metrics = e2e
    previous = previous_record(args.workload, args.trace)
    record["against_previous"] = compare(spec, e2e, previous["end_to_end"]) if previous else {}
    prov["loadavg_end"] = os.getloadavg()
    path = write_record(record, args)

    say(f"{args.workload}  seed {args.seed}  trace {args.trace}  {len(rounds)} rounds in {elapsed:.1f} s")
    for name, (value, unit) in named.items():
        say(f"  {name:<20} {value:.6g} {unit}")
    for name in ("work_per_s", "op_ms_p50", "op_ms_tail"):
        say(f"  {name:<20} {e2e[name]:.6g} {units[name]}  (wall {wall[name]:.6g})")
    say(f"  setup_s wall         {wall['setup_s']:.6g} s")
    if workload.cals:
        say(
            f"  calibration {min(workload.cals) * 1e3:.2f}..{max(workload.cals) * 1e3:.2f} ms,"
            f" reference {workload.cal_ref_s * 1e3:g} ms"
        )
    say(f"  op_ms_tail is {tail_note}")
    for failure in tally.failures[:5]:
        say(f"  FAILED {failure['op']}: {failure['problem']}")
    if record["against_previous"]:
        say("  change against the previous recorded run:")
        for name, c in record["against_previous"].items():
            flag = "  WORSE THAN BOUND" if c["worse_than_bound"] else ""
            say(f"    {name:<18} {c['before']:.6g} -> {c['now']:.6g} ({c['change']:+.1%}){flag}")
    if tracer.enabled:
        say("  tracing overhead (traced against the last untraced run):")
        for name, c in record["trace_overhead"].items():
            say(f"    {name:<18} {c if isinstance(c, str) else format(c['change'], '+.1%')}")
        for name, reason in reasons.items():
            say(f"  MISSING {name}: {reason}")
    say(f"  record: {path.relative_to(ROOT)}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result_metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        lib = import_library()
    except (OSError, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.workdir = WORK / f"{args.workload}-{os.getpid()}"
    args.workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    ctx = SimpleNamespace(root=ROOT, seed=args.seed, workdir=args.workdir, tracer=tracer, lib=lib)
    try:
        return measure(args, spec, lib, WORKLOADS[args.workload](ctx), tracer)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer.enabled:
            tracer.restore()
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
