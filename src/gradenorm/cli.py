"""Command-line front door.

Subcommands: norm, dilate, triangle-sample, prove, check, hunt, report.
Exit codes are stable: 0 success / valid / no violation, 1 invalid
certificate or violation found, 2 usage, parse or out-of-memory errors.
Handlers return 0 or 1 and raise every failure where it is found;
``main`` alone maps an exception to its exit code and its ``error:``
line. With --json stdout is a single JSON document; progress and
diagnostics go to stderr. GRADENORM_THREADS caps worker threads for the
hunt sweep.

Importing this module sets OPENBLAS_NUM_THREADS to 1 unless it is
already set, so a value the caller sets wins. No command calls BLAS,
but numpy's OpenBLAS starts a thread per core when numpy is imported,
and the extra thread costs time: on a 2-vCPU Xeon VM a ``norm`` child
took a median 216 ms without the setting and 154 ms with it (12
alternating runs each).

prove and report write their text or JSON in pieces, a group of the
proof or a chunk of a table at a time (``certificate.report_pieces``,
``expansion.orbit_pieces`` and ``shadow_pieces``), with the bytes that
one ``json.dumps`` or ``print`` would give; so memory stays linear in
the certificate, not in the output. The failures they can foresee come
before the first byte: the check, and the int-to-str digit limit that
C(2r, r) passes from r = 7,146 (``certificate._require_str_digits``),
which exits 2.

Each handler imports what it computes with: ``graded_space`` and
``numeric_search`` for norm, dilate, triangle-sample and hunt,
``certificate`` and ``expansion`` for prove, check and report. This
module itself needs argparse, json, os and sys, and from the exact core
``exactmath`` alone, for ``GradingSignature`` and the
``InvalidCertificateError`` that ``main`` maps to exit 1.

Which commands load numpy: triangle-sample --r and hunt, which draw from
its random generator. norm, dilate and triangle-sample --in run on
Python floats and load neither numpy nor dataclasses, unless a norm's
power sum leaves the normal double range and is rescaled with numpy
(tests/test_cli.py and the CI workflow check this). prove, check,
report and --version import no numpy, dataclasses, inspect or typing,
nor fractions or decimal, which only the functions that build a
``Fraction`` load, and none of these commands calls one
(tests/test_trusted_core.py and the CI workflow check this).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Sequence

from . import __version__
from .exactmath import GradingSignature, InvalidCertificateError

# before any handler imports numpy; a value the caller set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__all__ = ["main", "entrypoint"]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _threads() -> int:
    raw = os.environ.get("GRADENORM_THREADS", "")
    try:
        value = int(raw) if raw else 1
    except ValueError:
        print(f"ignoring malformed GRADENORM_THREADS={raw!r}", file=sys.stderr)
        return 1
    return max(1, min(value, 64))


def _load_json(path: str | None) -> object:
    if path is None:
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(obj: object) -> None:
    print(json.dumps(obj, allow_nan=False))


def _write(*parts: str | Iterable[str]) -> None:
    """Write each string, and each piece of each iterable of strings, to
    stdout as it comes: the output of _emit or print without the object
    or the string they would build."""
    for part in parts:
        sys.stdout.writelines([part] if isinstance(part, str) else part)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradenorm",
        description="homogeneous-norm candidates on graded vector spaces: "
        "norms, proof certificates, counterexample hunts",
    )
    parser.add_argument("--version", action="version", version=f"gradenorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="norm of a graded vector (JSON in)")
    p.add_argument("--in", dest="infile", help="vector JSON file (default stdin)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_norm)

    p = sub.add_parser("dilate", help="apply the dilation of parameter t (JSON in/out)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--in", dest="infile", help="vector JSON file (default stdin)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_dilate)

    p = sub.add_parser("triangle-sample", help="triangle defect of a supplied or sampled pair")
    p.add_argument("--in", dest="infile", help='JSON file {"X": vector, "Y": vector}')
    p.add_argument("--r", type=_positive_int, help="sample a random pair of this length")
    p.add_argument("--dims", help="comma-separated level dimensions (default 3 each)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_triangle_sample)

    p = sub.add_parser("prove", help="build and check a certificate for length r")
    p.add_argument("--r", type=_positive_int, required=True)
    p.add_argument("--out", help="write the certificate JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_prove)

    p = sub.add_parser("check", help="validate a certificate JSON file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("hunt", help="numeric counterexample hunt for length r")
    p.add_argument("--r", type=_positive_int, required=True)
    # None stands for SearchConfig's default, so that building the parser
    # does not load numeric_search
    p.add_argument("--samples", type=_positive_int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_hunt)

    p = sub.add_parser("report", help="render a certificate as grouped comparisons")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_report)

    return parser


def _cmd_norm(args: argparse.Namespace) -> int:
    from .graded_space import hnorm, vector_from_json

    vec = vector_from_json(_load_json(args.infile))
    value = hnorm(vec)  # raises when a level length leaves the double range
    if args.json:
        _emit({"r": vec.signature.r, "hnorm": value})
    else:
        print(value)
    return 0


def _cmd_dilate(args: argparse.Namespace) -> int:
    from .graded_space import dilate, vector_from_json, vector_to_json

    vec = vector_from_json(_load_json(args.infile))
    scaled = dilate(args.t, vec)
    # a component that overflowed raises here and never leaves as JSON Infinity
    _emit(vector_to_json(scaled))
    return 0


def _cmd_triangle_sample(args: argparse.Namespace) -> int:
    from .graded_space import hnorm, random_vector, vector_from_json, vector_to_json

    if args.infile is not None:
        payload = _load_json(args.infile)
        if not isinstance(payload, dict) or "X" not in payload or "Y" not in payload:
            raise ValueError("expected JSON with keys 'X' and 'Y'")
        x = vector_from_json(payload["X"])
        y = vector_from_json(payload["Y"])
    elif args.r is not None:
        import numpy as np

        sig = GradingSignature(args.r)
        dims = None
        if args.dims:
            dims = tuple(int(d) for d in args.dims.split(","))
        rng = np.random.default_rng(args.seed)
        x = random_vector(sig, rng, dims=dims)
        y = random_vector(sig, rng, dims=dims)
    else:
        raise ValueError("provide --in or --r")
    # hnorm raises when a level length, of X + Y too, leaves the double range
    nx, ny, nsum = hnorm(x), hnorm(y), hnorm(x + y)
    # triangle_defect(x, y), without evaluating the three norms again
    result = {
        "X": vector_to_json(x),
        "Y": vector_to_json(y),
        "hnorm_x": nx,
        "hnorm_y": ny,
        "hnorm_sum": nsum,
        "triangle_defect": nsum - nx - ny,
    }
    if args.json:
        _emit(result)
    else:
        print(f"hnorm(X) = {result['hnorm_x']}")
        print(f"hnorm(Y) = {result['hnorm_y']}")
        print(f"hnorm(X+Y) = {result['hnorm_sum']}")
        print(f"triangle defect = {result['triangle_defect']}")
    return 0


def _cmd_prove(args: argparse.Namespace) -> int:
    from .certificate import (
        _require_str_digits,
        certificate_to_json,
        certificate_to_report,
        report_pieces,
        search_certificate,
    )

    _require_str_digits(args.r)
    sig = GradingSignature(args.r)
    cert = search_certificate(sig)
    report = certificate_to_report(sig, cert)  # re-checks before rendering
    cert_json = certificate_to_json(cert) if args.out or args.json else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(cert_json, fh, indent=2)
            fh.write("\n")
    if args.json:
        cert_text = json.dumps(cert_json)
        del cert_json  # its rows are not needed while the report streams
        _write(
            '{"certificate": ', cert_text,
            ', "report": ', report_pieces(report, as_json=True),
            "}\n",
        )
    else:
        _write(report_pieces(report), "\n")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .certificate import certificate_from_json, check_certificate

    cert = certificate_from_json(_load_json(args.file))
    report = check_certificate(GradingSignature(cert.r), cert)
    _emit(report.to_json())
    return 0 if report.valid else 1


def _cmd_hunt(args: argparse.Namespace) -> int:
    from .numeric_search import SearchConfig, hunt

    samples = args.samples or SearchConfig.sample_count
    config = SearchConfig(r=args.r, sample_count=samples, rng_seed=args.seed)
    outcome = hunt(config, threads=_threads())  # raises if no defect is finite
    if args.json:
        _emit(outcome.to_json())
    else:
        state = "VIOLATION" if outcome.violation_found else "no violation"
        print(
            f"{state}: max relative defect {outcome.max_relative_defect:.3e} "
            f"over {outcome.samples_evaluated} evaluations (r={args.r}, seed={args.seed})"
        )
        if outcome.violation_found:
            print(f"argmax a = {outcome.argmax[0].magnitudes.tolist()}")
            print(f"argmax b = {outcome.argmax[1].magnitudes.tolist()}")
    return 1 if outcome.violation_found else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .certificate import (
        _require_str_digits,
        certificate_from_json,
        certificate_to_report,
        report_pieces,
    )
    from .expansion import orbit_pieces, rhs_table, shadow_pieces

    cert = certificate_from_json(_load_json(args.file))
    _require_str_digits(cert.r)
    sig = GradingSignature(cert.r)
    report = certificate_to_report(sig, cert)
    if args.json:
        _write(
            '{"report": ', report_pieces(report, as_json=True),
            ', "lhs_orbits": ', orbit_pieces(sig),
            ', "rhs_orbits": ', json.dumps(rhs_table(sig)),
            ', "shadows": ', shadow_pieces(sig),
            "}\n",
        )
    else:
        _write(report_pieces(report), "\n")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InvalidCertificateError as exc:
        return _fail(str(exc), 1)
    except (OSError, ValueError) as exc:  # ValueError covers json.JSONDecodeError
        return _fail(str(exc))
    except MemoryError as exc:  # not exit 1, which means a violation
        return _fail(str(exc) or "out of memory")


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
