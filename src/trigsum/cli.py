"""Command-line front end.

Three subcommands: ``sum`` evaluates one series by a chosen method (by
default partial sums, or Abel summation on a row they cannot sum),
``verify`` runs a named suite against the closed forms and can write a
machine-readable report, ``table`` sweeps an angle range and prints one
row per angle with a column per method plus the closed form.

Angles are accepted as ``90deg`` or ``1.5708rad``; a bare number means
radians.  Exit codes: 0 success or all cases passed, 1 verification
failures, 2 domain error, 3 divergence, 64 usage, 74 I/O.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from .closed_forms import evaluate_closed
from .exceptions import DivergentSeriesError, DomainError
from .series import SUMMATION_METHODS, SeriesSpec, SummationMethod, evaluate
from .suites import MAX_GRID_ANGLES, SUITE_NAMES, _num, run_suite, write_report

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_DOMAIN = 2
EXIT_DIVERGENT = 3
EXIT_USAGE = 64
EXIT_IO = 74

#: Names accepted by ``sum --method`` and ``table --methods``.
_METHOD_NAMES = tuple(m.value for m in SUMMATION_METHODS)

_ANGLE_RE = re.compile(
    r"\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(deg|rad)?\s*")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def parse_angle(text: str) -> float:
    """Angle in radians from '90deg', '1.5708rad' or a bare radian value."""
    m = _ANGLE_RE.fullmatch(text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"bad angle {text!r}; write e.g. 90deg or 1.5708rad")
    value = float(m.group(1))
    return math.radians(value) if m.group(2) == "deg" else value


def _angle(text: str) -> float:
    # the parser is built once; looking parse_angle up per call keeps a
    # rebound cli.parse_angle (as a tracer installs) the one it uses
    return parse_angle(text)


def _cmd_sum(args) -> int:
    if args.tol is not None and not args.tol >= 0.0:  # NaN too
        raise ValueError(f"tol must be >= 0, got {args.tol}")
    spec = SeriesSpec(args.kind, args.n, args.phi)
    try:
        res = evaluate(spec, args.method or SummationMethod.PARTIAL, terms=args.terms)
    except DivergentSeriesError:
        if args.method:
            raise
        res = evaluate(spec, SummationMethod.ABEL, terms=args.terms)
    print(f"value {_num(res.value)}")
    print(f"method {res.method.value}")
    print(f"terms_used {res.terms_used}")
    print(f"residual_estimate {_num(res.residual_estimate)}")
    print(f"convergence {res.convergence.value}")
    if args.tol is not None:
        closed = evaluate_closed(spec.kind, spec.n, spec.phi)
        if closed.domain_ok:
            err = abs(res.value - closed.value)
            ok = err <= args.tol * (1.0 + abs(closed.value))
            print(f"expected {_num(closed.value)}")
            print(f"abs_error {_num(err)}")
            print(f"within_tolerance {'true' if ok else 'false'}")
        else:
            print("expected undefined (outside the closed-form domain)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.grid_step_deg, args.tol)
    if args.report:
        try:
            write_report(report, args.report)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_IO
    print(f"suite={args.suite} total={report.total} passed={report.passed} "
          f"failed={report.failed} wall_time={report.wall_time:.3f}s")
    return EXIT_OK if report.failed == 0 else EXIT_FAILURES


def _table_cell(method: str, spec: SeriesSpec, terms: int | None) -> float:
    try:
        return evaluate(spec, method, terms=terms).value
    except (DomainError, DivergentSeriesError):
        return math.nan


def _cmd_table(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValueError("empty method list")
    for m in methods:
        if m not in _METHOD_NAMES:
            raise ValueError(f"unknown method {m!r}; choose from {_METHOD_NAMES}")
    if args.step <= 0:
        raise ValueError("step must be positive")
    if args.from_angle >= args.to_angle:
        raise ValueError("empty angle range: need from < to")

    steps = (args.to_angle - args.from_angle) / args.step + 1e-9
    if not steps < MAX_GRID_ANGLES + 1:  # inf too
        raise ValueError(f"the range gives {steps + 1:.6g} rows; a table has at most {MAX_GRID_ANGLES + 1}"
                         f" (a full turn in steps of {360.0 / MAX_GRID_ANGLES} degrees, both ends included)")
    count = int(steps) + 1
    # printed only once every row is computed: a rejected input prints no rows
    lines = ["phi_deg,phi_rad," + ",".join(methods) + ",closed"]
    for i in range(count):
        phi = args.from_angle + i * args.step
        spec = SeriesSpec(args.kind, args.n, phi)
        cells = [_table_cell(m, spec, args.terms) for m in methods]
        cells.append(evaluate_closed(spec.kind, spec.n, phi).value)
        lines.append(",".join([_num(math.degrees(phi)), _num(phi)] + [_num(c) for c in cells]))
    print("\n".join(lines))
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = _Parser(prog="trigsum",
                     description="Binomial multiple-angle series: evaluate, verify, tabulate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("sum", help="evaluate one series")
    p_sum.add_argument("--kind", required=True, choices=["cos", "sin"])
    p_sum.add_argument("--n", required=True, type=float)
    p_sum.add_argument("--phi", required=True, type=_angle)
    p_sum.add_argument("--method", choices=_METHOD_NAMES)
    p_sum.add_argument("--terms", type=int)
    p_sum.add_argument("--tol", type=float)
    p_sum.set_defaults(func=_cmd_sum)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True, choices=list(SUITE_NAMES))
    p_ver.add_argument("--grid-step-deg", type=float)
    p_ver.add_argument("--tol", type=float)
    p_ver.add_argument("--report")
    p_ver.set_defaults(func=_cmd_verify)

    p_tab = sub.add_parser("table", help="tabulate methods over an angle range")
    p_tab.add_argument("--kind", required=True, choices=["cos", "sin"])
    p_tab.add_argument("--n", required=True, type=float)
    p_tab.add_argument("--from", dest="from_angle", required=True, type=_angle)
    p_tab.add_argument("--to", dest="to_angle", required=True, type=_angle)
    p_tab.add_argument("--step", required=True, type=_angle)
    p_tab.add_argument("--methods", required=True)
    p_tab.add_argument("--terms", type=int)
    p_tab.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except DomainError as exc:
        print(f"trigsum: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DivergentSeriesError as exc:
        print(f"trigsum: divergent: {exc}", file=sys.stderr)
        return EXIT_DIVERGENT
    except ValueError as exc:
        print(f"trigsum: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"trigsum: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
