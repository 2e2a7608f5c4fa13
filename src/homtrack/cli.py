"""Command-line benchmark driver.

Exit codes: 0 when every requested run converged, 2 when any tracker or
polish failed, 1 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from typing import List, Optional

from .bench import (OUTPUT_FORMATS, BenchmarkSpec, emit_merit_samples, emit_table,
                    merit_csv, run_benchmark, run_table, trace_jsonl)
from .problems import HOMOTOPY_KINDS
from .registry import list_problems
from .tracking import ODE_FIELDS, STRATEGIES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _csv_floats(text: str) -> List[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _add_run_flags(p: argparse.ArgumentParser):
    # an unset flag stays None, and BenchmarkSpec.for_problem fills it in
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--sf", type=float, help="arclength budget S_f")
    p.add_argument("--cn", type=int, help="checkpoint count C_n")
    p.add_argument("--anchor", type=_csv_floats, help="comma-separated start point")
    p.add_argument("--beta", type=float, help="initial smoothing level")
    p.add_argument("--out", choices=OUTPUT_FORMATS)
    p.add_argument("--seed", type=int)
    p.add_argument("--ode-field", choices=ODE_FIELDS,
                   help="tangent-field parametrization for the ode strategy")
    p.add_argument("--ball-radius", type=float, help="radius M for the start-ball diagnostic")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="homtrack",
                     description="Homotopy continuation benchmarks for nonlinear "
                                 "systems and complementarity problems")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one homotopy solve")
    solve.add_argument("--problem", required=True,
                       help=f"one of {', '.join(list_problems())}")
    solve.add_argument("--method", choices=HOMOTOPY_KINDS)
    solve.add_argument("--alpha", type=float, help="scale of the SPD shift A = alpha I (nfph)")
    _add_run_flags(solve)
    solve.add_argument("--trace", metavar="FILE",
                       help="write the accepted curve points as JSON lines")

    table = sub.add_parser("table", help="run the standard method matrix for a problem")
    table.add_argument("--problem", required=True)
    _add_run_flags(table)

    merit = sub.add_parser("merit", help="sample the squared-residual merit of a scalar problem")
    merit.add_argument("--problem", required=True)
    merit.add_argument("--lo", type=float, default=-2.0)
    merit.add_argument("--hi", type=float, default=2.0)
    merit.add_argument("--count", type=int, default=4001)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on the first call.  Parsing leaves no
    state in it, so one instance serves every call in a process."""
    return build_parser()


def _overrides(args) -> dict:
    return dict(strategy=args.strategy, sf=args.sf, cn=args.cn,
                anchor=args.anchor, beta=args.beta, out=args.out,
                seed=args.seed, ode_field=args.ode_field,
                ball_radius=args.ball_radius)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "merit":
            rows = emit_merit_samples(args.problem, args.lo, args.hi, args.count)
            sys.stdout.write(merit_csv(rows))
            return EXIT_OK

        if args.command == "solve":
            spec = BenchmarkSpec.for_problem(
                args.problem, method=args.method, alpha=args.alpha, **_overrides(args))
            # opened first, so an unwritable path stops the run before any output
            try:
                fh = open(args.trace, "w") if args.trace else None
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            with fh or contextlib.nullcontext():
                report = run_benchmark(spec)
                sys.stdout.write(emit_table([report], fmt=spec.out, spec=spec))
                if fh is not None:
                    fh.write(trace_jsonl(report.trace, report.target))
            return EXIT_OK if report.converged else EXIT_FAILED

        if args.command == "table":
            ov = _overrides(args)
            reports = run_table(args.problem, **ov)
            spec = BenchmarkSpec.for_problem(args.problem, **ov)
            sys.stdout.write(emit_table(reports, fmt=spec.out, spec=spec))
            return EXIT_OK if all(r.converged for r in reports) else EXIT_FAILED
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
