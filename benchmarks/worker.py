"""One fresh benchmark worker process.

Started by ``run.py`` with BLAS threads pinned to 1.  It imports homtrack from
the checkout's ``src``, ``scipy.integrate`` and ``scipy.optimize``, runs one
untimed warm-up solve, and reports its set-up time measured from the moment
the parent spawned it, together with the reference kernel's time right after.
Untraced, it then runs its slice ``--first``/``--count`` of the run's
schedule of solves in a closed loop (one client, sequential solves), timing
the reference kernel between solves and checking every solve.  Traced, it
runs one pass, each solve once untraced and once traced.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import sys
import time
import traceback
import warnings

from check import check_solve
from reference import reference_s
from tracer import Tracer
from workloads import KERNEL, SETUP_KERNEL, problem_of, schedule, solves, warmup

# the UserWarning of SmoothingParams.warn_if_infeasible
ANCHOR_WARNING = re.compile(r"f at the anchor .* is not strictly positive")

_SPAWN_ARGS = argparse.ArgumentParser()
_SPAWN_ARGS.add_argument("--root", required=True)
_SPAWN_ARGS.add_argument("--workload", required=True)
_SPAWN_ARGS.add_argument("--seed", type=int, required=True)
_SPAWN_ARGS.add_argument("--trace", type=int, choices=(0, 1), default=0)
_SPAWN_ARGS.add_argument("--passes", type=int, default=1, help="passes of the whole run")
_SPAWN_ARGS.add_argument("--first", type=int, default=0, help="first schedule entry to run")
_SPAWN_ARGS.add_argument("--count", type=int, default=0, help="schedule entries to run")
_SPAWN_ARGS.add_argument("--spawned-at", type=float, required=True,
                         help="time.monotonic() of the parent just before spawning")
_SPAWN_ARGS.add_argument("--spans", default=None, help="file for the traced spans")


def _import_homtrack(root: str):
    """Import homtrack from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import homtrack

    where = os.path.realpath(os.path.dirname(homtrack.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"homtrack was imported from {where}, not from {src}")
    import scipy.integrate  # noqa: F401
    import scipy.optimize  # noqa: F401
    from homtrack import cli
    return cli


def run_solve(cli, argv, tracer=None, solve_id=0) -> dict:
    """Run one CLI command in-process and check its output.

    Any exception escaping ``cli.main`` is recorded by type and the run goes
    on.  Only the ``cli.main`` call is timed.
    """
    buf = io.StringIO()
    rc = error = None
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(buf):
        warnings.simplefilter("always")
        scope = (tracer.solve(solve_id) if tracer is not None else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with scope:
                rc = cli.main(list(argv))
        except Exception as exc:  # a solve must not end the run
            error = type(exc).__name__
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
    stdout = buf.getvalue()
    why = check_solve(problem_of(argv), rc, error, stdout)
    return {"time_s": elapsed, "ok": not why, "why": why, "error": error,
            "anchor_warnings": sum(issubclass(w.category, UserWarning)
                                   and bool(ANCHOR_WARNING.search(str(w.message)))
                                   for w in caught),
            "stdout": stdout}


def rows_without_time(stdout: str):
    """The JSON report with every row's ``time_s`` removed."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None
    for row in payload.get("rows", []):
        row.pop("time_s", None)
    return payload


def measure(cli, workload: str, seed: int, items) -> dict:
    """Run the (pass, solve) ``items`` untraced.

    The workload's reference kernel runs before the first solve and after
    every solve; each record's ``ref_s`` is the mean of the kernel times on
    either side.
    """
    argvs = solves(workload, seed)
    records = []
    before = reference_s(KERNEL[workload])
    for npass, i in items:
        rec = run_solve(cli, argvs[i])
        after = reference_s(KERNEL[workload])
        records.append({"pass": npass, "solve": i, "time_s": rec["time_s"],
                        "ref_s": 0.5 * (before + after), "ok": rec["ok"], "why": rec["why"]})
        before = after
    return {"solves": records, "argv": argvs}


def measure_traced(cli, workload: str, seed: int, spans_path=None) -> dict:
    """One pass in which every solve runs untraced and then under the tracer.

    The traced report must equal the untraced one apart from ``time_s``.
    """
    argvs = solves(workload, seed)
    tracer = Tracer()
    records = []
    for i, argv in enumerate(argvs):
        rec = run_solve(cli, argv)
        with tracer.installed():
            trec = run_solve(cli, argv, tracer, solve_id=i)
        tracer.counts["ncp.warnings"] += trec["anchor_warnings"]
        why = list(trec["why"])
        report = rows_without_time(trec["stdout"])
        if report != rows_without_time(rec["stdout"]):
            why.append("traced report differs from the untraced one")
        if report is not None:
            tracer.counts["tracking.nc_sum"] += sum(
                row.get("Nc") or 0 for row in report.get("rows", []))
        records.append({"pass": 0, "solve": i, "time_s": rec["time_s"], "ok": rec["ok"],
                        "why": rec["why"], "traced_time_s": trec["time_s"],
                        "traced_ok": not why, "traced_why": why})
    layers = tracer.summary()
    layers["trace.overhead_frac"] = (sum(r["traced_time_s"] for r in records)
                                     / sum(r["time_s"] for r in records) - 1.0)
    if spans_path:
        tracer.write_spans(spans_path)
    return {"solves": records, "argv": argvs, "layers": layers}


def main(argv=None) -> int:
    args = _SPAWN_ARGS.parse_args(argv)
    cli = _import_homtrack(args.root)
    warm = run_solve(cli, warmup(args.workload))
    setup_s = time.monotonic() - args.spawned_at
    if not warm["ok"]:
        print(f"warm-up solve failed: {'; '.join(warm['why'])}", file=sys.stderr)
        return 3
    if args.trace:
        result = measure_traced(cli, args.workload, args.seed, args.spans)
    else:
        result = {"setup_s": setup_s, "setup_ref_s": reference_s(SETUP_KERNEL)}
        items = schedule(args.workload, args.seed, args.passes)
        result.update(measure(cli, args.workload, args.seed,
                              items[args.first:args.first + args.count]))
    import numpy
    import scipy
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
