"""homtrack benchmark: end-to-end and per-layer metrics of ``homtrack solve``.

Usage, from the repository root:

    python3 benchmarks/run.py --workload lcp-ode --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1          # every workload

One operation is one in-process ``homtrack.cli.main(["solve", ..., "--out",
"json"])`` call, run in a closed loop by one client with BLAS threads pinned
to 1.  An untraced run makes a fixed number of passes, set by ``--seconds``
and the workload's nominal pass time, and splits its solves in order over
``WORKERS`` fresh worker processes run one after another; each worker also
gives one set-up time.  Solve and set-up times are also expressed in seconds
at the reference speed (``reference.py``), which is what the gate compares,
because the machine's own speed drifts by up to a factor of two.  The last
line of standard output carries, with ``--trace 0``, the end-to-end metrics
of ``BENCHMARK.json``, and with ``--trace 1`` its per-layer metrics, from one
pass in which every solve runs once untraced and once traced.  A JSON result
file with provenance goes to ``benchmarks/results/``; a traced run also
writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reference import REF_S  # noqa: E402
from workloads import KERNEL, SETUP_KERNEL, WORKLOADS, passes, solves  # noqa: E402

WORKERS = 5
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"pass_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and written to the result file, but not gated.  wall_s and
# setup_wall_s are the measured wall times, which move with the machine's
# speed; fail_frac is zero on a correct run (failures are gated through
# "failed"); solve_s.tail exists only where a run holds enough solves;
# solve_s.p50 falls among the seed-dependent lcp-rand-30 solves on lcp-ode.
EXTRA_UNITS = {"wall_s": "s", "setup_wall_s": "s", "solve_s.p50": "s",
               "solve_s.tail": "s", "fail_frac": "ratio"}

_COUNT = "count"
LAYER_UNITS = {
    "tracking.linalg.calls": _COUNT, "tracking.linalg.s": "s",
    "tracking.linalg.gflop": "GFLOP",
    **{f"tracking.linalg.{k}.calls": _COUNT for k in ("svd", "det", "lstsq", "solve", "qr")},
    "tracking.integrate.calls": _COUNT, "tracking.integrate.self_s": "s",
    "tracking.integrate.nfev": _COUNT, "tracking.integrate.steps": _COUNT,
    "tracking.correct.calls": _COUNT, "tracking.correct.iters": _COUNT,
    "tracking.correct.fails": _COUNT, "tracking.correct.self_s": "s",
    "tracking.scan.calls": _COUNT, "tracking.scan.self_s": "s",
    "tracking.land.calls": _COUNT, "tracking.land.self_s": "s",
    "tracking.land.flagged": _COUNT,
    "tracking.track.calls": _COUNT, "tracking.track.self_s": "s",
    "tracking.points": _COUNT, "tracking.nc_sum": _COUNT,
    "tracking.points_per_jac": "ratio",
    "problems.rho.calls": _COUNT, "problems.rho.self_s": "s",
    "problems.rho_jac.calls": _COUNT, "problems.rho_jac.self_s": "s",
    "problems.F.calls": _COUNT, "problems.jac.calls": _COUNT,
    "ncp.rho.calls": _COUNT, "ncp.rho.self_s": "s",
    "ncp.rho_jac.calls": _COUNT, "ncp.rho_jac.self_s": "s",
    "ncp.Fmu.calls": _COUNT, "ncp.warnings": _COUNT,
    "refine.polish.calls": _COUNT, "refine.polish.iters": _COUNT,
    "refine.polish.s": "s", "refine.polish.unconverged": _COUNT,
    "diagnostics.calls": _COUNT, "diagnostics.samples": _COUNT, "diagnostics.s": "s",
    "registry.get.calls": _COUNT, "registry.get.s": "s",
    "bench.run.self_s": "s", "bench.emit.s": "s", "bench.emit.bytes": "B",
    "cli.solve.calls": _COUNT, "cli.solve.s": "s",
    "trace.overhead_frac": "ratio", "fail_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def _spawn(args, deadline: float, *extra) -> dict:
    """Run one worker to completion and return its JSON result line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), *extra]
    env = dict(os.environ, **BLAS_ENV)
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("a worker did not finish in time")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"a worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("a worker printed no result")
    return json.loads(lines[-1])


def tail(times):
    """(percentile, value) of the highest percentile in 90, 95, 99, 99.9 with
    at least ten solves beyond it, or None."""
    ordered = sorted(times)
    n = len(ordered)
    best = None
    for p in (90.0, 95.0, 99.0, 99.9):
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def end_to_end(result: dict, workload: str) -> dict:
    """pass_ref_s sums, over the solves of a pass, the median of each solve's
    repetitions in seconds at the reference speed of the workload's kernel;
    setup_s is the median worker set-up time at the set-up kernel's speed."""
    ref, setup_ref = REF_S[KERNEL[workload]], REF_S[SETUP_KERNEL]
    by_solve, by_pass = {}, {}
    for s in result["solves"]:
        by_solve.setdefault(s["solve"], []).append(s["time_s"] / s["ref_s"] * ref)
        by_pass[s["pass"]] = by_pass.get(s["pass"], 0.0) + s["time_s"]
    times = [s["time_s"] for s in result["solves"]]
    setups = result["setups"]
    metrics = {
        "pass_ref_s": sum(statistics.median(v) for v in by_solve.values()),
        "setup_s": statistics.median(w["setup_s"] / w["setup_ref_s"] * setup_ref
                                     for w in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "wall_s": statistics.median(by_pass.values()),
        "setup_wall_s": statistics.median(w["setup_s"] for w in setups),
        "solve_s.p50": statistics.median(times),
        "fail_frac": sum(not s["ok"] for s in result["solves"]) / len(times),
    }
    t = tail(times)
    if t is not None:
        metrics["solve_s.tail"] = t[1]
        result["tail"] = {"percentile": t[0], "solves": len(times)}
    return metrics


def per_layer(result: dict) -> dict:
    """Layer totals of the traced pass."""
    layers = result["layers"]
    metrics = {name: layers.get(name, 0.0) for name in LAYER_UNITS}
    jac = layers.get("problems.rho_jac.calls", 0) + layers.get("ncp.rho_jac.calls", 0)
    metrics["tracking.points_per_jac"] = layers.get("tracking.points", 0) / jac if jac else 0.0
    metrics["trace.overhead_frac"] = layers["trace.overhead_frac"]
    attempts = 2 * len(result["solves"])
    metrics["fail_frac"] = _failures(result) / attempts
    return metrics


def _failures(result: dict) -> int:
    return sum((not s["ok"]) + (not s.get("traced_ok", True)) for s in result["solves"])


def provenance(args, result: dict) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"git_commit": commit, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_usable": affinity, "blas_threads": BLAS_ENV,
            "versions": result.get("versions"), "platform": platform.platform(),
            "workers": 1 if args.trace else WORKERS, "ref_s": REF_S,
            "kernel": KERNEL[args.workload], "setup_kernel": SETUP_KERNEL,
            "load": "closed loop, one client, sequential solves"}


def run_workload(args) -> dict:
    """Spawn the workers for one workload and return its report."""
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = None
    if args.trace:
        spans = stem + "-spans.jsonl.gz"
        result = _spawn(args, deadline, "--spans", spans)
        metrics, units = per_layer(result), LAYER_UNITS
    else:
        npass = passes(args.workload, args.seconds)
        total = npass * len(solves(args.workload, args.seed))
        cuts = [round(k * total / WORKERS) for k in range(WORKERS + 1)]
        workers = [_spawn(args, deadline, "--passes", str(npass), "--first", str(cuts[k]),
                          "--count", str(cuts[k + 1] - cuts[k])) for k in range(WORKERS)]
        result = {
            "argv": workers[0]["argv"], "versions": workers[0]["versions"],
            "solves": [s for w in workers for s in w["solves"]],
            "setups": [{k: w[k] for k in ("setup_s", "setup_ref_s")} for w in workers],
            "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        }
        metrics = end_to_end(result, args.workload)
        units = {**END_TO_END_UNITS, **EXTRA_UNITS}
    report = {
        "provenance": provenance(args, result),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": len(result["solves"]) * (2 if args.trace else 1),
        "failed": _failures(result),
        "spans_file": spans and os.path.relpath(spans, ROOT),
        **result,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    report["path"] = stem + ".json"
    return report


def print_report(args, report: dict):
    argvs = report["argv"]
    npass = len({s["pass"] for s in report["solves"]})
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {npass}  solves/pass {len(argvs)}")
    for i, argv in enumerate(argvs):
        runs = [s for s in report["solves"] if s["solve"] == i]
        ok = sum(s["ok"] and s.get("traced_ok", True) for s in runs)
        why = sorted({w for s in runs for w in s["why"] + s.get("traced_why", [])})
        verdict = "PASS" if ok == len(runs) else "FAIL"
        med = statistics.median(s["time_s"] for s in runs)
        flags = " ".join(argv[1:argv.index("--out")])
        print(f"  {i + 1:2d} {verdict} {ok}/{len(runs)}  {med:8.4f} s  {flags}"
              + (f"  ({'; '.join(why)})" if why else ""))
    for name, m in report["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        if "tail" in report:
            t = report["tail"]
            print(f"  solve_s.tail is p{t['percentile']:g} of {t['solves']} solves")
        else:
            print(f"  solve_s.tail omitted: {len(report['solves'])} solves leave fewer "
                  "than ten beyond p90")
    print(f"  result file {os.path.relpath(report['path'], ROOT)}")


def selected(report: dict, trace: int, bench: dict) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with matching units."""
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    out = {}
    for spec in listed:
        m = report["metrics"].get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            raise BenchError(f"metric {spec['name']} ({spec['unit']}) is not measured")
        out[spec["name"]] = m
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "homtrack", "__init__.py")):
        print("error: src/homtrack not found next to the benchmark", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        solves(WORKLOADS[0], args.seed)  # validates the seed
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            wl_args = argparse.Namespace(**{**vars(args), "workload": name})
            report = run_workload(wl_args)
            print_report(wl_args, report)
            metrics = selected(report, args.trace, bench)
            summary["attempted"] += report["attempted"]
            summary["failed"] += report["failed"]
            prefix = f"{name}/" if args.workload == "all" else ""
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
