"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest benchmarks/tests``.
"""

import gzip
import json
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import check
import run
import worker
import workloads
from tracer import Tracer
from workloads import WORKLOADS, solves

ROOT = run.ROOT

SMALL_SOLVES = [
    ["solve", "--problem", "ex1", "--method", "nfph", "--alpha", "50", "--out", "json"],
    ["solve", "--problem", "ex4", "--method", "nh", "--out", "json", "--seed", "3"],
    ["solve", "--problem", "lcp-rand-5-1", "--ode-field", "adjugate", "--out", "json"],
    ["solve", "--problem", "lcp-rand-5-1", "--ode-field", "arclength", "--out", "json"],
    ["solve", "--problem", "ncp-lin-10", "--strategy", "pc", "--out", "json"],
]


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("argv", SMALL_SOLVES, ids=lambda a: " ".join(a[2:5]))
def test_traced_report_equals_untraced(cli, argv):
    plain = worker.run_solve(cli, argv)
    tracer = Tracer()
    original = np.linalg.svd
    with tracer.installed():
        traced = worker.run_solve(cli, argv, tracer, solve_id=0)
    assert np.linalg.svd is original, "the tracer must restore every binding"
    assert plain["ok"] and traced["ok"], (plain["why"], traced["why"])
    assert worker.rows_without_time(traced["stdout"]) == worker.rows_without_time(plain["stdout"])
    layers = tracer.summary()
    assert layers["cli.solve.calls"] == 1
    assert layers["tracking.track.calls"] == 1
    assert layers["tracking.linalg.calls"] > 0


def test_checker_accepts_real_and_rejects_wrong_reports(cli):
    argv = ["solve", "--problem", "ex2", "--method", "fph", "--out", "json"]
    good = worker.run_solve(cli, argv)
    assert good["ok"], good["why"]
    payload = json.loads(good["stdout"])

    def verdict(problem, mutate=None, rc=0, error=None):
        p = json.loads(json.dumps(payload))
        if mutate:
            mutate(p["rows"][0])
        return check.check_solve(problem, rc, error, json.dumps(p))

    assert verdict("ex2") == []
    assert verdict("ex2", lambda r: r.update(nsol=[0.7390851, 0.6736120]))  # other branch
    assert verdict("ex2", lambda r: r.update(fnew=[1e-9, 0.0]))
    assert verdict("ex2", lambda r: r.update(nsol=None))
    assert verdict("ex1")  # right report, wrong oracle
    assert verdict("ex2", rc=2)
    assert verdict("ex2", error="LinAlgError")
    assert check.check_solve("ex2", 0, None, "not json")

    lcp = worker.run_solve(cli, SMALL_SOLVES[2])
    assert lcp["ok"], lcp["why"]
    row = json.loads(lcp["stdout"])["rows"][0]
    bad = dict(row, nsol=[-1.0] * len(row["nsol"]))
    assert check.check_solve("lcp-rand-5-1", 0, None, json.dumps({"rows": [bad]}))
    assert check.check_solve("lcp-rand-5-1", 0, None, json.dumps({"rows": [row, row]}))


def test_checker_oracles_match_registry():
    from homtrack.registry import EX3_MATRIX, EX3_RHS, registry_get

    np.testing.assert_allclose(check.ROOTS["ex3"], np.linalg.solve(EX3_MATRIX, EX3_RHS))
    for problem in ("lcp-rand-7-3", "ncp-lin-6"):
        M, q = check.lcp_data(problem)
        inst = registry_get(problem)
        assert np.array_equal(M, inst.M) and np.array_equal(q, inst.q)


def test_layer_counts_repeat_exactly(cli):
    first = run.per_layer(worker.measure_traced(cli, "paper-tables", 4))
    second = run.per_layer(worker.measure_traced(cli, "paper-tables", 4))
    counts = [k for k, unit in run.LAYER_UNITS.items() if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["cli.solve.calls"] == 17
    assert first["diagnostics.calls"] == 9
    assert first["diagnostics.samples"] == 9 * 2000
    assert first["fail_frac"] == 0.0


def test_only_anchor_warnings_are_counted(cli):
    from homtrack.ncp import SmoothingParams, lcp_instance

    class FakeCli:
        @staticmethod
        def main(argv):
            warnings.warn("an unrelated warning", UserWarning)
            SmoothingParams.default(lcp_instance(np.eye(2), -10.0 * np.ones(2)))
            return 0

    rec = worker.run_solve(FakeCli, ["solve", "--problem", "lcp-rand-2-0", "--out", "json"])
    assert rec["anchor_warnings"] == 1


def test_reference_speed_cancels_machine_speed():
    def result(scale):
        solves = [{"pass": p, "solve": i, "time_s": scale * (i + 1), "ref_s": scale * 0.001,
                   "ok": True} for p in range(3) for i in range(2)]
        setups = [{"setup_s": scale * 0.8, "setup_ref_s": scale * 0.001}] * 5
        return {"solves": solves, "setups": setups, "peak_rss_mb": 90.0}

    fast = run.end_to_end(result(1.0), "ncp-pc")
    slow = run.end_to_end(result(1.7), "ncp-pc")
    for name in ("pass_ref_s", "setup_s"):
        assert fast[name] == pytest.approx(slow[name])
    assert fast["pass_ref_s"] == pytest.approx(3.0 * run.REF_S["lstsq"] / 0.001)
    assert slow["wall_s"] == pytest.approx(1.7 * fast["wall_s"])


def test_passes_do_not_depend_on_program_speed():
    for w in WORKLOADS:
        assert workloads.passes(w, 0) == workloads.MIN_PASSES
        assert workloads.passes(w, 15) == max(
            workloads.MIN_PASSES, round(15 / workloads.NOMINAL_PASS_S[w]))
    items = workloads.schedule("ncp-pc", 1, 3)
    assert len(items) == 3 * len(solves("ncp-pc", 1)) and len(set(items)) == len(items)


def test_tail_needs_ten_solves_beyond():
    assert run.tail(list(range(9))) is None
    assert run.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert run.tail([float(i) for i in range(1000)])[0] == 99.0


def test_benchmark_json_names_match_code():
    bench = _bench_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    for w in WORKLOADS:
        assert solves(w, 5) == solves(w, 5)
    assert solves("lcp-ode", 5) != solves("lcp-ode", 6)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(trace):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "paper-tables", "--seed", "2",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 17
    listed = _bench_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in last["metrics"].items()}
    for m in listed:
        value = last["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$",
                         proc.stdout, re.M), m["name"]
    assert sum(" PASS " in line for line in lines) == 17
    with open(os.path.join(ROOT, "benchmarks", "results",
                           f"paper-tables-seed2-trace{trace}.json")) as fh:
        report = json.load(fh)
    runs = [(s["pass"], s["solve"]) for s in report["solves"]]
    npass = 1 if trace else workloads.MIN_PASSES
    assert sorted(runs) == sorted(set(runs)) == workloads.schedule("paper-tables", 2, npass)
    if trace:
        path = os.path.join(ROOT, "benchmarks", "results",
                            "paper-tables-seed2-trace1-spans.jsonl.gz")
        with gzip.open(path, "rt") as fh:
            spans = [json.loads(line) for line in fh]
        assert sum(s[0] == "cli.solve" for s in spans) == last["attempted"] // 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "benchmarks"), tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "ncp-pc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
