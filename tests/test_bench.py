import csv
import dataclasses
import io
import json
import re

import numpy as np
import pytest

from homtrack import (BenchmarkSpec, NcpInstance, comp_residual, emit_merit_samples,
                      emit_table, lcp_enumerate, registry_get, run_benchmark,
                      run_table, scaled_residual, to_problem, trace_jsonl)
from homtrack import bench, cli, registry
from homtrack.bench import build_homotopy, merit_csv, method_label
from homtrack.cli import main
from homtrack.registry import registry_defaults, table_methods


class TestRegistry:
    def test_ex1_entry(self):
        p = registry_get("ex1")
        assert p.dim == 1
        assert abs(p.f(np.array([2.0]))[0]) <= 1e-12
        np.testing.assert_array_equal(p.box, [[-100.0, 100.0]])
        assert registry_defaults("ex1")["anchor"] == [0.0]

    def test_ex3_coefficients(self):
        p = registry_get("ex3")
        np.testing.assert_array_equal(
            p.jac(np.zeros(3)),
            [[1.0, 0.5, 0.3], [0.6, 1.0, 0.1], [0.2, 0.4, 1.0]])

    def test_ex4_defaults(self):
        assert registry_defaults("ex4")["anchor"] == [0.2]
        assert registry_defaults("ex4")["alpha"] == 75.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [1e76, -1e77, 1.2e77, 1e80, -1e100, 1.4e152, 1e155,
                                   -1e200, 1e300, np.inf])
    def test_ex4_huge_inputs_keep_their_values_quietly(self, t):
        # the block form runs the same pow calls; beyond |t| = 1.3e154 both
        # give NaN, which the map checks type as a domain error
        p = registry_get("ex4")
        with np.errstate(all="ignore"):
            expected = p.jac_block(np.array([[t]]))[0]
        np.testing.assert_array_equal(p.jac(np.array([t])), expected)
        assert np.isnan(expected[0, 0]) == (abs(t) > 1.4e154)
        if abs(t) > 1.4e154 and np.isfinite(t):  # t * t is inf: the sine's argument is 0
            assert p.f(np.array([t]))[0] == np.arctan(100.0 * t) / np.pi + 0.1 * t

    def test_random_lcp_monotone_and_solvable(self):
        inst = registry_get("lcp-rand-4-7")
        assert isinstance(inst, NcpInstance)
        eigs = np.linalg.eigvalsh(inst.M)
        assert np.all(eigs >= 1.0 - 1e-12)  # B^T B + I
        assert len(lcp_enumerate(inst.M, inst.q)) >= 1

    def test_random_lcp_deterministic(self):
        a = registry_get("lcp-rand-3-5")
        b = registry_get("lcp-rand-3-5")
        np.testing.assert_array_equal(a.M, b.M)
        np.testing.assert_array_equal(a.q, b.q)

    def test_linear_ncp(self):
        inst = registry_get("ncp-lin-3")
        assert inst.dim == 3
        assert inst.M[0, 0] == 4.0

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            registry_get("ex9")
        with pytest.raises(KeyError, match="unknown problem id 'ex9'"):
            table_methods("ex9")

    def test_captions_leave_shared_settings_to_the_spec(self):
        for pid in ("ex1", "ex2", "ex3", "ex4", "lcp-rand-3-1", "ncp-lin-5"):
            assert not {"method", "beta"} & registry_defaults(pid).keys(), pid


class TestRunBenchmark:
    def test_ex1_table_run(self):
        rep = run_benchmark(BenchmarkSpec.for_problem("ex1", sf=2.5, cn=70))
        assert rep.converged
        assert abs(rep.nsol[0] - 2.0) <= 1e-6

    def test_ex3_against_linear_solve(self):
        rep = run_benchmark(BenchmarkSpec.for_problem("ex3"))
        oracle = np.linalg.solve(np.array([[1, .5, .3], [.6, 1, .1], [.2, .4, 1]]),
                                 np.array([5.0, 7.0, 4.0]))
        np.testing.assert_allclose(rep.nsol, oracle, atol=1e-6)

    def test_lcp_matches_enumeration(self):
        rep = run_benchmark(BenchmarkSpec.for_problem("lcp-rand-4-7"))
        inst = registry_get("lcp-rand-4-7")
        assert rep.converged
        assert comp_residual(inst, rep.nsol[:4]) <= 1e-8
        sols = lcp_enumerate(inst.M, inst.q)
        assert any(np.max(np.abs(rep.nsol[:4] - s)) <= 1e-6 for s in sols)

    def test_residuals_recomputed_bitwise(self):
        rep = run_benchmark(BenchmarkSpec.for_problem("ex2"))
        p = registry_get("ex2")
        np.testing.assert_array_equal(rep.fhom, scaled_residual(p, rep.hsol))
        np.testing.assert_array_equal(rep.fnew, scaled_residual(p, rep.nsol))

    def test_determinism_excluding_time(self):
        spec = BenchmarkSpec.for_problem("ex1", seed=3)
        a = run_benchmark(spec)
        b = run_benchmark(spec)
        np.testing.assert_array_equal(a.nsol, b.nsol)
        np.testing.assert_array_equal(a.hsol, b.hsol)
        assert a.n_c == b.n_c
        assert a.status == b.status

    def test_method_agnostic_endpoint(self):
        for pid in ("ex1", "ex2", "ex3"):
            reports = run_table(pid)
            sols = [r.nsol for r in reports if r.converged]
            assert len(sols) == len(reports)
            for s in sols[1:]:
                assert np.max(np.abs(s - sols[0])) <= 1e-6

    def test_ex4_all_methods_find_origin(self):
        # the NH row wanders through negative lambda before returning; the
        # no-clamping design must carry it to the root anyway
        for rep in run_table("ex4"):
            assert rep.converged
            assert abs(rep.nsol[0]) <= 1e-9

    def test_ncp_table_sweeps_shift_scale(self):
        reports = run_table("lcp-rand-3-1")
        labels = [r.method_label for r in reports]
        assert labels == ["NFPH(alpha=0.001)", "NFPH(alpha=1)", "NFPH(alpha=50)"]
        assert labels == [method_label(m, a) for m, a in table_methods("lcp-rand-3-1")]
        assert all(r.converged for r in reports)

    def test_for_problem_rejects_unknown_keywords(self):
        with pytest.raises(TypeError, match="strateg"):
            BenchmarkSpec.for_problem("ex1", strateg="pc")

    def test_build_homotopy_returns_the_context(self):
        hmap = build_homotopy(BenchmarkSpec.for_problem("ex4"))
        assert hmap.problem is registry_get("ex4")
        np.testing.assert_array_equal(hmap.anchor, [0.2])
        # a spec built directly, without the caption, starts at the origin
        np.testing.assert_array_equal(build_homotopy(BenchmarkSpec("ex4")).anchor, [0.0])

    def test_pc_strategy_reports_step_count(self):
        # pc runs in true arclength, so it needs the larger budget of Table 2
        rep = run_benchmark(BenchmarkSpec.for_problem("ex1", strategy="pc", sf=5.0))
        assert rep.converged
        # one point per accepted step: the last is the landing point at lam = 1
        assert rep.n_c == rep.trace.n_c == len(rep.trace.points) - 1 > 0

    def test_ncp_rejects_other_methods(self):
        with pytest.raises(ValueError):
            run_benchmark(BenchmarkSpec.for_problem("ncp-lin-2", method="fph"))


class TestMeritSamples:
    def test_ex4_root_sample_exact_zero(self):
        rows = emit_merit_samples("ex4", -2.0, 2.0, 4001)
        xs = np.array([r[0] for r in rows])
        idx = int(np.argmin(np.abs(xs)))
        assert xs[idx] == 0.0
        assert rows[idx][1] == 0.0

    def test_ex4_local_min_in_narrow_valley(self):
        from scipy.optimize import golden
        rows = emit_merit_samples("ex4", 0.1, 0.4, 2001)
        xs = np.array([r[0] for r in rows])
        th = np.array([r[1] for r in rows])
        x0 = xs[int(np.argmin(th))]
        p = registry_get("ex4")

        def theta(t):
            return 0.5 * p.f(np.array([t]))[0] ** 2

        xm = golden(theta, brack=(x0 - 0.01, x0, x0 + 0.01))
        assert 0.15 <= xm <= 0.35

    def test_ex1_root_sample(self):
        rows = emit_merit_samples("ex1", -1.0, 5.0, 601)
        vals = {r[0]: r[1] for r in rows}
        assert vals[2.0] <= 1e-30

    def test_rejects_vector_problem(self):
        with pytest.raises(ValueError):
            emit_merit_samples("ex2", -1.0, 1.0, 100)

    def test_csv_shape(self):
        text = merit_csv(emit_merit_samples("ex1", 0.0, 1.0, 11))
        lines = text.strip().split("\r\n")
        assert lines[0] == "x,theta"
        assert len(lines) == 12


class TestEmitTable:
    def test_single_row(self):
        rep = run_benchmark(BenchmarkSpec.for_problem("ex1"))
        text = emit_table([rep], fmt="table")
        lines = text.strip().split("\n")
        assert lines[0].split()[:2] == ["method", "N_c"]
        assert len(lines) == 3  # header, rule, one row

    def test_table_replication_ordering(self):
        reports = run_table("ex1", sf=2.5, cn=70)
        assert len(reports) == 4
        by_label = {r.method_label: r.n_c for r in reports}
        assert by_label["NFPH(alpha=50)"] == min(by_label.values())

    def test_json_round_trip(self):
        spec = BenchmarkSpec.for_problem("ex1")
        rep = run_benchmark(spec)
        payload = json.loads(emit_table([rep], fmt="json", spec=spec))
        assert set(payload) == {"spec", "rows", "diagnostics"}
        # every settable run value, and no more
        assert set(payload["spec"]) == {"problem", "method", "alpha", "strategy", "sf", "cn",
                                        "anchor", "beta", "out", "seed", "ode_field",
                                        "ball_radius"}
        row = payload["rows"][0]
        assert row["method"] == rep.method_label
        assert row["Nc"] == rep.n_c
        assert row["hsol"] == [float(v) for v in rep.hsol]
        assert row["nsol"] == [float(v) for v in rep.nsol]
        assert row["fhom"] == [float(v) for v in rep.fhom]
        assert row["fnew"] == [float(v) for v in rep.fnew]
        assert row["time_s"] == rep.time_s
        assert row["status"] == rep.status

    def test_csv_rfc4180(self):
        reports = run_table("ex3")
        text = emit_table(reports, fmt="csv")
        assert "\r\n" in text
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["method", "N_c", "hsol", "nsol", "fhom", "fnew", "time(s)"]
        assert len(rows) == 1 + len(reports)
        hsol = [float(v) for v in rows[1][2].split(";")]
        assert len(hsol) == 3

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            emit_table([], fmt="table")

    def test_method_labels(self):
        assert method_label("nfph", 50.0) == "NFPH(alpha=50)"
        assert method_label("fph", None) == "FPH"
        assert method_label("nh", None) == "NH"


class TestTraceExport:
    def test_jsonl_schema(self):
        rep = run_benchmark(BenchmarkSpec.for_problem("ex1"))
        p = registry_get("ex1")
        lines = trace_jsonl(rep.trace, p).strip().split("\n")
        assert len(lines) == len(rep.trace.points)
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"s", "lambda", "x", "residual"}
            assert isinstance(obj["x"], list)


# (problem, alpha, status) of adjugate-field solves that end in a typed
# failure
_ADJUGATE_FAILURES = [
    # the volume prod |pivot_i| * prod |R_ii| * |lift| leaves the float range:
    # the FOUND line on the adjugate field's overflow in CHANGES.md
    ("lcp-rand-30-401", 50.0, "field_overflow"),
    ("lcp-rand-30-409", 50.0, "field_overflow"),
    ("lcp-rand-30-415", 50.0, "field_overflow"),
    ("lcp-rand-60-404", 1.0, "field_overflow"),
]

# adjugate solves that ended step_underflow while a rejected RK stage could
# flip the field and turn the trace back along the curve
_FORMER_STEP_UNDERFLOWS = ["lcp-rand-30-256", "lcp-rand-30-2904", "lcp-rand-30-3112",
                           "lcp-rand-30-9302"]


class TestCli:
    def test_solve_exit_zero(self, capsys):
        assert main(["solve", "--problem", "ex1"]) == 0
        out = capsys.readouterr().out
        assert "NFPH(alpha=50)" in out

    def test_solve_json_deterministic(self, capsys):
        assert main(["solve", "--problem", "ex1", "--out", "json", "--seed", "1"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["solve", "--problem", "ex1", "--out", "json", "--seed", "1"]) == 0
        second = json.loads(capsys.readouterr().out)
        for row_a, row_b in zip(first["rows"], second["rows"]):
            row_a.pop("time_s")
            row_b.pop("time_s")
            assert row_a == row_b

    # the field's per-call stage bindings and the module caches (dgeqrf's
    # workspace per shape, the unit column per size) carry nothing from one
    # solve to the next: an ex4 row reads the same, byte for byte apart from
    # time_s, before and after a complementarity solve of another size under
    # the other field
    @pytest.mark.filterwarnings("ignore:.*f at the anchor:UserWarning")
    def test_solves_in_one_process_share_no_state(self, capsys):
        ex4 = ["solve", "--problem", "ex4", "--method", "nfph", "--alpha", "0.001",
               "--strategy", "ode", "--ode-field", "adjugate", "--out", "json", "--seed", "1"]
        lcp = ["solve", "--problem", "lcp-rand-8-1", "--strategy", "ode",
               "--ode-field", "arclength", "--out", "json", "--seed", "1"]
        outs = []
        for argv in (ex4, lcp, ex4):
            assert main(argv) == 0
            outs.append(re.sub(r'"time_s": [^,\n]+', '"time_s": null', capsys.readouterr().out))
        assert outs[0].count('"time_s": null') == 1
        assert outs[0] == outs[2]
        assert json.loads(outs[1])["rows"][0]["status"] == "reached_lambda1"

    def test_usage_error_exit_one(self, capsys):
        assert main(["solve", "--problem", "ex1", "--method", "bogus"]) == 1
        assert main(["solve", "--problem", "nope"]) == 1
        assert main(["bogus-command"]) == 1
        # non-finite numbers fail the positivity checks instead of running
        for flags in (["--problem", "ex1", "--sf", "inf"],
                      ["--problem", "ex1", "--strategy", "pc", "--sf", "nan"],
                      ["--problem", "ex1", "--alpha", "nan"],
                      ["--problem", "ex1", "--alpha", "inf"],
                      ["--problem", "lcp-rand-3-1", "--alpha", "nan"],
                      ["--problem", "lcp-rand-3-1", "--beta", "inf"],
                      ["--problem", "lcp-rand-3-1", "--beta", "nan"],
                      # 4 beta^2 is not a float
                      ["--problem", "lcp-rand-3-1", "--beta", "1e300"],
                      ["--problem", "lcp-rand-3-1", "--strategy", "pc", "--beta", "1e160"],
                      ["--problem", "ex1", "--ball-radius", "nan"],
                      ["--problem", "ex1", "--ball-radius", "inf"],
                      ["--problem", "ex1", "--method", "fph", "--ball-radius", "nan"],
                      ["--problem", "ex1", "--ball-radius", "0"]):
            assert main(["solve", *flags]) == 1, flags
            assert "positive and finite" in capsys.readouterr().err, flags
        for flags in (["--problem", "ex1", "--seed", "-1"],
                      ["--problem", "ex1", "--method", "fph", "--seed", "-1"],
                      ["--problem", "lcp-rand-4-1", "--seed", "-3"]):
            assert main(["solve", *flags]) == 1, flags
            assert "seed must be nonnegative" in capsys.readouterr().err, flags

    @pytest.mark.parametrize("command", ["solve", "table"])
    def test_bad_ball_radius_rejected_before_solving(self, capsys, monkeypatch, command):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(bench, "track", no_solve)
        for radius in ("nan", "inf", "0", "-1"):
            assert main([command, "--problem", "ex1", "--ball-radius", radius]) == 1, radius
            assert "ball_radius must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "table"])
    def test_negative_seed_rejected_before_solving(self, capsys, monkeypatch, command):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(bench, "track", no_solve)
        for problem in ("ex1", "lcp-rand-4-1"):
            assert main([command, "--problem", problem, "--seed", "-1"]) == 1, problem
            assert "seed must be nonnegative" in capsys.readouterr().err

    def test_tracker_failure_exit_two(self, capsys):
        assert main(["solve", "--problem", "ex1", "--sf", "0.03"]) == 2
        # the adjugate field's magnitude overflows at 200 stacked dimensions
        assert main(["solve", "--problem", "ncp-lin-100", "--alpha", "50"]) == 2
        # F, or f of the complementarity instance, is not finite at the anchor
        assert main(["solve", "--problem", "ex2", "--anchor", "1e200,1e200"]) == 2
        assert main(["solve", "--problem", "lcp-rand-4-1",
                     "--anchor", "1e308,1e308,1e308,1e308,2,2,2,2"]) == 2

    # typed failures of the adjugate field that the lcp-ode benchmark meets on
    # some seeds; a fix that lets one of these solves converge updates its case
    @pytest.mark.parametrize("problem,alpha,status", [
        pytest.param(problem, alpha, status, id=f"{problem}-{status}")
        for problem, alpha, status in _ADJUGATE_FAILURES])
    def test_adjugate_field_typed_failures(self, capsys, problem, alpha, status):
        assert main(["solve", "--problem", problem, "--alpha", repr(alpha), "--strategy", "ode",
                     "--ode-field", "adjugate", "--out", "json"]) == 2
        row, = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] == status

    # every stage is oriented off the last accepted tangent, so a rejected one
    # leaves nothing behind, and each solve reaches lam = 1
    @pytest.mark.parametrize("problem", _FORMER_STEP_UNDERFLOWS)
    def test_former_step_underflows_reach_lambda1(self, capsys, problem):
        assert main(["solve", "--problem", problem, "--alpha", "50.0", "--strategy", "ode",
                     "--ode-field", "adjugate", "--out", "json"]) == 0
        row, = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] == "reached_lambda1"
        inst = registry_get(problem)
        assert comp_residual(inst, np.array(row["nsol"][:inst.dim])) <= 1e-8

    # a rejected RK45 stage lands near lam = -2e195, where squares in
    # NcpHomotopy.curve_system overflow; the factorization meets the non-finite
    # entry and the row reports it, without a numpy RuntimeWarning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_adjugate_field_overflow_in_curve_system(self, capsys):
        code = main(["solve", "--problem", "lcp-rand-30-7101", "--alpha", "50.0",
                     "--strategy", "ode", "--ode-field", "adjugate", "--out", "json"])
        assert code == 2
        row, = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] == "linalg_failure"

    # the overflow at the anchor is reported as the row's status, not as numpy
    # warnings on stderr
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("problem,anchor", [
        ("ex2", "1e200,1e200"), ("lcp-rand-4-1", "1e308,1e308,1e308,1e308,2,2,2,2")])
    def test_nonfinite_anchor_is_domain_error(self, capsys, problem, anchor):
        assert main(["solve", "--problem", problem, "--anchor", anchor, "--out", "json"]) == 2
        row, = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] == "domain_error"
        assert row["hsol"] is None and row["nsol"] is None
        spec = BenchmarkSpec.for_problem(problem, anchor=[float(v) for v in anchor.split(",")])
        report = run_benchmark(spec)
        assert report.trace.points == [] and not report.converged
        # N_c: no checkpoint interval under ode, no accepted step under pc
        assert report.n_c is None
        assert run_benchmark(dataclasses.replace(spec, strategy="pc")).n_c == 0

    # a shift of 1e300 makes the adjugate start field so large that the RK45
    # initial-step estimate overflows; the solve still lands, and its polish
    # does not converge
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("anchor", [[], ["--anchor", "-1"]])
    def test_huge_adjugate_start_field_exit_two(self, capsys, anchor):
        assert main(["solve", "--problem", "ex4", "--strategy", "ode", "--ode-field", "adjugate",
                     "--alpha", "1e300", *anchor, "--out", "json"]) == 2
        row, = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] == "reached_lambda1"

    # an RK45 stage of the adjugate field overflows lam to -inf; the map's
    # lam check reports it as the row's status, not as a usage error
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", ["1e308", "1.7e308"])
    def test_nonfinite_lambda_stage_is_domain_error(self, capsys, alpha):
        assert main(["solve", "--problem", "ex4", "--strategy", "ode", "--ode-field", "adjugate",
                     "--alpha", alpha, "--out", "json"]) == 2
        row, = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] == "domain_error"

    # ex4's squares overflow past |t| = 1.2e77 and t * t past 1.3e154, where
    # F' turns NaN; the map keeps its values and numpy stays quiet, so the
    # rows report the outcome: 1e80 and 1e100 reach lam = 1 under the default
    # ode/adjugate (pc from 1e80 ends step_underflow) and 1e200 starts outside
    # F's domain
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("anchor,flags,code,status", [
        ("1e80", [], 0, "reached_lambda1"),
        ("1e80", ["--strategy", "pc"], 2, "step_underflow"),
        ("1e100", [], 0, "reached_lambda1"),
        ("1e200", [], 2, "domain_error")])
    def test_huge_ex4_anchor(self, capsys, anchor, flags, code, status):
        assert main(["solve", "--problem", "ex4", "--anchor", anchor, *flags,
                     "--out", "json"]) == code
        row, = json.loads(capsys.readouterr().out)["rows"]
        assert row["status"] == status

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_ex4_anchor_table(self, capsys):
        assert main(["table", "--problem", "ex4", "--anchor", "1e200", "--out", "json"]) == 2
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == len(table_methods("ex4"))
        assert {row["status"] for row in rows} == {"domain_error"}

    def test_context_value_errors_exit_one(self, capsys):
        base = ["solve", "--problem", "lcp-rand-4-1"]
        assert main([*base, "--anchor", "2,2,2"]) == 1
        assert main([*base, "--anchor", "2,2,2,2,2,2"]) == 1
        assert main([*base, "--anchor", "0.5,2,2,2,2,2,2,2"]) == 1
        assert main([*base, "--method", "fph"]) == 1
        assert main(["solve", "--problem", "ex2", "--anchor", "1,2,3"]) == 1

    def test_trace_file(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["solve", "--problem", "ex1", "--trace", str(path)]) == 0
        lines = path.read_text().strip().split("\n")
        assert all("lambda" in json.loads(l) for l in lines)

    def test_trace_file_complementarity(self, tmp_path, capsys):
        # the residuals are measured on the stacked mu = 0 system the solve
        # targets, not on the instance's f
        path = tmp_path / "trace.jsonl"
        assert main(["solve", "--problem", "lcp-rand-4-1", "--trace", str(path)]) == 0
        target = to_problem(registry_get("lcp-rand-4-1"))
        points = [json.loads(l) for l in path.read_text().strip().split("\n")]
        assert len(points) > 1
        for p in points:
            x = np.asarray(p["x"])
            assert x.shape == (8,)
            assert p["residual"] == float(np.max(np.abs(scaled_residual(target, x))))

    def test_unwritable_trace_path_is_a_usage_error(self, tmp_path, capsys):
        # the trace file is opened before the solve, so nothing is printed
        path = tmp_path / "missing" / "t.jsonl"
        assert main(["solve", "--problem", "ex2", "--out", "json", "--trace", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    # the last pair is finite, but its span hi - lo is not, so np.linspace
    # would overflow in its subtraction
    @pytest.mark.parametrize("bound", [["--lo", "inf"], ["--hi", "nan"],
                                       ["--lo=-1e308", "--hi=1e308"]])
    def test_nonfinite_merit_bound_is_a_usage_error(self, capsys, bound):
        assert main(["merit", "--problem", "ex1", *bound]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: merit bounds must be finite") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_merit_reads_inf(self, capsys):
        # ex1's F is about 2x, so theta is about 2e300 at x = 1e150, and
        # F(x)^2 overflows at the two larger samples
        assert main(["merit", "--problem", "ex1", "--lo=1e150", "--hi=1e160",
                     "--count", "3"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = [line.split(",") for line in out.split("\r\n")[1:-1]]
        f = float(registry_get("ex1").f(np.array([1e150]))[0])
        assert [theta for _, theta in rows] == [repr(0.5 * f ** 2), "inf", "inf"]

    def test_table_command(self, capsys):
        assert main(["table", "--problem", "ex1", "--sf", "2.5"]) == 0
        out = capsys.readouterr().out
        assert out.count("NFPH") == 2
        assert "FPH" in out and "NH" in out

    def test_table_json_spec_names_its_format(self, capsys):
        assert main(["table", "--problem", "ex3", "--out", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"] == dataclasses.asdict(BenchmarkSpec.for_problem("ex3", out="json"))
        assert len(payload["rows"]) == len(table_methods("ex3"))

    def test_merit_command(self, capsys):
        assert main(["merit", "--problem", "ex4", "--lo", "-1", "--hi", "1",
                     "--count", "101"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("x,theta")

    def test_ball_radius_diagnostic(self, capsys):
        assert main(["solve", "--problem", "ex1", "--out", "json",
                     "--ball-radius", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {d["name"] for d in payload["diagnostics"]}
        assert "start_point_ball" in names
        assert "assumption1_shifted_jacobian_nonsingular" in names


class TestInstanceBuilds:
    """A family id's instance is built anew by every registry_get call, so
    the calls are counted at both of its bindings."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        get = registry.registry_get

        def counting(problem_id):
            calls.append(problem_id)
            return get(problem_id)

        monkeypatch.setattr(registry, "registry_get", counting)
        monkeypatch.setattr(bench, "registry_get", counting)
        return calls

    def test_caption_builds_nothing(self, builds):
        BenchmarkSpec.for_problem("lcp-rand-4-1")
        assert table_methods("lcp-rand-4-1")
        assert builds == []

    @pytest.mark.parametrize("problem", ["ex2", "lcp-rand-4-1"])
    def test_solve_builds_its_instance_once(self, capsys, builds, problem):
        assert main(["solve", "--problem", problem, "--out", "json"]) == 0
        assert builds == [problem]

    def test_table_builds_once_per_row(self, capsys, builds):
        assert main(["table", "--problem", "lcp-rand-4-1", "--out", "json"]) == 0
        assert builds == ["lcp-rand-4-1"] * 3


def _json_solve(capsys, argv):
    assert main([*argv, "--out", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for row in payload["rows"]:
        row.pop("time_s")
    return payload


class TestCliParserCache:
    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_usage_error_leaves_parser_intact(self, capsys):
        argv = ["solve", "--problem", "ex2", "--alpha", "0.001", "--seed", "3"]
        fresh = _json_solve(capsys, argv)
        cli._parser.cache_clear()
        assert main(["solve", "--problem", "ex2", "--method", "bogus"]) == 1
        assert main(["solve", "--alpha", "2"]) == 1  # --problem missing
        capsys.readouterr()
        assert _json_solve(capsys, argv) == fresh

    def test_consecutive_solves_share_no_parsed_state(self, capsys):
        first = _json_solve(capsys, ["solve", "--problem", "ex1", "--alpha", "0.001",
                                     "--anchor", "0.5", "--seed", "2", "--ball-radius", "1"])
        second = _json_solve(capsys, ["solve", "--problem", "ex4"])
        assert first["spec"]["alpha"] == 0.001 and first["spec"]["anchor"] == [0.5]
        assert second["spec"] == dataclasses.asdict(BenchmarkSpec.for_problem("ex4", out="json"))
        assert [d["name"] for d in second["diagnostics"]] == [
            "assumption1_shifted_jacobian_nonsingular"]

    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        assert main(["merit", "--problem", "ex4", "--count", "11"]) == 0
        assert main(["solve", "--problem", "nope"]) == 1
        assert main(["solve", "--problem", "ex3"]) == 0
        assert len(builds) == 1
        assert build() is not build()  # build_parser itself still builds anew
