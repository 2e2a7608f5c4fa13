import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import homtrack
from homtrack import (BenchmarkSpec, CorrectorError, DomainError, HomotopyMap, NcpHomotopy,
                      Problem, TrackerConfig, TrackPoint,
                      cross_lambda1, eval_F, hermite_predict, lcp_enumerate,
                      lcp_instance, newton_polish, normal_flow_correct,
                      registry_get, track, tracking)
from homtrack.bench import build_homotopy, tracker_config
from homtrack.tracking import (ODE_ATOL, ODE_FIELDS, ODE_RTOL, PC_PATH_TOL,
                               STATUS_DOMAIN, STATUS_EXHAUSTED, STATUS_LINALG,
                               STATUS_OVERFLOW, STATUS_RANK, STATUS_REACHED,
                               STATUS_UNDERFLOW, RankDeficientError, _chain,
                               _curve_system, _factor, _orient_first,
                               _orient_signed, checkpoint_scan, solve_ivp)

RNG = np.random.default_rng(11)

LINE = Problem(dim=1, f=lambda x: x - 2.0, jac=lambda x: np.eye(1), name="line")


def line_fph():
    return HomotopyMap(kind="fph", problem=LINE, anchor=np.zeros(1))


def nfph(pid, alpha, anchor=None):
    p = registry_get(pid)
    a = np.zeros(p.dim) if anchor is None else np.asarray(anchor, dtype=float)
    return HomotopyMap(kind="nfph", problem=p, anchor=a, alpha=alpha)


class _ToyMap:
    """rho(lam, x) = x - lam; zero curve is the diagonal."""

    dim = 1
    anchor = np.zeros(1)
    problem = Problem(dim=1, f=lambda x: x - 1.0, jac=lambda x: np.eye(1), name="toy")

    def rho(self, lam, x):
        return np.array([x[0] - lam])

    def curve_system(self, lam, x):
        return np.array([[-1.0, 1.0]]), None  # [d/dlam | d/dx], identity lift


class _BlowUp:
    """rho(lam, x) = x^2 (1/2 - lam) - x, whose curve x = 1 / (1/2 - lam)
    from (0, 2) blows up at lam = 1/2.  Its adjugate field is (1, x^2) on the
    curve, so lam = s there.  F = 1 has no root, so the first checkpoint end,
    x = 6 at lam = 1/3, is no candidate."""

    dim = 1
    anchor = np.array([2.0])
    problem = Problem(dim=1, f=lambda x: np.ones(1), name="no-root")

    def rho(self, lam, x):
        return x * x * (0.5 - lam) - x

    def curve_system(self, lam, x):
        return np.array([[-x[0] * x[0], 2.0 * x[0] * (0.5 - lam) - 1.0]]), None


class _Fixed:
    """A context whose curve system is one fixed matrix, lambda column first,
    with the identity lift."""

    def __init__(self, jac):
        self.jac = np.asarray(jac, dtype=float)

    def curve_system(self, lam, x):
        return self.jac, None


def _start_tangent(jac):
    """The trackers' start tangent of the curve system ``jac``."""
    return _orient_first(_curve_system(_Fixed(jac), 0.0, np.zeros(jac.shape[0])).t)


class TestTangent:
    """The unit tangent the trackers read off ``_curve_system``, oriented by
    the start rule ``_orient_first`` or the acute-angle rule ``_chain``."""

    def test_lambda_axis(self):
        t = _start_tangent(np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(t, [1.0, 0.0], atol=1e-15)

    def test_oriented_by_lambda_sign(self):
        t = _start_tangent(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(t, [0.8, -0.6], atol=1e-12)

    def test_acute_angle_rule(self):
        fac = _curve_system(_Fixed([[3.0, 4.0]]), 0.5, np.zeros(1))
        t = _chain(fac.t, np.array([-0.8, 0.6]))
        np.testing.assert_allclose(t, [-0.8, 0.6], atol=1e-12)
        np.testing.assert_allclose(_chain(t, -t), -t, atol=0.0)

    def test_rank_deficiency(self):
        with pytest.raises(RankDeficientError):
            _curve_system(_Fixed([[0.0, 0.0]]), 0.0, np.zeros(1))

    def test_degenerate_start_tiebreak(self):
        # lambda-tangent start: the fixed convention picks the negative branch
        jac = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, -1.0]])
        t = _start_tangent(jac)
        assert abs(t[0]) <= 1e-12
        np.testing.assert_allclose(t[1:], [-1.0, -1.0] / np.sqrt(2.0), atol=1e-12)

    def test_unit_norm(self):
        for _ in range(50):
            jac = RNG.normal(size=(3, 4))
            assert abs(np.linalg.norm(_start_tangent(jac)) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(_factor(jac).t) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_signed_orientation_matches_minors(self, n):
        # oracle: v_i = (-1)^i det(jac without column i), the adjugate direction
        flipped = set()
        for _ in range(20):
            jac = RNG.normal(size=(n, n + 1))
            v = np.array([(-1.0) ** i * np.linalg.det(np.delete(jac, i, axis=1))
                          for i in range(n + 1)])
            fac = _factor(jac)
            oriented = _orient_signed(fac)
            np.testing.assert_allclose(oriented, v / np.linalg.norm(v), atol=1e-10)
            flipped.add(bool(oriented @ fac.t < 0.0))
        # both outcomes of the parity occur
        assert flipped == {False, True}


class TestHermite:
    def test_linear_data_reproduced(self):
        d = np.array([1.0, 2.0]) / np.sqrt(5.0)
        p0 = TrackPoint(s=0.0, lam=0.0, x=np.array([0.0]), tangent=d)
        p1 = TrackPoint(s=1.0, lam=d[0], x=np.array([d[1]]), tangent=d)
        pred = hermite_predict(p0, p1, 0.7)
        np.testing.assert_allclose(pred, 1.7 * d, atol=1e-12)

    def test_zero_step_returns_p1(self):
        p0 = TrackPoint(s=0.0, lam=0.0, x=np.array([0.3]), tangent=np.array([1.0, 0.0]))
        p1 = TrackPoint(s=0.5, lam=0.4, x=np.array([0.9]),
                        tangent=np.array([0.6, 0.8]))
        np.testing.assert_array_equal(hermite_predict(p0, p1, 0.0), p1.coords)

    def test_against_basis_oracle(self):
        # curve c(s) = (s, s^3) sampled with unit tangents; compare to an
        # explicit Hermite-basis evaluation with the same inputs
        t0 = np.array([1.0, 0.0])
        t1 = np.array([1.0, 3.0]) / np.sqrt(10.0)
        p0 = TrackPoint(s=0.0, lam=0.0, x=np.array([0.0]), tangent=t0)
        p1 = TrackPoint(s=1.0, lam=1.0, x=np.array([1.0]), tangent=t1)
        h = 0.5
        tau = 1.0 + h
        basis = (
            (2 * tau**3 - 3 * tau**2 + 1) * p0.coords
            + (tau**3 - 2 * tau**2 + tau) * t0
            + (-2 * tau**3 + 3 * tau**2) * p1.coords
            + (tau**3 - tau**2) * t1
        )
        np.testing.assert_allclose(hermite_predict(p0, p1, h), basis, atol=1e-13)

    def test_rejects_bad_ordering(self):
        p = TrackPoint(s=1.0, lam=0.0, x=np.array([0.0]), tangent=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            hermite_predict(p, p, 0.1)


class TestTrackerConfig:
    @pytest.mark.parametrize("kwargs", [{"strategy": "newton"}, {"ode_field": "secant"},
                                        {"s_max": 0.0}, {"s_max": -1.0},
                                        {"checkpoints": -1},
                                        {"s_max": np.nan}, {"s_max": np.inf}])
    def test_rejects_bad_setting(self, kwargs):
        with pytest.raises(ValueError):
            TrackerConfig(**kwargs)


class TestNormalFlow:
    def test_on_curve_no_move(self):
        cor = normal_flow_correct(line_fph(), np.array([0.5, 1.0]))
        assert cor.iterations <= 1
        np.testing.assert_allclose(cor.w, [0.5, 1.0], atol=1e-12)

    def test_min_norm_step_geometry(self):
        cor = normal_flow_correct(_ToyMap(), np.array([0.5, 0.7]))
        np.testing.assert_allclose(cor.w, [0.6, 0.6], atol=1e-12)

    def test_affine_one_iteration(self):
        cor = normal_flow_correct(line_fph(), np.array([0.4, 0.9]))
        assert cor.iterations <= 2
        assert abs(cor.w[1] - 2.0 * cor.w[0]) <= 1e-12  # back on x = 2 lam

    def test_huge_point_scale_does_not_overflow(self):
        # |w|^2 overflows at |w| = 1e160; the stop test divides by
        # residual_scale(w), which stays finite there, so no numpy warning
        m = HomotopyMap(kind="fph", problem=LINE, anchor=np.array([1e160]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cor = normal_flow_correct(m, np.array([0.5, 1e160]))
        assert cor.iterations == 1
        # the zero curve x = (1 - lam) 1e160 + 2 lam meets x = 1e160 near lam = 0
        assert abs(cor.w[0]) <= 1e-12 and cor.w[1] == 1e160


class TestCorrectionRecord:
    def test_indexes_are_point_and_iterations(self):
        cor = normal_flow_correct(_ToyMap(), np.array([0.5, 0.7]))
        assert cor[0] is cor.w
        assert cor[1] == cor.iterations == 2

    def test_converged_first_step_has_zero_contraction(self):
        cor = normal_flow_correct(line_fph(), np.array([0.5, 1.0]))
        assert cor.iterations == 1
        assert cor.first_step == 0.0 and cor.contraction == 0.0

    def test_first_step_and_contraction_are_the_step_norms(self):
        # ex1 under nfph is nonlinear, so the second step is neither zero nor
        # the last; the record's lengths are those of the first two steps
        m = nfph("ex1", 1.0)
        w0 = np.array([0.3, 0.4])
        cor = normal_flow_correct(m, w0)
        z1 = tracking._min_norm_step(_curve_system(m, w0[0], w0[1:]), -m.rho(w0[0], w0[1:]))
        w1 = w0 + z1
        z2 = tracking._min_norm_step(_curve_system(m, w1[0], w1[1:]), -m.rho(w1[0], w1[1:]))
        assert cor.iterations >= 3
        assert cor.first_step == np.linalg.norm(z1)
        assert cor.contraction == np.linalg.norm(z2) / np.linalg.norm(z1)
        assert 0.0 < cor.contraction < 1.0


class TestPcTrack:
    def test_straight_line(self):
        trace = track(line_fph(), TrackerConfig(strategy="pc", s_max=5.0))
        assert trace.status == STATUS_REACHED
        assert trace.n_c <= 10
        assert abs(trace.hsol[0] - 2.0) <= 1e-8
        assert abs(trace.points[-1].lam - 1.0) <= 1e-9

    def test_affine_closed_form_fidelity(self):
        B = np.array([[3.0, 1.0], [1.0, 2.0]])
        c = np.array([1.0, 2.0])
        p = Problem(dim=2, f=lambda x: B @ x - c, jac=lambda x: B.copy(), name="affine")
        m = HomotopyMap(kind="nfph", problem=p, anchor=np.zeros(2), alpha=2.0)
        cfg = TrackerConfig(strategy="pc", s_max=10.0)
        trace = track(m, cfg)
        assert trace.status == STATUS_REACHED
        for pt in trace.points:
            xc = np.linalg.solve(B + (1 - pt.lam) * 2.0 * np.eye(2), pt.lam * c)
            assert np.max(np.abs(pt.x - xc)) <= PC_PATH_TOL * 10

    def test_ex4_sharp_turn(self):
        m = nfph("ex4", 75.0, anchor=[0.2])
        trace = track(m, TrackerConfig(strategy="pc", s_max=5.0))
        assert trace.status == STATUS_REACHED
        assert abs(trace.hsol[0]) <= 1e-3

    def test_exhausted_arclength(self):
        trace = track(line_fph(), TrackerConfig(strategy="pc", s_max=1.0))
        assert trace.status == STATUS_EXHAUSTED

    @pytest.mark.parametrize("kind", ["fph", "nfph", "nh"])
    def test_prediction_outside_domain_halves_step(self, kind):
        # log is undefined for x <= 0; predictions from a = 2 toward the root
        # e^-3 cross that boundary and must shrink the step, not raise
        log3 = Problem(dim=1, f=lambda x: np.log(x) + 3.0,
                       jac=lambda x: np.diag(1.0 / x), name="log3")
        alpha = 1.0 if kind == "nfph" else None
        m = HomotopyMap(kind=kind, problem=log3, anchor=np.array([2.0]), alpha=alpha)
        with np.errstate(invalid="ignore", divide="ignore"):
            trace = track(m, TrackerConfig(strategy="pc"))
        assert trace.status == STATUS_REACHED
        assert abs(trace.hsol[0] - np.exp(-3.0)) <= 1e-6

    def test_rank_deficient_start(self):
        class Degenerate:
            dim = 1
            anchor = np.zeros(1)
            problem = LINE

            def rho(self, lam, x):
                return np.array([(x[0] - lam) ** 2])

            def curve_system(self, lam, x):
                d = 2.0 * (x[0] - lam)
                return np.array([[-d, d]]), None

        trace = track(Degenerate(), TrackerConfig(strategy="pc"))
        assert trace.status == STATUS_RANK


@st.composite
def _monotone_lcps(draw):
    """(M, q, alpha): a monotone LCP, M = B^T B + I with B of order n <= 8,
    and the shift alpha of the CLI's start map."""
    n = draw(st.integers(1, 8))
    B = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    q = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    return B.T @ B + np.eye(n), q, draw(st.floats(1e-3, 50.0))


def _degenerate(inst, sol, tol=1e-6):
    """Whether some i has both sol_i and f_i(sol) within tol of 0: there the
    lam = 1 system min(x, f(x)) = 0 is not differentiable at the solution."""
    return bool(np.any((sol <= tol) & (eval_F(inst, sol) <= tol)))


class TestPcDrawnLcps:
    # q_i = 0 puts x_i = f_i = 0 at the solution; these degenerate cases,
    # drawn or swept, broke an always unflagged landing, a flagged landing's
    # interpolant within 1e-5 of the solution (n = 7) and a polish that
    # always converges
    @pytest.mark.filterwarnings("ignore:.*f at the anchor:UserWarning")
    @settings(max_examples=60, deadline=None)
    @given(_monotone_lcps())
    @example((np.eye(1), np.array([0.0]), 5.0))
    @example((np.eye(2), np.array([0.0, 0.0]), 0.001))
    @example((np.eye(2), np.array([-1.0, 0.0]), 50.0))
    @example((np.full((7, 7), 1.75) + np.eye(7), np.zeros(7), 0.5))
    @example((np.eye(2), np.array([0.0, 1e-12]), 0.25))
    # the split's second cut fails here; ending the split there left the
    # landing flagged and the polish stuck at x = 0, y = q, no solution
    @example((np.array([[3.0, 2.0], [2.0, 3.0]]), np.array([-2.0**-14, 0.0]), 1.0))
    def test_reaches_the_enumerated_solution(self, case):
        # the step control's longer steps must not leave the curve: every
        # accepted point on it, arclength increasing, and the one solution
        # reached.  Only at a degenerate solution may the landing's Newton
        # fail; the landed point is then the interpolant at lam = 1, and the
        # solve's polish reaches the solution from it
        M, q, alpha = case
        inst = lcp_instance(M, q)
        m = NcpHomotopy(inst, alpha)
        trace = track(m, TrackerConfig(strategy="pc", s_max=50.0))
        assert trace.status == STATUS_REACHED
        s = [p.s for p in trace.points]
        assert all(b > a for a, b in zip(s, s[1:]))
        (sol,) = lcp_enumerate(M, q)
        flagged = trace.endpoint_flagged
        assert not flagged or _degenerate(inst, sol)
        for p in trace.points[:-1] if flagged else trace.points:
            assert tracking._path_residual(m, p.lam, p.x) <= PC_PATH_TOL
        # the solve's nsol: the polish may stop short at a nonsmooth point
        x = newton_polish(m.problem, trace.hsol).x if flagged else trace.hsol
        np.testing.assert_allclose(x[:inst.dim], sol, rtol=0, atol=1e-6)


class TestOdeTrack:
    def test_straight_line_checkpoint_index(self):
        # arclength to the crossing is sqrt(5); interval length 5/71
        cfg = TrackerConfig(strategy="ode", s_max=5.0, checkpoints=70)
        trace = track(line_fph(), cfg)
        assert trace.status == STATUS_REACHED
        assert trace.n_c in (31, 32, 33)
        assert abs(trace.hsol[0] - 2.0) <= 1e-6

    def test_ex1_shifted_field_is_fast(self):
        cfg = TrackerConfig(strategy="ode", s_max=2.5, checkpoints=70,
                            ode_field="adjugate")
        trace = track(nfph("ex1", 50.0), cfg)
        assert trace.status == STATUS_REACHED
        assert trace.n_c <= 5
        assert abs(trace.hsol[0] - 2.0) <= 1e-6

    def test_ex1_fph_slower_than_nfph(self):
        cfg = TrackerConfig(strategy="ode", s_max=2.5, checkpoints=70,
                            ode_field="adjugate")
        fph = track(HomotopyMap(kind="fph", problem=registry_get("ex1"),
                                anchor=np.zeros(1)), cfg)
        nf = track(nfph("ex1", 50.0), cfg)
        assert fph.status == STATUS_REACHED
        assert 18 <= fph.n_c <= 23
        assert nf.n_c < fph.n_c

    def test_every_interval_end_is_scanned(self, monkeypatch):
        # the crossing step's end goes through checkpoint_scan like every
        # corrected interval end, so the scan that ends the trace is N_c-th
        kinds = []

        def scan(endpoint, hmap):
            kinds.append(checkpoint_scan(endpoint, hmap))
            return kinds[-1]

        monkeypatch.setattr(tracking, "checkpoint_scan", scan)
        trace = track(line_fph(), TrackerConfig(strategy="ode", s_max=5.0))
        assert trace.status == STATUS_REACHED
        assert kinds == [None] * (trace.n_c - 1) + ["crossing"]

    def test_exhausted(self):
        cfg = TrackerConfig(strategy="ode", s_max=1.0, checkpoints=10)
        trace = track(line_fph(), cfg)
        assert trace.status == STATUS_EXHAUSTED
        assert trace.n_c is None

    def test_integrator_give_up_ends_step_underflow(self):
        # x' = x^2 along _BlowUp's curve: x blows up at s = lam = 0.5, inside
        # the second of three checkpoint intervals, where solve_ivp gives up
        edges = np.linspace(0.0, 1.0, 4)
        trace = track(_BlowUp(), TrackerConfig(strategy="ode", s_max=1.0, checkpoints=2,
                                               ode_field="adjugate"))
        assert trace.status == STATUS_UNDERFLOW and trace.n_c is None
        start = next(p for p in trace.points if p.s == float(edges[1]))
        assert trace.hsol.tolist() == start.x.tolist()  # the interval's start
        assert trace.points[-1].lam > 0.49  # its accepted steps stay traced

    @pytest.mark.parametrize("exc", [CorrectorError, RankDeficientError, DomainError])
    def test_failed_checkpoint_correction_keeps_the_endpoint(self, exc, monkeypatch):
        integrate, correct = tracking.solve_ivp, tracking.normal_flow_correct
        runs = []  # (start, end) of each interval

        def spy_integrate(fun, span, y0, on_step):
            run = integrate(fun, span, y0, on_step)
            runs.append((y0.copy(), run.y.copy()))
            return run

        def fail_first_checkpoint(hmap, w0, fac=None):
            if fac is not None and len(runs) == 1:
                raise exc("checkpoint correction failed")
            return correct(hmap, w0, fac=fac)

        monkeypatch.setattr(tracking, "solve_ivp", spy_integrate)
        monkeypatch.setattr(tracking, "normal_flow_correct", fail_first_checkpoint)
        trace = track(nfph("ex2", 1.0), TrackerConfig(strategy="ode", s_max=20.0,
                                                      ode_field="adjugate"))
        assert trace.status == STATUS_REACHED
        raw = runs[0][1]
        assert runs[1][0].tobytes() == raw.tobytes()  # the next interval starts there
        assert correct(nfph("ex2", 1.0), raw).w.tobytes() != raw.tobytes()
        end = next(p for p in trace.points if p.s == float(np.linspace(0.0, 20.0, 72)[1]))
        assert [end.lam, *end.x] == raw.tolist()

    @pytest.mark.filterwarnings("ignore:.*f at the anchor:UserWarning")
    def test_memory_does_not_grow_with_field_evaluations(self):
        # only the last field evaluation's factorization is kept: the
        # tracemalloc peak of this solve was 6.3 MB with one kept per
        # evaluation of a checkpoint interval, and is about 1.9 MB without
        spec = BenchmarkSpec.for_problem("lcp-rand-60-1", alpha=1.0, strategy="ode",
                                         ode_field="adjugate")
        hmap = build_homotopy(spec)
        cfg = tracker_config(spec)
        tracemalloc.start()
        try:
            trace = track(hmap, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.status == STATUS_REACHED
        assert peak < 3e6

    def test_ex3_endpoint_near_table(self):
        cfg = TrackerConfig(strategy="ode", s_max=30.0, checkpoints=50,
                            ode_field="adjugate")
        trace = track(nfph("ex3", 50.0), cfg)
        assert trace.status == STATUS_REACHED
        target = np.array([1.6715543, 5.8651026, 1.3196481])
        assert np.max(np.abs(trace.hsol - target)) <= 1e-2


def _field(hmap, adjugate, ref):
    """A fresh copy of the ode tracker's tangent field and of its step hook: every
    call is oriented off ``ref``, the last accepted tangent, and the hook
    moves ``ref`` to each accepted step point's tangent as the ode tracker's
    record does, and returns it."""
    def rhs(s, y):
        fac = _curve_system(hmap, y[0], y[1:])
        t = _chain(fac.t, ref)
        return t * fac.volume if adjugate else t

    def accept(s, y):
        nonlocal ref
        ref = _chain(_curve_system(hmap, y[0], y[1:]).t, ref)
        return ref

    return rhs, accept


def _scipy_rk45(fun, span, y0, on_step):
    """scipy's RK45 solver with the tracker's tolerances, stepped over span
    until it finishes, fails, or ends a step at lam >= 1 that started at
    lam <= 1: (t, y, nfev, success, crossed) in solve_ivp's layout.
    ``on_step`` gets the end of every step that does not end the run, after
    each ``step()``, as solve_ivp hands it over."""
    solver = scipy.integrate.RK45(fun, span[0], y0, span[1], rtol=ODE_RTOL, atol=ODE_ATOL)
    ts, ys, crossed = [solver.t], [solver.y], False
    while solver.status == "running" and not crossed:
        y_old = solver.y
        solver.step()
        if solver.status == "failed":
            break
        ts.append(solver.t)
        ys.append(solver.y)
        crossed = y_old[0] <= 1.0 <= solver.y[0]
        if solver.status == "running" and not crossed:
            on_step(solver.t, solver.y)
    return np.array(ts), np.vstack(ys).T, solver.nfev, solver.status != "failed", crossed


def _assert_same_run(make_field, span, y0):
    """Run solve_ivp and scipy's RK45 on fresh copies of one field, each a
    (fun, on_step) pair, and require the same run."""
    seen = []
    fun, accept = make_field()
    ours = solve_ivp(fun, span, y0, on_step=lambda s, y: (seen.append(y.copy()), accept(s, y)))
    fun, accept = make_field()
    t, y, nfev, success, crossed = _scipy_rk45(fun, span, y0, accept)
    assert np.array_equal(ours.t, t)
    # the start, the inner step points through on_step, and the end where the
    # run stopped: the crossing step's end included; a failed run stops at the
    # last accepted state, which on_step has seen already
    points = [y0, *seen] + ([ours.y] if ours.success else [])
    assert np.array_equal(np.column_stack(points), y)
    assert np.array_equal(ours.y, y[:, -1])
    assert ours.nfev == nfev
    assert ours.success == success
    assert ours.crossed == crossed
    if ours.crossed:
        assert y[0, -2] <= 1.0 <= ours.y[0]
    return ours


def _ode_intervals(spec, monkeypatch):
    """Run the ode tracker as the CLI runs ``spec`` and return its trace and, per
    checkpoint interval, the span, the start point and the field's first
    value there.  That value lies along the tangent recorded at the start
    point, the last accepted one, so it orients a fresh field the same way."""
    intervals = []
    integrate = tracking.solve_ivp

    def spy(fun, span, y0, on_step):
        first = []

        def recording(s, y):
            v = fun(s, y)
            if not first:
                first.append(v.copy())
            return v

        intervals.append((span, y0.copy(), first))
        return integrate(recording, span, y0, on_step=on_step)

    monkeypatch.setattr(tracking, "solve_ivp", spy)
    hmap = build_homotopy(spec)
    trace = tracking.track(hmap, tracker_config(spec))
    monkeypatch.undo()
    return hmap, trace, [(span, y0, first[0]) for span, y0, first in intervals]


# the lcp-rand instances' anchor-feasibility UserWarning is expected here
@pytest.mark.filterwarnings("ignore:.*f at the anchor:UserWarning")
class TestRk45Stepper:
    """solve_ivp steps as scipy's RK45 solver does, bit for bit, on the
    tracker's own fields."""

    def test_tableau_is_scipys(self):
        rk45 = scipy.integrate.RK45
        for ours, theirs in ((tracking._RK_C, rk45.C), (tracking._RK_A, rk45.A),
                             (tracking._RK_B, rk45.B), (tracking._RK_E, rk45.E)):
            assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("pid,alpha,field", [
        ("ex1", 0.001, "adjugate"), ("ex1", 50.0, "adjugate"),
        ("ex2", 0.001, "adjugate"), ("ex2", 50.0, "adjugate"),
        ("ex3", 0.001, "adjugate"), ("ex3", 50.0, "adjugate"),
        ("ex4", 0.001, "adjugate"), ("ex4", 1.0, "adjugate"), ("ex4", 75.0, "adjugate"),
        ("lcp-rand-8-1", 1.0, "adjugate"), ("lcp-rand-8-1", 1.0, "arclength"),
        ("lcp-rand-30-1", 1.0, "adjugate"), ("lcp-rand-30-1", 1.0, "arclength")])
    def test_matches_scipy_on_every_interval(self, pid, alpha, field, monkeypatch):
        spec = BenchmarkSpec.for_problem(pid, method="nfph", alpha=alpha,
                                         strategy="ode", ode_field=field)
        hmap, trace, intervals = _ode_intervals(spec, monkeypatch)
        assert trace.status == STATUS_REACHED
        # the copy is tied to the ode tracker too: the step points its hook accepts
        # in an interval, with the tangents it orients there, are bit for bit
        # the points the ode tracker recorded in that interval, which then records
        # the interval's end (the corrected endpoint, or the landing)
        recorded = iter(trace.points[1:])
        for span, y0, ref in intervals:
            steps = []

            def make_field():
                rhs, accept = _field(hmap, field == "adjugate", ref)
                steps.append([])
                hook = steps[-1]
                return rhs, lambda s, y: hook.append((s, y.copy(), accept(s, y)))

            run = _assert_same_run(make_field, span, y0)
            for s, y, tangent in steps[0]:
                point = next(recorded)
                assert (point.s, point.lam) == (s, y[0])
                assert np.array_equal(point.x, y[1:])
                assert np.array_equal(point.tangent, tangent)
            end = next(recorded)
            if not run.crossed:
                assert end.s == run.t[-1]
        assert next(recorded, None) is None
        # the last interval ends on the step that crosses lam = 1
        assert run.crossed

    def test_matches_scipy_on_step_underflow(self):
        # y_1' = y_1^2 from y_1 = 2 blows up at s = 0.5, so the step size
        # falls below the spacing of the floats there; lam = s stays below 1
        def blow_up(s, y):
            return np.array([1.0, y[1] * y[1]])

        run = _assert_same_run(lambda: (blow_up, lambda s, y: None), (0.0, 1.0),
                               np.array([0.0, 2.0]))
        assert not run.success and not run.crossed
        assert 0.5 < run.t[-1] < 0.5 + 1e-6

    def test_on_step_sees_every_inner_step_point(self, monkeypatch):
        # the first interval ends at its bound, the last at the crossing step;
        # on_step sees every step time between the start and the run's end, in
        # order, and the run's end only comes back in the OdeRun
        spec = BenchmarkSpec.for_problem("ex3", method="nfph", alpha=0.001,
                                         strategy="ode", ode_field="adjugate")
        hmap, _, intervals = _ode_intervals(spec, monkeypatch)
        crossed = []
        for span, y0, ref in (intervals[0], intervals[-1]):
            seen = []
            fun, accept = _field(hmap, True, ref)
            run = solve_ivp(fun, span, y0,
                            on_step=lambda t, y: (seen.append((t, y.copy())), accept(t, y)))
            assert run.success and len(run.t) >= 4
            assert [t for t, _ in seen] == run.t[1:-1].tolist()
            assert not np.array_equal(seen[-1][1], run.y)
            crossed.append(run.crossed)
        assert crossed == [False, True]

    def test_long_run_keeps_no_state_history(self):
        # 32 fast oscillators take about 2200 accepted steps over [0, 1], and
        # lam stays at 0: a run that stacked its step points would peak near
        # 3 MB; the stepper keeps the step times and one state, about 0.1 MB
        def oscillators(s, y):
            out = np.empty_like(y)
            out[0] = 0.0
            out[1::2] = 450.0 * y[2::2]
            out[2::2] = -450.0 * y[1::2]
            return out

        y0 = np.zeros(65)
        y0[1::2] = 1.0
        tracemalloc.start()
        try:
            run = solve_ivp(oscillators, (0.0, 1.0), y0, on_step=lambda s, y: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e5
        assert run.success and not run.crossed and len(run.t) > 2000
        assert run.y.shape == y0.shape

    @pytest.mark.parametrize("lam0", [0.5, 1.0])
    def test_zero_length_span(self, lam0):
        y0 = np.array([lam0, 2.0])
        _assert_same_run(lambda: (lambda s, y: np.array([1.0, -y[1]]), lambda s, y: None),
                         (0.5, 0.5), y0)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            solve_ivp(lambda s, y: y, (0.0, 1.0), np.array([0.0, np.nan]), lambda s, y: None)

    def test_ode_track_runs_without_scipy_integrate(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.integrate was called")

        monkeypatch.setattr(scipy.integrate, "solve_ivp", forbidden)
        monkeypatch.setattr(scipy.integrate, "RK45", forbidden)
        trace = track(nfph("ex3", 50.0), TrackerConfig(strategy="ode", s_max=30.0,
                                                       ode_field="adjugate"))
        assert trace.status == STATUS_REACHED


class TestCheckpointScan:
    @pytest.mark.parametrize("lam", [1.0, 1.02])
    def test_corrected_endpoint_crossing(self, lam):
        endpoint = np.array([lam, 2.0 * lam])
        assert checkpoint_scan(endpoint, line_fph()) == "crossing"

    def test_no_candidate(self):
        assert checkpoint_scan(np.array([0.3, 0.1]), line_fph()) is None

    def test_residual_branch(self):
        endpoint = np.array([0.999, 2.0])  # residual of the target is 0 at x = 2
        assert checkpoint_scan(endpoint, line_fph()) == "residual"

    def test_huge_endpoint_is_no_candidate(self):
        # |x|^2 overflows at x = 1e160; the scale falls back to max|x| times
        # the norm of x / max|x|, so the scaled residual is about 1, not 0
        endpoint = np.array([0.5, 1e160])
        assert checkpoint_scan(endpoint, line_fph()) is None
        assert tracking._path_residual(line_fph(), 0.5, endpoint[1:]) == pytest.approx(1.0)


class TestCrossLambda1:
    def test_exact_point(self):
        before = TrackPoint(s=0.0, lam=0.9, x=np.array([1.8]),
                            tangent=np.array([1.0, 0.0]))
        after = TrackPoint(s=0.3, lam=1.0, x=np.array([2.0]),
                           tangent=np.array([1.0, 0.0]))
        hsol, flagged = cross_lambda1(before, after, line_fph())
        assert not flagged
        assert abs(hsol[0] - 2.0) <= 1e-12

    def test_linear_interpolation(self):
        before = TrackPoint(s=0.0, lam=0.9, x=np.array([1.8]),
                            tangent=np.array([1.0, 0.0]))
        after = TrackPoint(s=0.5, lam=1.1, x=np.array([2.2]),
                           tangent=np.array([1.0, 0.0]))
        hsol, flagged = cross_lambda1(before, after, line_fph())
        assert not flagged
        assert abs(hsol[0] - 2.0) <= 1e-10

    def test_huge_bracket_does_not_overflow(self):
        # |hi - lo|^2 overflows on this bracket of the curve x = (1 - lam)
        # 1e160 + 2 lam; the chord and Newton stop tests take the norm without
        # squaring it, as normal_flow_correct's test_huge_point_scale_does_not_overflow
        m = HomotopyMap(kind="fph", problem=LINE, anchor=np.array([1e160]))
        before = TrackPoint(s=0.0, lam=0.5, x=np.array([0.5e160]), tangent=np.array([1.0, 0.0]))
        after = TrackPoint(s=1.0, lam=1.5, x=np.array([-0.5e160]), tangent=np.array([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            hsol, flagged = cross_lambda1(before, after, m)
        assert not flagged
        assert hsol.tolist() == [2.0]

    def test_requires_bracket(self):
        p = TrackPoint(s=0.0, lam=0.5, x=np.array([1.0]), tangent=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            cross_lambda1(p, p, line_fph())
        # neither tracker hands over a bracket that starts at lam = 1
        on = TrackPoint(s=0.0, lam=1.0, x=np.array([2.0]), tangent=np.array([1.0, 0.0]))
        past = TrackPoint(s=0.1, lam=1.1, x=np.array([2.2]), tangent=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            cross_lambda1(on, past, line_fph())

    def test_bisection_on_curved_path(self):
        # zero curve x = g(lam) = 2 + 3d - 5d^2 (d = lam - 1); the bracket's
        # upper end sits at lam = 1.5, and the chord alone would give x = 0.75,
        # from which Newton on F = (x - 2)(1 + x^2) fails within the iteration
        # cap.  Bisecting along the curve first lands on the root x = 2.
        class Bent:
            dim = 1
            anchor = np.zeros(1)
            problem = Problem(dim=1, f=lambda x: (x - 2.0) * (1.0 + x * x),
                              jac=lambda x: np.array([[3.0 * x[0] ** 2 - 4.0 * x[0] + 1.0]]),
                              name="bent")

            @staticmethod
            def g(lam):
                return 2.0 + 3.0 * (lam - 1.0) - 5.0 * (lam - 1.0) ** 2

            def rho(self, lam, x):
                return np.array([(x[0] - self.g(lam)) * (1.0 + x[0] ** 2)])

            def curve_system(self, lam, x):
                u, v = x[0] - self.g(lam), 1.0 + x[0] ** 2
                return np.array([[-(3.0 - 10.0 * (lam - 1.0)) * v, v + 2.0 * x[0] * u]]), None

        def on_curve(lam):
            return TrackPoint(s=0.0, lam=lam, x=np.array([Bent.g(lam)]),
                              tangent=np.array([1.0, 0.0]))

        hsol, flagged = cross_lambda1(on_curve(0.5), on_curve(1.5), Bent())
        assert not flagged
        assert abs(hsol[0] - 2.0) <= 1e-10

    def test_illinois_split_does_not_stall(self, monkeypatch):
        # homtrack solve --problem ncp-lin-100 --alpha 50 --strategy pc: the
        # curve bends toward lam = 1 from below, so plain regula falsi kept its
        # upper end and cut 11 times, each shrinking lam - 1 about 3.3-fold.
        # The Illinois rule halves the retained end's lam - 1 in the cut once
        # the same end is replaced twice in a row
        brackets, splits = [], []
        correct, land = tracking.normal_flow_correct, tracking.cross_lambda1

        def spy_correct(hmap, w0, fac=None):
            cor = correct(hmap, w0, fac)
            if brackets:  # pc corrects nothing once it lands
                splits.append((w0, cor.w))
            return cor

        def spy_land(before, after, hmap):
            brackets.append((before.coords, after.coords))
            return land(before, after, hmap)

        monkeypatch.setattr(tracking, "normal_flow_correct", spy_correct)
        monkeypatch.setattr(tracking, "cross_lambda1", spy_land)
        spec = BenchmarkSpec.for_problem("ncp-lin-100", alpha=50.0, strategy="pc")
        hmap = build_homotopy(spec)
        trace = track(hmap, tracker_config(spec))
        assert trace.status == STATUS_REACHED and not trace.endpoint_flagged
        (lo, hi), = brackets
        assert 1 <= len(splits) <= 6
        tol = tracking.CORRECTOR_TOL
        for cut, mid in splits:
            # each cut lies on the chord strictly inside the bracket, and its
            # corrected point replaces one end, keeping the bracket
            assert lo[0] < cut[0] < hi[0]
            if mid[0] >= 1.0 - tol:
                hi = mid
            else:
                lo = mid
            assert lo[0] < 1.0 - tol <= hi[0]
        assert hi[0] - 1.0 <= tol

    @pytest.mark.filterwarnings("ignore:.*f at the anchor:UserWarning")
    def test_split_continues_past_a_failed_cut(self, monkeypatch):
        # homtrack solve --problem lcp-rand-30-3 --alpha 1 --strategy pc: the
        # bracket spans lam 0.853 -> 1.017 with |dx| 3.9, and the correction
        # of its first cut fails.  A failed cut used to end the split there;
        # halving the next cut's step keeps it going until a corrected point
        # lies within CORRECTOR_TOL of lam = 1
        landing, failed, corrected = [], [], []
        correct, land = tracking.normal_flow_correct, tracking.cross_lambda1

        def spy_correct(hmap, w0, fac=None):
            try:
                cor = correct(hmap, w0, fac)
            except tracking.CorrectorError:
                if landing:
                    failed.append(w0)
                raise
            if landing:
                corrected.append(cor.w)
            return cor

        def spy_land(before, after, hmap):
            landing.append(True)
            return land(before, after, hmap)

        monkeypatch.setattr(tracking, "normal_flow_correct", spy_correct)
        monkeypatch.setattr(tracking, "cross_lambda1", spy_land)
        spec = BenchmarkSpec.for_problem("lcp-rand-30-3", alpha=1.0, strategy="pc")
        trace = track(build_homotopy(spec), tracker_config(spec))
        assert trace.status == STATUS_REACHED and not trace.endpoint_flagged
        assert failed
        assert min(abs(w[0] - 1.0) for w in corrected) <= tracking.CORRECTOR_TOL


# the 17 ex1..ex4 table rows: (problem, method, alpha or None for the
# caption default)
_PAPER_ROWS = [(pid, method, alpha)
               for pid, alphas in (("ex1", (0.001, 50.0)), ("ex2", (0.001, 50.0)),
                                   ("ex3", (0.001, 50.0)), ("ex4", (0.001, 1.0, 75.0)))
               for method, alpha in [("nfph", a) for a in alphas] + [("fph", None), ("nh", None)]]


class TestLambda1Crossing:
    """The ode tracker's crossing step ends past lam = 1, and cross_lambda1
    alone places the crossing inside it."""

    @pytest.mark.filterwarnings("ignore:.*f at the anchor:UserWarning")
    @pytest.mark.parametrize("pid,method,alpha,field", [
        *[(pid, method, alpha, "adjugate") for pid, method, alpha in _PAPER_ROWS],
        ("lcp-rand-30-1", "nfph", 1.0, "adjugate"), ("lcp-rand-30-1", "nfph", 1.0, "arclength")])
    def test_crossing_step_lands_unflagged(self, pid, method, alpha, field, monkeypatch):
        runs, landings = [], []
        integrate, land = tracking.solve_ivp, tracking.cross_lambda1

        def spy_integrate(*args, **kwargs):
            runs.append(integrate(*args, **kwargs))
            return runs[-1]

        def spy_land(*args):
            landings.append(land(*args))
            return landings[-1]

        monkeypatch.setattr(tracking, "solve_ivp", spy_integrate)
        monkeypatch.setattr(tracking, "cross_lambda1", spy_land)
        spec = BenchmarkSpec.for_problem(pid, method=method, alpha=alpha, strategy="ode",
                                         ode_field=field)
        hmap = build_homotopy(spec)
        trace = tracking.track(hmap, tracker_config(spec))
        assert trace.status == STATUS_REACHED
        crossed = [run for run in runs if run.crossed]
        assert len(crossed) == 1 and runs[-1].crossed
        assert crossed[0].y[0] >= 1.0
        assert len(landings) == 1 and landings[0][1] is False
        assert not trace.endpoint_flagged

    def test_no_solve_imports_scipy_optimize_or_integrate(self):
        script = (
            "import contextlib, io, sys\n"
            "from homtrack.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['solve', '--problem', 'ex1', '--strategy', 'ode']),\n"
            "             main(['solve', '--problem', 'lcp-rand-8-1', '--strategy', 'ode',\n"
            "                   '--ode-field', 'adjugate'])]\n"
            "print(codes, [m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])\n")
        src = str(Path(homtrack.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[0, 0] []"


class _Failing:
    """The line map of ``line_fph`` whose Jacobian raises ``exc`` once
    lam > 0.3."""

    dim = 1
    anchor = np.zeros(1)
    problem = LINE

    def __init__(self, exc):
        self.inner = line_fph()
        self.exc = exc

    def rho(self, lam, x):
        return self.inner.rho(lam, x)

    def curve_system(self, lam, x):
        if lam > 0.3:
            raise self.exc
        return self.inner.curve_system(lam, x)


class TestTypedFailures:
    @pytest.mark.parametrize("strategy,exc,status", [
        ("ode", DomainError("F undefined"), STATUS_DOMAIN),
        # pc treats a domain error in the corrector as a failed step
        ("pc", DomainError("F undefined"), STATUS_UNDERFLOW),
        ("ode", np.linalg.LinAlgError("SVD did not converge"), STATUS_LINALG),
        ("pc", np.linalg.LinAlgError("SVD did not converge"), STATUS_LINALG),
        ("ode", RankDeficientError("lost rank"), STATUS_RANK),
        ("pc", RankDeficientError("lost rank"), STATUS_RANK)])
    def test_failure_ends_trace_with_status(self, strategy, exc, status):
        cfg = TrackerConfig(strategy=strategy)
        trace = track(_Failing(exc), cfg)
        assert trace.status == status
        assert not trace.success
        # the estimate is the last point the tracker trusted
        assert any(np.array_equal(trace.hsol, p.x) for p in trace.points)

    def test_adjugate_field_overflow(self):
        # singular values 1e200 each: their product is not a float
        p = Problem(dim=2, f=lambda x: 1e200 * (x - 1.0),
                    jac=lambda x: 1e200 * np.eye(2), name="huge")
        m = HomotopyMap(kind="nh", problem=p, anchor=np.zeros(2))
        trace = track(m, TrackerConfig(strategy="ode", ode_field="adjugate"))
        assert trace.status == STATUS_OVERFLOW
        np.testing.assert_array_equal(trace.hsol, m.anchor)


def _nan_beyond_one(x):
    return np.array([[1.0 if x[0] < 1.0 else np.nan]])


def _beyond_one(fn, value):
    """``fn`` for x[0] < 1, and ``value`` in every entry of its shape from
    x[0] = 1 on."""
    def f(x):
        out = fn(x)
        return out if x[0] < 1.0 else np.full_like(out, value)

    return f


_KINDS = [("nfph", 1.0), ("fph", None), ("nh", None)]
_TRACKERS = [pytest.param(("ode", field), id=f"ode-{field}") for field in ODE_FIELDS] + [
    pytest.param(("pc", "arclength"), id="pc")]


def _run_quietly(m, tracker):
    """Trace ``m`` with the (strategy, ode field) ``tracker``, with numpy
    RuntimeWarnings raised as errors."""
    strategy, field = tracker
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return tracking.track(m, TrackerConfig(strategy=strategy, ode_field=field))


# a scale at which the shifted curve Jacobian of _steep overflows while the
# problem's own Jacobian is still finite
_STEEP_SCALE = 1e307


def _steep(seen):
    """F(x) = S (1000 x^3 - 1), S = _STEEP_SCALE, with every Jacobian it
    returns appended to ``seen``."""
    def jac(x):
        seen.append(np.array([[_STEEP_SCALE * (3000.0 * x[0] ** 2)]]))
        return seen[-1]

    return Problem(dim=1, f=lambda x: _STEEP_SCALE * (1000.0 * x ** 3 - 1.0), jac=jac,
                   name="steep")


class TestNonFiniteJacobianOnRealMaps:
    """Non-finite values met on HomotopyMap itself.  A curve point makes one
    finiteness check, ``_factor``'s scan of the curve Jacobian, which holds
    F' (and, for fph, F); when it fails, ``check_domain`` re-runs the checked
    ``jacobian`` (and ``eval_F``) there, so a non-finite F or F' ends
    domain_error and an overflowed shift linalg_failure."""

    @pytest.mark.parametrize("field", ODE_FIELDS)
    @pytest.mark.parametrize("kind,alpha", _KINDS)
    def test_nan_jacobian_ends_domain_error(self, kind, alpha, field):
        # F(x) = x - 2 is finite everywhere; its Jacobian is NaN from x = 1 on,
        # which the curve from x = 0 reaches on its way to the root x = 2
        problem = Problem(dim=1, f=lambda x: x - 2.0, jac=_nan_beyond_one, name="nan-beyond-1")
        m = HomotopyMap(kind=kind, problem=problem, anchor=np.zeros(1), alpha=alpha)
        trace = track(m, TrackerConfig(strategy="ode", ode_field=field))
        assert trace.status == STATUS_DOMAIN
        assert len(trace.points) > 1 and all(p.x[0] < 1.0 for p in trace.points)
        assert any(np.array_equal(trace.hsol, p.x) for p in trace.points)

    @pytest.mark.parametrize("tracker", _TRACKERS)
    @pytest.mark.parametrize("kind,alpha", _KINDS)
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_jacobian_mid_path(self, value, kind, alpha, tracker):
        # as the NaN test above, with an infinite F' from x = 1 on; pc's
        # corrector treats the domain error as a failed step
        problem = Problem(dim=1, f=lambda x: x - 2.0, jac=_beyond_one(lambda x: np.eye(1), value),
                          name="inf-beyond-1")
        m = HomotopyMap(kind=kind, problem=problem, anchor=np.zeros(1), alpha=alpha)
        trace = _run_quietly(m, tracker)
        assert trace.status == (STATUS_UNDERFLOW if tracker[0] == "pc" else STATUS_DOMAIN)
        assert len(trace.points) > 1 and all(p.x[0] < 1.0 for p in trace.points)
        assert any(np.array_equal(trace.hsol, p.x) for p in trace.points)

    @pytest.mark.parametrize("tracker", _TRACKERS)
    @pytest.mark.parametrize("kind,alpha", _KINDS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_jacobian_at_start(self, value, kind, alpha, tracker):
        # F' is not finite anywhere, the anchor included; fph's start point
        # multiplies it by lam = 0
        problem = Problem(dim=1, f=lambda x: x - 2.0, jac=lambda x: np.array([[value]]),
                          name="nonfinite-jacobian")
        m = HomotopyMap(kind=kind, problem=problem, anchor=np.zeros(1), alpha=alpha)
        trace = _run_quietly(m, tracker)
        assert trace.status == STATUS_DOMAIN and trace.points == []

    @pytest.mark.parametrize("tracker", _TRACKERS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_F_in_fph_lambda_column(self, value, tracker):
        # F is x - 2 below x = 1 and not finite from there on, F' is finite
        # everywhere: only fph's lambda column F(x) - (x - a) carries F
        problem = Problem(dim=1, f=_beyond_one(lambda x: x - 2.0, value),
                          jac=lambda x: np.eye(1), name="nonfinite-F-beyond-1")
        m = HomotopyMap(kind="fph", problem=problem, anchor=np.zeros(1))
        trace = _run_quietly(m, tracker)
        assert trace.status == (STATUS_UNDERFLOW if tracker[0] == "pc" else STATUS_DOMAIN)
        assert len(trace.points) > 1 and all(p.x[0] < 1.0 for p in trace.points)

    @pytest.mark.parametrize("kind,alpha", _KINDS)
    def test_one_finiteness_scan_per_curve_point(self, kind, alpha, monkeypatch):
        # the curve Jacobian holds F' (and, for fph, F), so the scan of the
        # factorization is the only one a point that evaluates cleanly pays
        calls = []
        problem = Problem(dim=2, f=lambda x: x * x - 2.0,
                          jac=lambda x: calls.append(1) or np.diag(2.0 * x), name="squares")
        m = HomotopyMap(kind=kind, problem=problem, anchor=np.ones(2), alpha=alpha)
        scans = []
        for module in (homtrack.problems, tracking):
            real = module.all_finite
            monkeypatch.setattr(module, "all_finite",
                                lambda values, real=real: scans.append(1) or real(values))
        _curve_system(m, 0.5, np.array([1.2, 1.3]))
        assert len(calls) == 1
        assert len(scans) == 1

    def test_overflowing_shifted_jacobian_ends_linalg_failure(self):
        # the nfph shift 10 S (1 - lam) on the diagonal of S 3000 x^2 passes
        # the largest float before F' itself does: every F' the tracker asks
        # for is finite, the curve Jacobian is not
        seen = []
        m = HomotopyMap(kind="nfph", problem=_steep(seen), anchor=np.zeros(1),
                        alpha=10.0 * _STEEP_SCALE)
        trace = track(m, TrackerConfig(strategy="ode", ode_field="arclength"))
        assert trace.status == STATUS_LINALG
        assert len(trace.points) > 1 and trace.points[-1].lam > 0.0
        assert seen and all(np.isfinite(jac).all() for jac in seen)
        assert any(np.array_equal(trace.hsol, p.x) for p in trace.points)


class TestTraceInvariants:
    @pytest.mark.parametrize("strategy", ["ode", "pc"])
    @pytest.mark.parametrize("pid,alpha,sf", [("ex1", 50.0, 5.0),
                                              ("ex2", 50.0, 20.0),
                                              ("ex3", 50.0, 30.0)])
    def test_invariants_on_benchmark_runs(self, strategy, pid, alpha, sf):
        m = nfph(pid, alpha)
        cfg = TrackerConfig(strategy=strategy, s_max=sf, checkpoints=70)
        trace = track(m, cfg)
        assert trace.status == STATUS_REACHED
        pts = trace.points
        assert pts[0].lam == 0.0
        np.testing.assert_array_equal(pts[0].x, m.anchor)
        svals = [p.s for p in pts]
        assert all(b > a for a, b in zip(svals, svals[1:]))
        for p in pts:
            assert abs(np.linalg.norm(p.tangent) - 1.0) <= 1e-12
        for p, q in zip(pts, pts[1:]):
            assert float(p.tangent @ q.tangent) > 0.0
        coords = np.array([p.coords for p in pts])
        for i in range(len(coords)):
            for j in range(i + 1, len(coords)):
                assert np.max(np.abs(coords[i] - coords[j])) > 1e-12
        # monotone departure from lam = 0
        lams = [p.lam for p in pts[:3]]
        assert all(b > a for a, b in zip(lams, lams[1:]))
        # path fidelity at accepted points: pc rejects a point above
        # PC_PATH_TOL, and ode's RK45 error control keeps within 10 ODE_RTOL
        tol = PC_PATH_TOL if strategy == "pc" else 10.0 * ODE_RTOL
        for p in pts:
            res = np.max(np.abs(m.rho(p.lam, p.x))) / (1.0 + np.linalg.norm(p.x))
            assert res <= tol
        assert abs(pts[-1].lam - 1.0) <= 1e-9
