import numpy as np
import pytest
import scipy.integrate

from homtrack import (BenchmarkSpec, DomainError, HomotopyMap, Problem,
                      SpdMatrix, TrackerConfig, TrackPoint, cross_lambda1,
                      hermite_predict, normal_flow_correct, ode_track,
                      pc_track, registry_get, tracking)
from homtrack.bench import build_homotopy, tracker_config
from homtrack.tracking import (ODE_ATOL, ODE_RTOL, STATUS_DOMAIN,
                               STATUS_EXHAUSTED, STATUS_LINALG,
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
    return HomotopyMap(kind="nfph", problem=p, anchor=a,
                       A=SpdMatrix.scaled_identity(alpha, p.dim))


class _ToyMap:
    """rho(lam, x) = x - lam; zero curve is the diagonal."""

    dim = 1
    anchor = np.zeros(1)
    problem = Problem(dim=1, f=lambda x: x - 1.0, jac=lambda x: np.eye(1), name="toy")

    def rho(self, lam, x):
        return np.array([x[0] - lam])

    def curve_system(self, lam, x):
        return np.array([[-1.0, 1.0]]), None  # [d/dlam | d/dx], identity lift


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

    def test_path_tol_per_strategy(self):
        assert TrackerConfig(strategy="pc").effective_path_tol == 1e-6
        assert TrackerConfig(strategy="ode").effective_path_tol == pytest.approx(1e-5)


class TestNormalFlow:
    def test_on_curve_no_move(self):
        w, iters = normal_flow_correct(line_fph(), np.array([0.5, 1.0]))
        assert iters <= 1
        np.testing.assert_allclose(w, [0.5, 1.0], atol=1e-12)

    def test_min_norm_step_geometry(self):
        w, _ = normal_flow_correct(_ToyMap(), np.array([0.5, 0.7]))
        np.testing.assert_allclose(w, [0.6, 0.6], atol=1e-12)

    def test_affine_one_iteration(self):
        w, iters = normal_flow_correct(line_fph(), np.array([0.4, 0.9]))
        assert iters <= 2
        assert abs(w[1] - 2.0 * w[0]) <= 1e-12  # back on x = 2 lam


class TestPcTrack:
    def test_straight_line(self):
        trace = pc_track(line_fph(), cfg=TrackerConfig(strategy="pc", s_max=5.0))
        assert trace.status == STATUS_REACHED
        assert trace.steps <= 10
        assert abs(trace.hsol[0] - 2.0) <= 1e-8
        assert abs(trace.points[-1].lam - 1.0) <= 1e-9

    def test_affine_closed_form_fidelity(self):
        B = np.array([[3.0, 1.0], [1.0, 2.0]])
        c = np.array([1.0, 2.0])
        p = Problem(dim=2, f=lambda x: B @ x - c, jac=lambda x: B.copy(), name="affine")
        m = HomotopyMap(kind="nfph", problem=p, anchor=np.zeros(2),
                        A=SpdMatrix.scaled_identity(2.0, 2))
        cfg = TrackerConfig(strategy="pc", s_max=10.0)
        trace = pc_track(m, cfg=cfg)
        assert trace.status == STATUS_REACHED
        for pt in trace.points:
            xc = np.linalg.solve(B + (1 - pt.lam) * 2.0 * np.eye(2), pt.lam * c)
            assert np.max(np.abs(pt.x - xc)) <= cfg.effective_path_tol * 10

    def test_ex4_sharp_turn(self):
        m = nfph("ex4", 75.0, anchor=[0.2])
        trace = pc_track(m, cfg=TrackerConfig(strategy="pc", s_max=5.0))
        assert trace.status == STATUS_REACHED
        assert abs(trace.hsol[0]) <= 1e-3

    def test_exhausted_arclength(self):
        trace = pc_track(line_fph(), cfg=TrackerConfig(strategy="pc", s_max=1.0))
        assert trace.status == STATUS_EXHAUSTED

    @pytest.mark.parametrize("kind", ["fph", "nfph", "nh"])
    def test_prediction_outside_domain_halves_step(self, kind):
        # log is undefined for x <= 0; predictions from a = 2 toward the root
        # e^-3 cross that boundary and must shrink the step, not raise
        log3 = Problem(dim=1, f=lambda x: np.log(x) + 3.0,
                       jac=lambda x: np.diag(1.0 / x), name="log3")
        A = SpdMatrix.scaled_identity(1.0, 1) if kind == "nfph" else None
        m = HomotopyMap(kind=kind, problem=log3, anchor=np.array([2.0]), A=A)
        with np.errstate(invalid="ignore", divide="ignore"):
            trace = pc_track(m, cfg=TrackerConfig(strategy="pc"))
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

        trace = pc_track(Degenerate(), cfg=TrackerConfig(strategy="pc"))
        assert trace.status == STATUS_RANK


class TestOdeTrack:
    def test_straight_line_checkpoint_index(self):
        # arclength to the crossing is sqrt(5); interval length 5/71
        cfg = TrackerConfig(strategy="ode", s_max=5.0, checkpoints=70)
        trace = ode_track(line_fph(), cfg=cfg)
        assert trace.status == STATUS_REACHED
        assert trace.checkpoint_hit in (31, 32, 33)
        assert abs(trace.hsol[0] - 2.0) <= 1e-6

    def test_ex1_shifted_field_is_fast(self):
        cfg = TrackerConfig(strategy="ode", s_max=2.5, checkpoints=70,
                            ode_field="adjugate")
        trace = ode_track(nfph("ex1", 50.0), cfg=cfg)
        assert trace.status == STATUS_REACHED
        assert trace.checkpoint_hit <= 5
        assert abs(trace.hsol[0] - 2.0) <= 1e-6

    def test_ex1_fph_slower_than_nfph(self):
        cfg = TrackerConfig(strategy="ode", s_max=2.5, checkpoints=70,
                            ode_field="adjugate")
        fph = ode_track(HomotopyMap(kind="fph", problem=registry_get("ex1"),
                                    anchor=np.zeros(1)), cfg=cfg)
        nf = ode_track(nfph("ex1", 50.0), cfg=cfg)
        assert fph.status == STATUS_REACHED
        assert 18 <= fph.checkpoint_hit <= 23
        assert nf.checkpoint_hit < fph.checkpoint_hit

    def test_exhausted(self):
        cfg = TrackerConfig(strategy="ode", s_max=1.0, checkpoints=10)
        trace = ode_track(line_fph(), cfg=cfg)
        assert trace.status == STATUS_EXHAUSTED
        assert trace.checkpoint_hit is None

    def test_ex3_endpoint_near_table(self):
        cfg = TrackerConfig(strategy="ode", s_max=30.0, checkpoints=50,
                            ode_field="adjugate")
        trace = ode_track(nfph("ex3", 50.0), cfg=cfg)
        assert trace.status == STATUS_REACHED
        target = np.array([1.6715543, 5.8651026, 1.3196481])
        assert np.max(np.abs(trace.hsol - target)) <= 1e-2


def _field(hmap, adjugate, prev):
    """A fresh copy of ode_track's tangent field, its orientation chained
    from ``prev`` through every call as ode_track's is."""
    def rhs(s, y):
        nonlocal prev
        fac = _curve_system(hmap, y[0], y[1:])
        prev = t = _chain(fac.t, prev)
        return t * fac.volume if adjugate else t

    return rhs


def _scipy_rk45(fun, span, y0):
    """scipy's RK45 run with the tracker's tolerances and its terminal upward
    lam = 1 event."""
    def crossing(s, y):
        return y[0] - 1.0

    crossing.terminal, crossing.direction = True, 1.0
    return scipy.integrate.solve_ivp(fun, span, y0, method="RK45", rtol=ODE_RTOL,
                                     atol=ODE_ATOL, events=[crossing])


def _assert_same_run(make_field, span, y0):
    ours = solve_ivp(make_field(), span, y0)
    ref = _scipy_rk45(make_field(), span, y0)
    assert np.array_equal(ours.t, ref.t)
    assert np.array_equal(ours.y, ref.y)
    assert ours.nfev == ref.nfev
    assert ours.success == ref.success
    # a crossing is the last step point, as scipy's terminal event is
    assert ours.crossed == (ref.t_events[0].size == 1)
    if ours.crossed:
        assert ours.t[-1] == ref.t_events[0][0]
        assert np.array_equal(ours.y[:, -1], ref.y_events[0][0])
    return ours


def _ode_intervals(spec, monkeypatch):
    """Run ode_track as the CLI runs ``spec`` and return its status and, per
    checkpoint interval, the span, the start point and the field's first
    value there, which orients a fresh field's first call the same way."""
    intervals = []
    integrate = tracking.solve_ivp

    def spy(fun, span, y0):
        first = []

        def recording(s, y):
            v = fun(s, y)
            if not first:
                first.append(v.copy())
            return v

        intervals.append((span, y0.copy(), first))
        return integrate(recording, span, y0)

    monkeypatch.setattr(tracking, "solve_ivp", spy)
    hmap, _ = build_homotopy(spec)
    trace = tracking.track(hmap, tracker_config(spec))
    monkeypatch.undo()
    return hmap, trace.status, [(span, y0, first[0]) for span, y0, first in intervals]


# the lcp-rand instances' anchor-feasibility UserWarning is expected here
@pytest.mark.filterwarnings("ignore:.*f at the anchor:UserWarning")
class TestRk45Stepper:
    """solve_ivp is scipy's RK45 run bit for bit on the tracker's own fields."""

    def test_tableau_is_scipys(self):
        rk45 = scipy.integrate.RK45
        for ours, theirs in ((tracking._RK_C, rk45.C), (tracking._RK_A, rk45.A),
                             (tracking._RK_B, rk45.B), (tracking._RK_E, rk45.E),
                             (tracking._RK_P, rk45.P)):
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
        hmap, status, intervals = _ode_intervals(spec, monkeypatch)
        assert status == STATUS_REACHED
        for span, y0, prev in intervals:
            run = _assert_same_run(lambda: _field(hmap, field == "adjugate", prev), span, y0)
        # the last interval ends on the lam = 1 crossing
        assert run.crossed

    def test_matches_scipy_on_step_underflow(self, monkeypatch):
        # the adjugate field's volume reaches about 1e105 near lam = 0.97, so
        # the step size falls below the spacing of the floats (CHANGES.md)
        spec = BenchmarkSpec.for_problem("lcp-rand-30-256", alpha=50.0, strategy="ode",
                                         ode_field="adjugate")
        hmap, status, intervals = _ode_intervals(spec, monkeypatch)
        assert status == STATUS_UNDERFLOW
        span, y0, prev = intervals[-1]
        run = _assert_same_run(lambda: _field(hmap, True, prev), span, y0)
        assert not run.success and not run.crossed

    @pytest.mark.parametrize("lam0", [0.5, 1.0])
    def test_zero_length_span(self, lam0):
        y0 = np.array([lam0, 2.0])
        _assert_same_run(lambda: (lambda s, y: np.array([1.0, -y[1]])), (0.5, 0.5), y0)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            solve_ivp(lambda s, y: y, (0.0, 1.0), np.array([0.0, np.nan]))

    def test_ode_track_runs_without_scipy_integrate(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.integrate was called")

        monkeypatch.setattr(scipy.integrate, "solve_ivp", forbidden)
        monkeypatch.setattr(scipy.integrate, "RK45", forbidden)
        trace = ode_track(nfph("ex3", 50.0), cfg=TrackerConfig(strategy="ode", s_max=30.0,
                                                                ode_field="adjugate"))
        assert trace.status == STATUS_REACHED


class TestCheckpointScan:
    @pytest.mark.parametrize("lam", [1.0, 1.02])
    def test_corrected_endpoint_crossing(self, lam):
        endpoint = np.array([lam, 2.0 * lam])
        cand = checkpoint_scan(2.0, endpoint, line_fph(), TrackerConfig(strategy="ode"))
        assert cand is not None and cand.kind == "crossing"
        assert cand.s == 2.0
        np.testing.assert_array_equal(cand.y, endpoint)

    def test_no_candidate(self):
        cfg = TrackerConfig(strategy="ode")
        assert checkpoint_scan(1.0, np.array([0.3, 0.1]), line_fph(), cfg) is None

    def test_residual_branch(self):
        endpoint = np.array([0.999, 2.0])  # residual of the target is 0 at x = 2
        cfg = TrackerConfig(strategy="ode")
        cand = checkpoint_scan(1.0, endpoint, line_fph(), cfg)
        assert cand is not None and cand.kind == "residual"

    def test_huge_endpoint_is_no_candidate(self):
        # |x|^2 overflows at x = 1e160; the scale falls back to max|x| times
        # the norm of x / max|x|, so the scaled residual is about 1, not 0
        endpoint = np.array([0.5, 1e160])
        cfg = TrackerConfig(strategy="ode")
        assert checkpoint_scan(1.0, endpoint, line_fph(), cfg) is None
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

    def test_requires_bracket(self):
        p = TrackPoint(s=0.0, lam=0.5, x=np.array([1.0]), tangent=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            cross_lambda1(p, p, line_fph())

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
        tracker = pc_track if strategy == "pc" else ode_track
        trace = tracker(_Failing(exc), cfg=cfg)
        assert trace.status == status
        assert not trace.success
        # the estimate is the last point the tracker trusted
        assert any(np.array_equal(trace.hsol, p.x) for p in trace.points)

    def test_adjugate_field_overflow(self):
        # singular values 1e200 each: their product is not a float
        p = Problem(dim=2, f=lambda x: 1e200 * (x - 1.0),
                    jac=lambda x: 1e200 * np.eye(2), name="huge")
        m = HomotopyMap(kind="nh", problem=p, anchor=np.zeros(2))
        trace = ode_track(m, cfg=TrackerConfig(strategy="ode", ode_field="adjugate"))
        assert trace.status == STATUS_OVERFLOW
        np.testing.assert_array_equal(trace.hsol, m.anchor)


class TestTraceInvariants:
    @pytest.mark.parametrize("strategy", ["ode", "pc"])
    @pytest.mark.parametrize("pid,alpha,sf", [("ex1", 50.0, 5.0),
                                              ("ex2", 50.0, 20.0),
                                              ("ex3", 50.0, 30.0)])
    def test_invariants_on_benchmark_runs(self, strategy, pid, alpha, sf):
        m = nfph(pid, alpha)
        cfg = TrackerConfig(strategy=strategy, s_max=sf, checkpoints=70)
        trace = pc_track(m, cfg=cfg) if strategy == "pc" else ode_track(m, cfg=cfg)
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
        # path fidelity at accepted points
        tol = cfg.effective_path_tol
        for p in pts:
            res = np.max(np.abs(m.rho(p.lam, p.x))) / (1.0 + np.linalg.norm(p.x))
            assert res <= tol
        assert abs(pts[-1].lam - 1.0) <= 1e-9
