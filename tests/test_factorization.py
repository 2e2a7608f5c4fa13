"""The trackers' one QR factorization per curve point: tangent, volume, rank
test and corrector step against the SVD and lstsq oracles, the implicit Q
against numpy's complete QR, invariants on generated Jacobians, non-finite
Jacobians, LAPACK failures, the reuse of field factorizations by the ODE
tracker, and the NCP's reduced system against the dense Jacobian."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_triangular

from homtrack import (HomotopyMap, NcpHomotopy, Problem, SmoothingParams,
                      SpdMatrix, TrackerConfig, lcp_instance,
                      normal_flow_correct, ode_track, pc_track, registry_get)
from homtrack import tracking
from homtrack.ncp import NonsmoothPointError
from homtrack.tracking import (STATUS_LINALG, STATUS_REACHED, RankDeficientError,
                               _apply_q, _curve_system, _factor, _min_norm_step,
                               _null_and_volume, _tracker_jacobian)

LINE = Problem(dim=1, f=lambda x: x - 2.0, jac=lambda x: np.eye(1), name="line")


def nfph(pid, alpha):
    p = registry_get(pid)
    return HomotopyMap(kind="nfph", problem=p, anchor=np.zeros(p.dim),
                       A=SpdMatrix.scaled_identity(alpha, p.dim))


class TestQrFactorization:
    """The one QR factorization of J^T against the SVD and lstsq it replaces,
    on seeded random Jacobians."""

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
    def test_null_vector_matches_svd(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            jac = rng.normal(size=(n, n + 1))
            t, _ = _null_and_volume(jac)
            v = np.linalg.svd(jac)[2][-1]
            assert min(np.linalg.norm(t - v), np.linalg.norm(t + v)) <= 1e-12
            assert np.linalg.norm(jac @ t) <= 1e-12 * np.linalg.norm(jac)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
    def test_volume_is_product_of_singular_values(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            jac = rng.normal(size=(n, n + 1))
            _, vol = _null_and_volume(jac)
            assert vol == pytest.approx(np.prod(np.linalg.svd(jac, compute_uv=False)),
                                        rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
    def test_corrector_step_matches_lstsq(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            jac = rng.normal(size=(n, n + 1))
            b = rng.normal(size=n)
            expected = np.linalg.lstsq(jac, b, rcond=None)[0]
            np.testing.assert_allclose(_min_norm_step(jac, b), expected,
                                       atol=1e-12 * (1.0 + np.linalg.norm(expected)))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
    def test_normal_flow_on_affine_map(self, n):
        rng = np.random.default_rng(n)
        # rho(lam, x) = J (lam, x) - c: the first minimum-norm step lands on
        # the curve, the second is zero
        jac = rng.normal(size=(n, n + 1))
        c = rng.normal(size=n)

        class Affine:
            def rho(self, lam, x):
                return jac @ np.concatenate([[lam], x]) - c

            def rho_jacobian(self, lam, x):
                return np.hstack([jac[:, 1:], jac[:, :1]])

        w0 = rng.normal(size=n + 1)
        w, iters = normal_flow_correct(Affine(), w0, TrackerConfig(strategy="pc"))
        expected = w0 + np.linalg.lstsq(jac, c - jac @ w0, rcond=None)[0]
        assert iters == 2
        np.testing.assert_allclose(w, expected, atol=1e-12 * (1.0 + np.linalg.norm(w0)))

    @pytest.mark.parametrize("n", [2, 3, 10, 40])
    def test_rank_deficient_raises(self, n):
        rng = np.random.default_rng(n)
        jac = rng.normal(size=(n, n + 1))
        jac[-1] = 2.0 * jac[0]  # rank n - 1
        with pytest.raises(RankDeficientError):
            _null_and_volume(jac)
        with pytest.raises(RankDeficientError):
            _min_norm_step(jac, np.ones(n))

    def test_zero_jacobian_raises_in_corrector(self):
        class Flat:
            def rho(self, lam, x):
                return np.array([1.0])

            def rho_jacobian(self, lam, x):
                return np.zeros((1, 2))

        with pytest.raises(RankDeficientError):
            normal_flow_correct(Flat(), np.array([0.5, 0.5]), TrackerConfig(strategy="pc"))

    def test_non_finite_entry_is_linalg_error(self):
        jac = np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 2.0]])
        with pytest.raises(np.linalg.LinAlgError):
            _null_and_volume(jac)
        with pytest.raises(np.linalg.LinAlgError):
            _min_norm_step(jac, np.ones(2))


class TestImplicitQ:
    """Q kept as dgeqrf's reflectors against the Q numpy's complete QR forms."""

    SIZES = [1, 2, 3, 10, 40, 120, 200]

    @pytest.mark.parametrize("n", SIZES)
    def test_reflectors_apply_numpy_q(self, n):
        rng = np.random.default_rng(100 + n)
        jac = rng.normal(size=(n, n + 1))
        qr, tau, _ = _factor(jac)
        q = np.column_stack([_apply_q(qr, tau, e) for e in np.eye(n + 1)])
        np.testing.assert_allclose(q, np.linalg.qr(jac.T, mode="complete")[0],
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(q.T @ q, np.eye(n + 1), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", SIZES)
    def test_tangent_and_volume_match_numpy_qr(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(3):
            jac = rng.normal(size=(n, n + 1))
            q, r = np.linalg.qr(jac.T, mode="complete")
            t, vol = _null_and_volume(jac)
            assert np.linalg.norm(t - q[:, -1]) <= 1e-14
            assert vol == pytest.approx(np.prod(np.abs(np.diagonal(r))), rel=1e-14)

    @pytest.mark.parametrize("routine", ["dgeqrf", "dormqr"])
    def test_lapack_failure_is_linalg_error(self, routine, monkeypatch):
        real = getattr(tracking.lapack, routine)

        def failing(*args, **kwargs):
            return (*real(*args, **kwargs)[:-1], -5)

        monkeypatch.setattr(tracking.lapack, routine, failing)
        jac = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]])
        with pytest.raises(np.linalg.LinAlgError, match=routine):
            _null_and_volume(jac)
        with pytest.raises(np.linalg.LinAlgError, match=routine):
            _min_norm_step(jac, np.ones(2))
        trace = pc_track(HomotopyMap(kind="fph", problem=LINE, anchor=np.zeros(1)))
        assert trace.status == STATUS_LINALG

    def test_triangular_solve_failure_is_linalg_error(self, monkeypatch):
        real = tracking.lapack.dtrtrs
        monkeypatch.setattr(tracking.lapack, "dtrtrs",
                            lambda *args, **kwargs: (real(*args, **kwargs)[0], 2))
        jac = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]])
        with pytest.raises(np.linalg.LinAlgError, match="dtrtrs"):
            _min_norm_step(jac, np.ones(2))
        trace = pc_track(HomotopyMap(kind="fph", problem=LINE, anchor=np.zeros(1)))
        assert trace.status == STATUS_LINALG


class TestTriangularSolve:
    """The corrector's R^{-T} b by LAPACK's dtrtrs, against the
    solve_triangular wrapper it replaced."""

    @pytest.mark.parametrize("pid,alphas", [("ex1", (0.001, 50.0)), ("ex2", (0.001, 50.0)),
                                            ("ex3", (0.001, 50.0)),
                                            ("ex4", (0.001, 1.0, 75.0))])
    def test_steps_equal_wrapper_steps(self, pid, alphas):
        rng = np.random.default_rng(7)
        checked = 0
        for alpha in alphas:
            hmap = nfph(pid, alpha)
            trace = pc_track(hmap, cfg=TrackerConfig(strategy="pc", s_max=20.0))
            for p in trace.points:
                jac = _tracker_jacobian(hmap, p.lam, p.x)
                b = rng.normal(size=hmap.dim)
                qr, tau, _ = _factor(jac)
                y = np.zeros(hmap.dim + 1)
                y[:-1] = solve_triangular(qr[:-1], b, trans="T", check_finite=False)
                assert np.array_equal(_min_norm_step(jac, b), _apply_q(qr, tau, y))
                checked += 1
        assert checked >= 10


@st.composite
def _conditioned_jacobians(draw):
    """(J, b) with J of size n x (n+1), n <= 6, bounded entries and
    cond(J) < 1e8."""
    n = draw(st.integers(1, 6))
    # a fixed grid in [-10, 10] keeps products clear of underflow
    entries = st.integers(-10 ** 6, 10 ** 6).map(lambda k: k * 1e-5)
    jac = draw(arrays(np.float64, (n, n + 1), elements=entries))
    assume(np.linalg.cond(jac) < 1e8)
    return jac, draw(arrays(np.float64, n, elements=entries))


class TestFactorizationProperties:
    @settings(max_examples=300, deadline=None)
    @given(_conditioned_jacobians())
    def test_invariants(self, case):
        jac, b = case
        norm = np.linalg.norm(jac)
        sv = np.linalg.svd(jac, compute_uv=False)
        t, vol = _null_and_volume(jac)
        assert abs(np.linalg.norm(t) - 1.0) <= 1e-14
        assert np.linalg.norm(jac @ t) <= 1e-12 * norm
        # QR and SVD each find sigma_min only to about eps * sigma_max, so the
        # volume's relative accuracy degrades with cond(J) = sv[0] / sv[-1]
        cond = sv[0] / sv[-1]
        assert vol == pytest.approx(np.prod(sv), rel=1e-10 + len(sv) * 2.3e-16 * cond)
        z = _min_norm_step(jac, b)
        znorm = np.linalg.norm(z)
        assert np.linalg.norm(jac @ z - b) <= 1e-12 * (norm * znorm + np.linalg.norm(b))
        assert abs(float(t @ z)) <= 1e-13 * znorm


class _NanJacobian:
    """The homotopy of x - 2 from 0 whose Jacobian is NaN once lam > 0.3."""

    dim = 1
    anchor = np.zeros(1)
    problem = LINE

    def __init__(self):
        self.inner = HomotopyMap(kind="fph", problem=LINE, anchor=np.zeros(1))

    def rho(self, lam, x):
        return self.inner.rho(lam, x)

    def rho_jacobian(self, lam, x):
        j = self.inner.rho_jacobian(lam, x)
        return np.full_like(j, np.nan) if lam > 0.3 else j


class TestNanJacobian:
    @pytest.mark.parametrize("strategy,field", [("ode", "arclength"), ("ode", "adjugate"),
                                                ("pc", "arclength")])
    def test_ends_as_linalg_failure(self, strategy, field):
        cfg = TrackerConfig(strategy=strategy, ode_field=field)
        tracker = pc_track if strategy == "pc" else ode_track
        trace = tracker(_NanJacobian(), cfg=cfg)
        assert trace.status == STATUS_LINALG
        assert any(np.array_equal(trace.hsol, p.x) for p in trace.points)


class TestOdeFactorizationReuse:
    @pytest.mark.parametrize("field", ["arclength", "adjugate"])
    def test_one_jacobian_per_recorded_point(self, field):
        # every recorded point is either an RK45 step point, whose field value
        # the next step already evaluated (first same as last), an interval's
        # corrected endpoint, or the start: one Jacobian evaluation each
        inner = nfph("ex2", 1.0)
        seen = []

        class Counting:
            dim = inner.dim
            anchor = inner.anchor
            problem = inner.problem

            def rho(self, lam, x):
                return inner.rho(lam, x)

            def rho_jacobian(self, lam, x):
                seen.append(np.concatenate([[lam], x]).tobytes())
                return inner.rho_jacobian(lam, x)

        cfg = TrackerConfig(strategy="ode", s_max=20.0, checkpoints=70, ode_field=field)
        trace = ode_track(Counting(), cfg=cfg)
        assert trace.status == STATUS_REACHED
        recorded = trace.points[:-1]  # the last is the landed lam = 1 point
        assert len(recorded) >= 10
        for p in recorded:
            assert seen.count(p.coords.tobytes()) == 1


@st.composite
def _lcp_curve_points(draw):
    """(context, lam, z, b): a random monotone LCP (M = B^T B + I, n <= 8)
    under a diagonal A (alpha I, or a drawn positive diagonal), a point, and
    a right-hand side."""
    n = draw(st.integers(1, 8))
    B = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    q = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    beta = draw(st.floats(0.5, 2.0))
    anchor = beta + draw(arrays(float, 2 * n, elements=st.floats(0.0, 2.0)))
    alphas = st.floats(1e-3, 75.0)
    if draw(st.booleans()):
        A = SpdMatrix.scaled_identity(draw(alphas), 2 * n)
    else:
        A = SpdMatrix.from_matrix(np.diag(draw(arrays(float, 2 * n, elements=alphas))))
    ctx = NcpHomotopy(lcp_instance(B.T @ B + np.eye(n), q),
                      SmoothingParams(beta=beta, A=A, anchor=anchor))
    lam = draw(st.floats(0.0, 1.1))
    z = draw(arrays(float, 2 * n, elements=st.floats(-2.0, 3.0)))
    b = draw(arrays(float, 2 * n, elements=st.floats(-1.0, 1.0)))
    return ctx, lam, z, b


class TestReducedSystem:
    """The n x (n+1) system NcpHomotopy hands the trackers for a diagonal A
    against the dense 2n x (2n+1) curve Jacobian it stands for."""

    @settings(max_examples=300, deadline=None)
    @given(_lcp_curve_points())
    def test_matches_dense_jacobian(self, case):
        ctx, lam, z, b = case
        n = ctx.ncp.dim
        x, y = z[:n], z[n:]
        mu = ctx.params.beta * (1.0 - lam)
        s = np.sqrt((x - y) ** 2 + 4.0 * mu**2)
        if np.any(s == 0.0):  # a kink of the mu = 0 system: both builds refuse it
            with pytest.raises(NonsmoothPointError):
                _tracker_jacobian(ctx, lam, z)
            with pytest.raises(NonsmoothPointError):
                _curve_system(ctx, lam, z)
            return
        jac = _tracker_jacobian(ctx, lam, z)
        cond = np.linalg.cond(jac)
        assume(cond < 1e8)
        mat, lift = _curve_system(ctx, lam, z)
        d = (x - y) / s
        a_y = np.diagonal(ctx.params.A.mat)[n:]
        pivot = np.maximum(np.abs(1.0 - d), np.abs((1.0 + d) + mu + (1.0 - lam) * a_y))
        # the dense path exactly where some pivot is below 1, which needs lam > 1
        assert (lift is None) == bool(np.any(pivot < 1.0))
        if lift is None:
            assert lam > 1.0
            assert np.array_equal(mat, jac)
            return
        assert mat.shape == (n, n + 1)
        assert np.array_equal(np.abs(lift.pivot), pivot)
        assert np.all(np.abs(lift.m) <= 1.0)
        t_dense, vol_dense = _null_and_volume(jac)
        t, vol = _null_and_volume(mat, lift)
        # both sides are backward stable, so they differ by about eps * cond
        tol = 1e-13 + 1e-16 * cond
        assert min(np.linalg.norm(t - t_dense), np.linalg.norm(t + t_dense)) <= tol
        assert vol == pytest.approx(vol_dense, rel=1e-12 + 2 * n * 2.3e-16 * cond)
        step_dense = _min_norm_step(jac, b)
        step = _min_norm_step(mat, b, lift)
        assert np.linalg.norm(step - step_dense) <= tol * (1.0 + np.linalg.norm(step_dense))

    def test_dense_spd_shift_takes_dense_path(self):
        inst = registry_get("lcp-rand-4-2")
        B = np.random.default_rng(5).uniform(-1.0, 1.0, (8, 8))
        params = SmoothingParams(beta=1.0, A=SpdMatrix.from_matrix(B @ B.T + np.eye(8)),
                                 anchor=np.full(8, 2.0))
        ctx = NcpHomotopy(inst, params)
        z = np.random.default_rng(6).uniform(0.5, 2.0, 8)
        for lam in (0.0, 0.5, 1.0):
            assert ctx.reduced_system(lam, z) is None
            mat, lift = _curve_system(ctx, lam, z)
            assert lift is None and np.array_equal(mat, _tracker_jacobian(ctx, lam, z))

    def test_overshoot_with_small_pivot_takes_dense_path(self):
        # lam = 1.1, beta = 1 and A = 15 I: mu = -0.1 and (1 - lam) A_yy = -1.5,
        # so at d = 0.5 the coefficients are p = 0.5 and q = -0.1
        ctx = NcpHomotopy(lcp_instance(np.eye(1), np.array([-1.0])),
                          SmoothingParams(beta=1.0, A=SpdMatrix.scaled_identity(15.0, 2),
                                          anchor=np.array([2.0, 2.0])))
        gap = 0.2 / np.sqrt(3.0)  # x - y with d = gap / sqrt(gap^2 + 4 mu^2) = 0.5
        z = np.array([1.0 + gap, 1.0])
        assert ctx.reduced_system(1.1, z) is None
        mat, lift = _curve_system(ctx, 1.1, z)
        assert lift is None and np.array_equal(mat, _tracker_jacobian(ctx, 1.1, z))
        # before the overshoot the same point is reduced
        assert ctx.reduced_system(0.9, z) is not None

    @pytest.mark.parametrize("pid", ["ncp-lin-3", "lcp-rand-8-1"])
    def test_tracker_uses_reduced_system(self, pid, monkeypatch):
        # the trackers factorize the n x (n+1) system at every point up to
        # lam = 1, and never build the 2n x (2n+1) Jacobian on the way
        inst = registry_get(pid)
        m = 2 * inst.dim
        ctx = NcpHomotopy(inst, SmoothingParams(beta=1.0, A=SpdMatrix.scaled_identity(1.0, m),
                                                anchor=np.full(m, 2.0)))
        shapes = []
        real = tracking._factor
        monkeypatch.setattr(tracking, "_factor", lambda jac: shapes.append(jac.shape) or real(jac))
        monkeypatch.setattr(ctx, "rho_jacobian", None)
        trace = pc_track(ctx, cfg=TrackerConfig(strategy="pc", s_max=50.0))
        assert trace.status == STATUS_REACHED
        assert shapes and set(shapes) == {(inst.dim, inst.dim + 1)}
