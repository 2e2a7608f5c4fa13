"""The trackers' one QR factorization per curve point: tangent, volume, rank
test and corrector step against the SVD and lstsq oracles, the implicit Q
against numpy's complete QR, invariants on generated Jacobians, non-finite
Jacobians, LAPACK failures, the reuse of field factorizations by the ODE
tracker, the NCP's reduced system against the dense Jacobian, and the
adjugate orientation read off the factorization against slogdet."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_triangular

from homtrack import (HomotopyMap, NcpHomotopy, Problem,
                      TrackerConfig, eval_F, jacobian, lcp_instance, normal_flow_correct,
                      registry_get, track)
from homtrack import tracking
from homtrack.bench import BenchmarkSpec, build_homotopy, tracker_config
from homtrack.ncp import NonsmoothPointError
from homtrack.tracking import (STATUS_LINALG, STATUS_REACHED, RankDeficientError,
                               _apply_q, _curve_system, _factor, _min_norm_step,
                               _orient_signed)

LINE = Problem(dim=1, f=lambda x: x - 2.0, jac=lambda x: np.eye(1), name="line")


class _Affine:
    """rho(lam, x) = J (lam, x) - c for an n x (n+1) J, lambda column first."""

    def __init__(self, jac, c):
        self.jac, self.c = jac, c

    def rho(self, lam, x):
        return self.jac @ np.concatenate([[lam], x]) - self.c

    def curve_system(self, lam, x):
        return self.jac, None

    def check_domain(self, lam, x):
        pass  # J is given: a non-finite entry in it is not F's


def nfph(pid, alpha):
    p = registry_get(pid)
    return HomotopyMap(kind="nfph", problem=p, anchor=np.zeros(p.dim), alpha=alpha)


class TestQrFactorization:
    """The one QR factorization of J^T against the SVD and lstsq it replaces,
    on seeded random Jacobians."""

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
    def test_null_vector_matches_svd(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            jac = rng.normal(size=(n, n + 1))
            t = _factor(jac).t
            v = np.linalg.svd(jac)[2][-1]
            assert min(np.linalg.norm(t - v), np.linalg.norm(t + v)) <= 1e-12
            assert np.linalg.norm(jac @ t) <= 1e-12 * np.linalg.norm(jac)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
    def test_volume_is_product_of_singular_values(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            jac = rng.normal(size=(n, n + 1))
            vol = _factor(jac).volume
            assert vol == pytest.approx(np.prod(np.linalg.svd(jac, compute_uv=False)),
                                        rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
    def test_corrector_step_matches_lstsq(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            jac = rng.normal(size=(n, n + 1))
            b = rng.normal(size=n)
            expected = np.linalg.lstsq(jac, b, rcond=None)[0]
            np.testing.assert_allclose(_min_norm_step(_factor(jac), b), expected,
                                       atol=1e-12 * (1.0 + np.linalg.norm(expected)))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40])
    def test_normal_flow_on_affine_map(self, n):
        rng = np.random.default_rng(n)
        # rho(lam, x) = J (lam, x) - c: the first minimum-norm step lands on
        # the curve, the second is zero
        jac = rng.normal(size=(n, n + 1))
        c = rng.normal(size=n)
        w0 = rng.normal(size=n + 1)
        cor = normal_flow_correct(_Affine(jac, c), w0)
        expected = w0 + np.linalg.lstsq(jac, c - jac @ w0, rcond=None)[0]
        assert cor.iterations == 2
        np.testing.assert_allclose(cor.w, expected, atol=1e-12 * (1.0 + np.linalg.norm(w0)))
        # the first step is that whole move, and the second is rounding
        assert cor.first_step == pytest.approx(np.linalg.norm(expected - w0), rel=1e-10)
        assert cor.contraction <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 10, 40])
    def test_rank_deficient_raises(self, n):
        rng = np.random.default_rng(n)
        jac = rng.normal(size=(n, n + 1))
        jac[-1] = 2.0 * jac[0]  # rank n - 1
        with pytest.raises(RankDeficientError):
            _factor(jac)
        with pytest.raises(RankDeficientError):
            normal_flow_correct(_Affine(jac, np.ones(n)), np.zeros(n + 1))

    def test_zero_jacobian_raises_in_corrector(self):
        class Flat:
            def rho(self, lam, x):
                return np.array([1.0])

            def curve_system(self, lam, x):
                return np.zeros((1, 2)), None

        with pytest.raises(RankDeficientError):
            normal_flow_correct(Flat(), np.array([0.5, 0.5]))

    def test_non_finite_entry_is_linalg_error(self):
        jac = np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 2.0]])
        with pytest.raises(np.linalg.LinAlgError):
            _factor(jac)
        with pytest.raises(np.linalg.LinAlgError):
            normal_flow_correct(_Affine(jac, np.ones(2)), np.zeros(3))


class TestImplicitQ:
    """Q kept as dgeqrf's reflectors against the Q numpy's complete QR forms."""

    SIZES = [1, 2, 3, 10, 40, 120, 200]

    @pytest.mark.parametrize("n", SIZES)
    def test_reflectors_apply_numpy_q(self, n):
        rng = np.random.default_rng(100 + n)
        jac = rng.normal(size=(n, n + 1))
        fac = _factor(jac)
        q = np.column_stack([_apply_q(fac.qr, fac.tau, e) for e in np.eye(n + 1)])
        np.testing.assert_allclose(q, np.linalg.qr(jac.T, mode="complete")[0],
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(q.T @ q, np.eye(n + 1), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", SIZES)
    def test_tangent_and_volume_match_numpy_qr(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(3):
            jac = rng.normal(size=(n, n + 1))
            q, r = np.linalg.qr(jac.T, mode="complete")
            fac = _factor(jac)
            assert np.linalg.norm(fac.t - q[:, -1]) <= 1e-14
            assert fac.volume == pytest.approx(np.prod(np.abs(np.diagonal(r))), rel=1e-14)

    @pytest.mark.parametrize("routine", ["dgeqrf", "dormqr"])
    def test_lapack_failure_is_linalg_error(self, routine, monkeypatch):
        real = getattr(tracking.lapack, routine)

        def failing(*args, **kwargs):
            return (*real(*args, **kwargs)[:-1], -5)

        monkeypatch.setattr(tracking.lapack, routine, failing)
        jac = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]])
        with pytest.raises(np.linalg.LinAlgError, match=routine):
            _factor(jac)
        with pytest.raises(np.linalg.LinAlgError, match=routine):
            normal_flow_correct(_Affine(jac, np.ones(2)), np.zeros(3))
        trace = track(HomotopyMap(kind="fph", problem=LINE, anchor=np.zeros(1)),
                      TrackerConfig(strategy="pc"))
        assert trace.status == STATUS_LINALG

    def test_triangular_solve_failure_is_linalg_error(self, monkeypatch):
        real = tracking.lapack.dtrtrs
        monkeypatch.setattr(tracking.lapack, "dtrtrs",
                            lambda *args, **kwargs: (real(*args, **kwargs)[0], 2))
        jac = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]])
        with pytest.raises(np.linalg.LinAlgError, match="dtrtrs"):
            _min_norm_step(_factor(jac), np.ones(2))
        trace = track(HomotopyMap(kind="fph", problem=LINE, anchor=np.zeros(1)),
                      TrackerConfig(strategy="pc"))
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
            trace = track(hmap, TrackerConfig(strategy="pc", s_max=20.0))
            for p in trace.points:
                jac = hmap.rho_jacobian(p.lam, p.x)
                b = rng.normal(size=hmap.dim)
                fac = _factor(jac)
                y = np.zeros(hmap.dim + 1)
                y[:-1] = solve_triangular(fac.qr[:-1], b, trans="T", check_finite=False)
                assert np.array_equal(_min_norm_step(fac, b), _apply_q(fac.qr, fac.tau, y))
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
        fac = _factor(jac)
        t, vol = fac.t, fac.volume
        assert abs(np.linalg.norm(t) - 1.0) <= 1e-14
        assert np.linalg.norm(jac @ t) <= 1e-12 * norm
        # QR and SVD each find sigma_min only to about eps * sigma_max, so the
        # volume's relative accuracy degrades with cond(J) = sv[0] / sv[-1]
        cond = sv[0] / sv[-1]
        assert vol == pytest.approx(np.prod(sv), rel=1e-10 + len(sv) * 2.3e-16 * cond)
        z = _min_norm_step(fac, b)
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

    def curve_system(self, lam, x):
        j, lift = self.inner.curve_system(lam, x)
        return (np.full_like(j, np.nan) if lam > 0.3 else j), lift

    def check_domain(self, lam, x):
        self.inner.check_domain(lam, x)  # F and F' are finite: the NaN stands


class TestNanJacobian:
    @pytest.mark.parametrize("strategy,field", [("ode", "arclength"), ("ode", "adjugate"),
                                                ("pc", "arclength")])
    def test_ends_as_linalg_failure(self, strategy, field):
        cfg = TrackerConfig(strategy=strategy, ode_field=field)
        trace = track(_NanJacobian(), cfg)
        assert trace.status == STATUS_LINALG
        assert any(np.array_equal(trace.hsol, p.x) for p in trace.points)


def _ex2_case(field):
    return nfph("ex2", 1.0), TrackerConfig(strategy="ode", s_max=20.0, checkpoints=70,
                                           ode_field=field)


def _lcp_case(field):
    # lcp-rand-30-1 --alpha 1 as the CLI runs it, on the reduced system
    spec = BenchmarkSpec.for_problem("lcp-rand-30-1", alpha=1.0, strategy="ode",
                                     ode_field=field)
    return build_homotopy(spec), tracker_config(spec)


class _Counting:
    """``inner`` with every point passed to its curve_system appended to
    ``seen`` as the bytes of (lam, x)."""

    def __init__(self, inner, seen):
        self.inner, self.seen = inner, seen
        self.dim, self.anchor, self.problem = inner.dim, inner.anchor, inner.problem

    def rho(self, lam, x):
        return self.inner.rho(lam, x)

    def curve_system(self, lam, x):
        self.seen.append(np.concatenate([[lam], x]).tobytes())
        return self.inner.curve_system(lam, x)


class TestOdeFactorizationReuse:
    @pytest.mark.filterwarnings("ignore:.*f at the anchor:UserWarning")
    @pytest.mark.parametrize("case,field", [
        pytest.param(_ex2_case, "arclength", id="arclength"),
        pytest.param(_ex2_case, "adjugate", id="adjugate"),
        pytest.param(_lcp_case, "arclength", id="lcp-rand-30-1-arclength"),
        pytest.param(_lcp_case, "adjugate", id="lcp-rand-30-1-adjugate")])
    def test_one_jacobian_per_recorded_point(self, case, field):
        # every recorded point is either an RK45 step point, whose field value
        # the step that reached it evaluated last (first same as last), an
        # interval's corrected endpoint, or the start: one Jacobian evaluation
        # each, so the ode tracker's one-entry cache never misses
        inner, cfg = case(field)
        seen = []
        trace = track(_Counting(inner, seen), cfg)
        assert trace.status == STATUS_REACHED
        recorded = trace.points[:-1]  # the last is the landed lam = 1 point
        assert len(recorded) >= 10
        for p in recorded:
            assert seen.count(p.coords.tobytes()) == 1

    @pytest.mark.filterwarnings("ignore:.*f at the anchor:UserWarning")
    @pytest.mark.parametrize("case,field,overrides", [
        pytest.param(_ex2_case, "arclength", {}, id="arclength"),
        pytest.param(_ex2_case, "adjugate", {}, id="adjugate"),
        pytest.param(_lcp_case, "arclength", {}, id="lcp-rand-30-1-arclength"),
        # this field reaches lam = 1 near s = 1e-13, inside the first of the
        # CLI's intervals; intervals of 1e-23 put checkpoints on its way
        pytest.param(_lcp_case, "adjugate", dict(s_max=1e-22, checkpoints=9),
                     id="lcp-rand-30-1-adjugate")])
    def test_one_jacobian_per_checkpoint_correction_start(self, case, field, overrides,
                                                          monkeypatch):
        # a checkpoint correction starts at the end of its interval's last RK
        # step, which that step's last stage factorized: the corrector's first
        # iterate reads that factorization instead of making its own
        inner, cfg = case(field)
        cfg = replace(cfg, **overrides)
        seen, starts = [], []
        integrate = tracking.solve_ivp

        def spy(fun, span, y0, on_step):
            run = integrate(fun, span, y0, on_step=on_step)
            if run.success and not run.crossed:
                starts.append(run.y.tobytes())
            return run

        monkeypatch.setattr(tracking, "solve_ivp", spy)
        trace = track(_Counting(inner, seen), cfg)
        assert trace.status == STATUS_REACHED
        assert len(starts) >= 2
        for key in starts:
            assert seen.count(key) == 1


class TestPcFactorizationCount:
    """_curve_system calls of homtrack solve --problem ncp-lin-100 --alpha A
    --strategy pc.  The corrector's simplified-Newton tail, the tangent read
    off its last factorization and the Illinois landing took alpha 1 from 44
    to 20 and alpha 50 from 79 to 35."""

    @staticmethod
    def factorizations(alpha):
        spec = BenchmarkSpec.for_problem("ncp-lin-100", alpha=alpha, strategy="pc")
        seen = []
        trace = track(_Counting(build_homotopy(spec), seen), tracker_config(spec))
        assert trace.status == STATUS_REACHED and not trace.endpoint_flagged
        return len(seen)

    def test_ncp_lin_100_step_follows_the_curve(self):
        # the curve is nearly straight, so the asymptotic step control takes
        # long steps; a step cap of 0.5 on this curve, about 26 long, took 161
        assert self.factorizations(1.0) <= 24

    def test_ncp_lin_100_alpha_50_lands_without_stalling(self):
        # the curve bends toward lam = 1, where plain regula falsi made 11
        # landing corrections
        assert self.factorizations(50.0) <= 40


class TestSimplifiedNewtonTail:
    """normal_flow_correct factorizes an iterate only while the last step was
    longer than sqrt(CORRECTOR_TOL) relative to residual_scale; shorter steps
    leave the next one on the factorization it holds."""

    @pytest.mark.filterwarnings("ignore:.*f at the anchor:UserWarning")
    @pytest.mark.parametrize("pid,alpha", [("ncp-lin-100", 1.0), ("lcp-rand-30-1", 50.0)])
    def test_small_steps_reuse_the_held_factorization(self, pid, alpha, monkeypatch):
        spec = BenchmarkSpec.for_problem(pid, alpha=alpha, strategy="pc")
        inner = build_homotopy(spec)
        on_curve = track(inner, tracker_config(spec)).points[2]
        # off the curve along a normal: the first step is about 1e-6
        # relative, below sqrt(CORRECTOR_TOL) but not converged
        fac = _curve_system(inner, on_curve.lam, on_curve.x)
        normal = _min_norm_step(fac, np.ones(inner.dim))
        w = on_curve.coords
        w0 = w + 1e-6 * tracking.residual_scale(w) * normal / np.linalg.norm(normal)
        seen, made = [], []
        factorize = tracking._curve_system

        def spy(hmap, lam, x):
            made.append(factorize(hmap, lam, x))
            return made[-1]

        monkeypatch.setattr(tracking, "_curve_system", spy)
        cor = normal_flow_correct(_Counting(inner, seen), w0)
        assert cor.first_step / tracking.residual_scale(cor.w) <= math.sqrt(tracking.CORRECTOR_TOL)
        assert cor.iterations >= 2
        assert len(seen) == len(made) < cor.iterations
        assert cor.fac is made[-1]
        assert cor[0] is cor.w and cor[1] == cor.iterations
        assert tracking._path_residual(inner, cor.w[0], cor.w[1:]) <= tracking.PC_PATH_TOL


@st.composite
def _lcp_curve_points(draw):
    """(context, lam, z, b): a random monotone LCP (M = B^T B + I, n <= 8)
    under a drawn shift alpha I, a point, and a right-hand side."""
    n = draw(st.integers(1, 8))
    B = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    q = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    beta = draw(st.floats(0.5, 2.0))
    anchor = beta + draw(arrays(float, 2 * n, elements=st.floats(0.0, 2.0)))
    alpha = draw(st.floats(1e-3, 75.0))
    ctx = NcpHomotopy(lcp_instance(B.T @ B + np.eye(n), q), alpha=alpha, anchor=anchor,
                      beta=beta)
    lam = draw(st.floats(0.0, 1.1))
    z = draw(arrays(float, 2 * n, elements=st.floats(-2.0, 3.0)))
    b = draw(arrays(float, 2 * n, elements=st.floats(-1.0, 1.0)))
    return ctx, lam, z, b


def _default_anchor_case():
    """(context, lam, z, b) under the CLI's default on lcp-rand-4-1: anchor
    (beta + 1) * ones, whose halves are uniform, and the shift 50 I.  Near
    lam = 1 the point's last row eliminates x_4 and the others eliminate y_i,
    so both kinds of eliminated variable are lifted."""
    inst = registry_get("lcp-rand-4-1")
    n, beta = inst.dim, 1.0
    ctx = NcpHomotopy(inst, alpha=50.0, anchor=np.full(2 * n, beta + 1.0), beta=beta)
    rng = np.random.default_rng(n)
    z = ctx.anchor + rng.uniform(-1.5, 0.5, 2 * n)
    return ctx, 0.999, z, rng.uniform(-1.0, 1.0, 2 * n)


class _OracleRowElimination:
    """The row elimination as first built, kept as the oracle for the one-pass
    build of NcpHomotopy.curve_system: K from J_xx, the multipliers and the
    lambda column, and reduce and the lift re-deriving c_bot / pivot."""

    def __init__(self, jac_x, diag_x, elim_x, pivot, kept, c):
        n = pivot.shape[0]
        self.elim_x, self.pivot = elim_x, pivot
        self.jac_x, self.diag_x = jac_x, diag_x
        self.m = kept / pivot
        self.g = c[n:] / pivot
        self.scale = math.prod(np.abs(pivot).tolist())
        cs = np.where(elim_x, -self.m, 1.0)
        self.matrix = np.empty((n, n + 1))
        np.multiply(jac_x, cs, out=self.matrix[:, 1:])
        self.matrix.reshape(-1)[1::n + 2] = ((np.diagonal(jac_x) + diag_x) * cs
                                             + np.where(elim_x, -1.0, self.m))
        self.matrix[:, 0] = self.reduce(c)

    def reduce(self, w):
        n = self.pivot.shape[0]
        h = w[n:] / self.pivot
        out = w[:n] + np.where(self.elim_x, 0.0, h)
        hx = np.where(self.elim_x, h, 0.0)
        out -= self.jac_x @ hx + self.diag_x * hx
        return out

    def __call__(self, u, b=None):
        n = self.pivot.shape[0]
        kept = u[1:]
        e = -(self.g * u[0] + self.m * kept)
        if b is not None:
            e += b[n:] / self.pivot
        return np.concatenate(([u[0]], np.where(self.elim_x, e, kept),
                               np.where(self.elim_x, kept, e)))


def _oracle_reduced_system(ctx, lam, z):
    """The reduced system as first built: the anchor's Fmu and d/dmu terms
    recomputed from f(a_x) on every call, in eval_Fmu's operation order."""
    n = ctx.ncp.dim
    beta = ctx.beta
    mu, dmu = beta * (1.0 - lam), -beta
    a_diag = np.full(2 * n, ctx.alpha)
    a_x, a_y = ctx.anchor[:n], ctx.anchor[n:]
    x, y = z[:n], z[n:]
    s = np.sqrt((x - y) ** 2 + 4.0 * mu**2)
    if np.any(s == 0.0):
        raise NonsmoothPointError("kink")
    d = (x - y) / s
    p = 1.0 - d
    q = (1.0 + d) + mu + (1.0 - lam) * a_diag[n:]
    elim_x = np.abs(p) > np.abs(q)
    pivot = np.where(elim_x, p, q)
    jac_x = jacobian(ctx.ncp, x)
    c = np.empty(2 * n)
    c[:n] = dmu * x
    c[n:] = dmu * (y - 4.0 * mu / s)
    s_a = np.sqrt((a_x - a_y) ** 2 + 4.0 * mu**2)
    c[:n] += eval_F(ctx.ncp, a_x) - a_y + mu * a_x
    c[n:] += a_x + a_y - s_a + mu * a_y
    if lam != 1.0:
        if np.any(s_a == 0.0):
            raise NonsmoothPointError("d/dmu kink")
        scale = (1.0 - lam) * dmu
        c[:n] -= scale * a_x
        c[n:] -= scale * (a_y - 4.0 * mu / s_a)
    c -= a_diag * (z - ctx.anchor)
    return _OracleRowElimination(jac_x, mu + (1.0 - lam) * a_diag[:n], elim_x, pivot,
                                 np.where(elim_x, q, p), c)


def _assert_matches_dense(jac, fac, b):
    """The factorized reduced system ``fac`` gives the dense curve Jacobian
    jac's unit tangent up to sign, its volume and its minimum-norm step for b."""
    n = fac.qr.shape[1]
    cond = np.linalg.cond(jac)
    dense = _factor(jac)
    # both sides are backward stable, so they differ by about eps * cond
    tol = 1e-13 + 1e-16 * cond
    assert min(np.linalg.norm(fac.t - dense.t), np.linalg.norm(fac.t + dense.t)) <= tol
    assert fac.volume == pytest.approx(dense.volume, rel=1e-12 + 2 * n * 2.3e-16 * cond)
    step_dense = _min_norm_step(dense, b)
    step = _min_norm_step(fac, b)
    assert np.linalg.norm(step - step_dense) <= tol * (1.0 + np.linalg.norm(step_dense))


class TestReducedSystem:
    """The n x (n+1) system NcpHomotopy hands the trackers against the dense
    2n x (2n+1) curve Jacobian it stands for."""

    @settings(max_examples=300, deadline=None)
    @given(_lcp_curve_points())
    def test_matches_dense_jacobian(self, case):
        ctx, lam, z, b = case
        n = ctx.ncp.dim
        x, y = z[:n], z[n:]
        mu = ctx.beta * (1.0 - lam)
        s = np.sqrt((x - y) ** 2 + 4.0 * mu**2)
        if np.any(s == 0.0):  # a kink of the mu = 0 system: both builds refuse it
            with pytest.raises(NonsmoothPointError):
                ctx.rho_jacobian(lam, z)
            with pytest.raises(NonsmoothPointError):
                _curve_system(ctx, lam, z)
            return
        jac = ctx.rho_jacobian(lam, z)
        cond = np.linalg.cond(jac)
        assume(cond < 1e8)
        fac = _curve_system(ctx, lam, z)
        d = (x - y) / s
        alpha = ctx.alpha
        pivot = np.maximum(np.abs(1.0 - d), np.abs((1.0 + d) + mu + (1.0 - lam) * alpha))
        # every point is reduced, a pivot below 1 past lam = 1 too
        assert fac.lift is not None
        assert fac.qr.shape == (n + 1, n)
        assert np.array_equal(np.abs(fac.lift.pivot), pivot)
        assert np.all(np.abs(fac.lift.m) <= 1.0)
        _assert_matches_dense(jac, fac, b)

    @settings(max_examples=300, deadline=None)
    @given(_lcp_curve_points(), st.floats(-2.0, 2.0))
    @example(_default_anchor_case(), 0.5)
    def test_bit_equal_to_oracle(self, case, u0):
        # the one-pass build keeps each entry's operation order, so K, the
        # pivots, the multipliers, the volume scale, the reduced right-hand
        # side and the lift equal the first build's bit for bit
        ctx, lam, z, b = case
        n = ctx.ncp.dim
        try:
            oracle = _oracle_reduced_system(ctx, lam, z)
        except NonsmoothPointError:
            with pytest.raises(NonsmoothPointError):
                ctx.curve_system(lam, z)
            return
        mat, lift = ctx.curve_system(lam, z)
        assert np.array_equal(mat, oracle.matrix)
        for name in ("pivot", "m"):
            assert np.array_equal(getattr(lift, name), getattr(oracle, name))
        assert lift.scale == oracle.scale
        assert np.array_equal(lift.reduce(b), oracle.reduce(b))
        u = np.concatenate(([u0], b[:n]))
        assert np.array_equal(lift(u), oracle(u))
        assert np.array_equal(lift(u, b), oracle(u, b))

    @pytest.mark.parametrize("pid,alpha", [("lcp-rand-4-2", 50.0), ("lcp-rand-10-0", 1.3),
                                           ("ncp-lin-3", 0.9)])
    def test_bit_equal_to_oracle_default_anchor(self, pid, alpha):
        # the CLI's default anchor is uniform; every entry equals the oracle's
        inst = registry_get(pid)
        n = inst.dim
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            ctx = NcpHomotopy(inst, alpha, beta=0.7)
        rng = np.random.default_rng(n)
        for lam in (0.0, 0.2917, 0.63, 0.999, 1.0, 1.02):
            z = ctx.anchor + rng.uniform(-1.5, 0.5, 2 * n)
            b = rng.uniform(-1.0, 1.0, 2 * n)
            oracle = _oracle_reduced_system(ctx, lam, z)
            mat, lift = ctx.curve_system(lam, z)
            assert np.array_equal(mat, oracle.matrix)
            assert lift.scale == oracle.scale
            assert np.array_equal(lift.reduce(b), oracle.reduce(b))
            u = rng.uniform(-1.0, 1.0, n + 1)
            assert np.array_equal(lift(u, b), oracle(u, b))

    @staticmethod
    def _overshoot_context():
        # beta = 1 and alpha = 15: past lam = 1 both mu and (1 - lam) alpha
        # are negative, so q = 1 + d + mu + (1 - lam) alpha drops below 1
        return NcpHomotopy(lcp_instance(np.eye(1), np.array([-1.0])), alpha=15.0,
                           anchor=np.array([2.0, 2.0]), beta=1.0)

    def test_overshoot_with_small_pivot_matches_dense(self):
        # at lam = 1.1, mu = -0.1 and (1 - lam) alpha = -1.5, so at d = 0.5 the
        # coefficients are p = 0.5 and q = -0.1: the pivot p is below 1
        ctx = self._overshoot_context()
        gap = 0.2 / np.sqrt(3.0)  # x - y with d = gap / sqrt(gap^2 + 4 mu^2) = 0.5
        z = np.array([1.0 + gap, 1.0])
        fac = _curve_system(ctx, 1.1, z)
        assert fac.lift is not None and np.abs(fac.lift.pivot).max() < 1.0
        _assert_matches_dense(ctx.rho_jacobian(1.1, z), fac, np.array([0.3, -0.7]))

    def test_zero_pivot_is_rank_deficient(self):
        # at lam = 1.125, mu = -0.125 and (1 - lam) alpha = -1.875, and x - y =
        # 1e9 rounds d to 1: p = 1 - d and q = 2 + mu - 1.875 are both exactly
        # zero, so the lower row of J is its lambda entry alone
        ctx = self._overshoot_context()
        z = np.array([1e9 + 1.0, 1.0])
        with pytest.raises(RankDeficientError):
            _factor(ctx.rho_jacobian(1.125, z))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RankDeficientError):
                _curve_system(ctx, 1.125, z)

    @pytest.mark.parametrize("pid,strategy", [
        pytest.param("ncp-lin-3", "pc", id="ncp-lin-3"),
        pytest.param("lcp-rand-8-1", "pc", id="lcp-rand-8-1"),
        pytest.param("ncp-lin-3", "ode", id="ncp-lin-3-ode-adjugate"),
        pytest.param("lcp-rand-8-1", "ode", id="lcp-rand-8-1-ode-adjugate")])
    def test_tracker_uses_reduced_system(self, pid, strategy, monkeypatch):
        # the trackers factorize the n x (n+1) system at every point up to
        # lam = 1, and never build the 2n x (2n+1) Jacobian on the way, the
        # adjugate field's start orientation included
        inst = registry_get(pid)
        m = 2 * inst.dim
        ctx = NcpHomotopy(inst, alpha=1.0, anchor=np.full(m, 2.0), beta=1.0)
        shapes = []
        real = tracking._factor
        monkeypatch.setattr(tracking, "_factor",
                            lambda mat, lift=None: shapes.append(mat.shape) or real(mat, lift))
        monkeypatch.setattr(ctx, "rho_jacobian", None)
        trace = track(ctx, TrackerConfig(strategy=strategy, s_max=50.0, ode_field="adjugate"))
        assert trace.status == STATUS_REACHED
        assert shapes and set(shapes) == {(inst.dim, inst.dim + 1)}


def _signed_minor_sign(jac, t):
    """The oracle: the sign of (-1)^N det [jac; t^T] for jac's N rows, which
    is positive when t points along jac's signed-minor vector.  A jac whose
    largest entry is below 1/2 is first scaled up by a power of two, which is
    exact and keeps the sign, so the determinant of a tiny (say subnormal)
    jac does not underflow to zero."""
    _, e = np.frexp(np.abs(jac).max())
    sign, _ = np.linalg.slogdet(np.vstack([np.ldexp(jac, -min(e, 0)), t]))
    return sign * (-1.0) ** jac.shape[0]


@st.composite
def _dense_systems(draw):
    n = draw(st.integers(1, 10))
    return draw(arrays(float, (n, n + 1), elements=st.floats(-1.0, 1.0)))


class TestSignedOrientation:
    """The adjugate start orientation read off the one factorization against
    the sign of det [J; t^T]."""

    @settings(max_examples=300, deadline=None)
    @given(_dense_systems())
    # subnormal entries: det [J; t^T] underflows unless the oracle rescales
    @example(np.array([[5e-324, 5e-324, 0.0], [5e-324, 5e-324, 5e-324]]))
    def test_dense_matches_slogdet(self, jac):
        assume(np.linalg.cond(jac) < 1e8)
        assert _signed_minor_sign(jac, _orient_signed(_factor(jac))) > 0

    @settings(max_examples=300, deadline=None)
    @given(_lcp_curve_points())
    def test_reduced_matches_slogdet(self, case):
        # the reduced system's parity adds n, the pivot signs and the
        # eliminated x_i; n runs over odd and even values
        ctx, lam, z, _ = case
        try:
            jac = ctx.rho_jacobian(lam, z)
        except NonsmoothPointError:
            assume(False)
        assume(np.linalg.cond(jac) < 1e8)
        assert _signed_minor_sign(jac, _orient_signed(_curve_system(ctx, lam, z))) > 0
