import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from homtrack import (NcpHomotopy, NcpInstance, comp_residual,
                      eval_Fmu, eval_Fmu_jacobian, jacobian, lcp_enumerate, lcp_instance,
                      min_ncp, phi_mu,
                      registry_get, to_problem)
from homtrack.ncp import NonsmoothPointError

RNG = np.random.default_rng(3)


def scalar_ncp(f, jac, name="toy"):
    return NcpInstance(dim=1, f=lambda x: np.array([f(x[0])]),
                       jac=lambda x: np.array([[jac(x[0])]]), name=name)


IDENTITY = scalar_ncp(lambda t: t, lambda t: 1.0, "identity")


def _dFmu_dmu(ncp, z, mu):
    """Partial derivative of eval_Fmu with respect to mu at fixed z, kept as
    an oracle for the lambda column of the homotopy Jacobian."""
    n = ncp.dim
    x, y = z[:n], z[n:]
    s = np.sqrt((x - y) ** 2 + 4.0 * mu**2)
    if np.any(s == 0.0):
        raise NonsmoothPointError("d/dmu undefined at a kink point")
    return np.concatenate([x, y - 4.0 * mu / s])


class TestMinAndPhi:
    def test_min_values(self):
        assert min_ncp(2.0, 0.0) == 0.0
        assert min_ncp(3.0, 1.0) == 2.0
        assert min_ncp(-1.0, 4.0) == -2.0

    def test_phi_reduces_to_min_at_zero(self):
        for _ in range(500):
            a, b = RNG.uniform(-10, 10, 2)
            assert phi_mu(a, b, 0.0) == min_ncp(a, b)

    def test_phi_values(self):
        assert phi_mu(2.0, 0.0, 0.0) == 0.0
        assert phi_mu(0.0, 0.0, 1.0) == -2.0
        assert phi_mu(3.0, 1.0, 0.5) == pytest.approx(4.0 - np.sqrt(5.0), abs=1e-12)

    def test_phi_symmetry_exact(self):
        for _ in range(500):
            a, b = RNG.uniform(-10, 10, 2)
            mu = RNG.uniform(0, 5)
            assert phi_mu(a, b, mu) == phi_mu(b, a, mu)

    def test_phi_below_min_and_monotone_in_mu(self):
        for _ in range(100):
            a, b = RNG.uniform(-5, 5, 2)
            grid = np.linspace(0.01, 3.0, 40)
            vals = [phi_mu(a, b, m) for m in grid]
            assert all(v < min_ncp(a, b) for v in vals)
            assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
            assert abs(phi_mu(a, b, 1e-9) - min_ncp(a, b)) <= 1e-8

    def test_product_identity(self):
        # (a - d/2)(b - d/2) = mu^2 with both factors nonnegative
        for _ in range(10_000):
            a, b = RNG.uniform(-10, 10, 2)
            mu = RNG.uniform(0, 5)
            d = phi_mu(a, b, mu)
            fa, fb = a - d / 2, b - d / 2
            assert fa >= -1e-12 and fb >= -1e-12
            assert abs(fa * fb - mu * mu) <= 1e-10 * (1 + a * a + b * b)


class TestEvalFmu:
    def test_worked_example(self):
        z = np.array([1.0, 1.0])
        np.testing.assert_allclose(eval_Fmu(IDENTITY, z, 0.5), [0.5, 1.5], atol=1e-14)

    def test_solution_annihilates_mu0(self):
        inst = scalar_ncp(lambda t: t - 1.0, lambda t: 1.0)
        z = np.array([1.0, 0.0])  # x = 1, y = f(x) = 0, complementary
        np.testing.assert_array_equal(eval_Fmu(inst, z, 0.0), [0.0, 0.0])

    def test_smoothing_distance_bound(self):
        # || Phi_mu - Phi_0 ||_2 <= 2 mu sqrt(n)
        for _ in range(1000):
            n = int(RNG.integers(1, 9))
            x = RNG.uniform(-10, 10, n)
            y = RNG.uniform(-10, 10, n)
            mu = RNG.uniform(0, 3)
            gap = np.linalg.norm(phi_mu(x, y, mu) - phi_mu(x, y, 0.0))
            assert gap <= 2 * mu * np.sqrt(n) + 1e-9


class TestFmuJacobian:
    def test_worked_example(self):
        jac = eval_Fmu_jacobian(IDENTITY, np.array([1.0, 1.0]), 0.5)
        np.testing.assert_allclose(jac, [[1.5, -1.0], [1.0, 1.5]], atol=1e-14)

    def test_equal_args_large_mu(self):
        jac = eval_Fmu_jacobian(IDENTITY, np.array([3.0, 3.0]), 10.0)
        assert jac[1, 0] == pytest.approx(1.0, abs=1e-14)
        assert jac[1, 1] == pytest.approx(1.0 + 10.0, abs=1e-14)

    def test_kink_refused(self):
        with pytest.raises(NonsmoothPointError):
            eval_Fmu_jacobian(IDENTITY, np.array([1.0, 1.0]), 0.0)

    def test_matches_finite_differences(self):
        inst = registry_get("lcp-rand-3-0")
        h = 1e-6
        for _ in range(50):
            z = RNG.uniform(-2, 2, 6)
            mu = RNG.uniform(0.05, 2.0)
            jac = eval_Fmu_jacobian(inst, z, mu)
            fd = np.empty_like(jac)
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                fd[:, j] = (eval_Fmu(inst, z + e, mu) - eval_Fmu(inst, z - e, mu)) / (2 * h)
            assert np.max(np.abs(jac - fd)) / (1 + np.max(np.abs(jac))) <= 1e-5

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_no_negative_zero(self, mu):
        # array_equal counts -0.0 equal to 0.0, so the block oracle tests cannot
        # see a negative zero off the block diagonals; -np.eye(3) has -0.0 there
        for inst in (registry_get("lcp-rand-3-1"), lcp_instance(-np.eye(3), np.ones(3))):
            out = eval_Fmu_jacobian(inst, RNG.uniform(0.5, 2.0, 6), mu)
            assert not ((out == 0.0) & np.signbit(out)).any()

    def test_misshapen_jacobian_rejected(self):
        # a (1, 2) f' would broadcast into every 2n x 2n block without error
        inst = NcpInstance(dim=2, f=lambda x: x + 1.0, jac=lambda x: np.ones((1, 2)))
        ctx = NcpHomotopy(inst)
        z = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="shape"):
            eval_Fmu_jacobian(inst, z, 0.5)
        with pytest.raises(ValueError, match="shape"):
            ctx.rho_jacobian(0.5, z)
        with pytest.raises(ValueError, match="shape"):
            ctx.curve_system(0.5, z)


class TestNcpHomotopy:
    def test_start_identity(self):
        inst = scalar_ncp(lambda t: t + 3.0, lambda t: 1.0)
        ctx = NcpHomotopy(inst)
        assert np.linalg.norm(ctx.rho(0.0, ctx.anchor)) == 0.0

    def test_endpoint_is_mu0_system(self):
        inst = scalar_ncp(lambda t: t + 3.0, lambda t: 1.0)
        ctx = NcpHomotopy(inst)
        for _ in range(20):
            z = RNG.uniform(-2, 4, 2)
            np.testing.assert_array_equal(ctx.rho(1.0, z),
                                          eval_Fmu(inst, z, 0.0))

    def test_worked_example(self):
        ctx = NcpHomotopy(IDENTITY, alpha=1.0, anchor=np.array([1.0, 1.0]), beta=1.0)
        rho = ctx.rho(0.5, np.array([2.0, 1.0]))
        assert rho[0] == pytest.approx(2.25, abs=1e-12)
        # second block by scalar arithmetic: F2(z) = phi_0.5(2,1) + 0.5,
        # F2(a) = 1.5, A (z - a) has zero second component
        f2z = (3.0 - math.sqrt(2.0)) + 0.5
        assert rho[1] == pytest.approx(f2z - 0.5 * 1.5, abs=1e-12)

    def test_jacobian_matches_finite_differences(self):
        inst = registry_get("lcp-rand-2-1")
        ctx = NcpHomotopy(inst)
        h = 1e-7
        for _ in range(60):
            lam = RNG.uniform(0.02, 0.98)
            z = RNG.uniform(0.1, 3.0, 4)
            jac = ctx.rho_jacobian(lam, z)
            fd = np.empty_like(jac)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd[:, j + 1] = (ctx.rho(lam, z + e) - ctx.rho(lam, z - e)) / (2 * h)
            fd[:, 0] = (ctx.rho(lam + h, z) - ctx.rho(lam - h, z)) / (2 * h)
            assert np.max(np.abs(jac - fd)) / (1 + np.max(np.abs(jac))) <= 1e-5

    def test_beta_contract(self):
        # beta = 1e300 is finite, but the smoothing term 4 beta^2 is not
        for beta in (0.0, -1.0, np.nan, np.inf, 1e300, 6.8e153):
            with pytest.raises(ValueError, match="positive and finite"):
                NcpHomotopy(IDENTITY, alpha=1.0, anchor=np.array([2.0, 2.0]), beta=beta)
        ctx = NcpHomotopy(IDENTITY, alpha=1.0, anchor=np.array([1e154, 1e154]), beta=6.7e153)
        assert math.isfinite(4.0 * ctx.beta**2)

    def test_alpha_and_anchor_contract(self):
        for alpha in (0.0, -1.0, np.nan, np.inf, None):
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                NcpHomotopy(IDENTITY, alpha=alpha, anchor=np.array([2.0, 2.0]), beta=1.0)
        # the anchor's shape is checked once, against the instance's 2n
        for anchor in (np.full((2, 2), 2.0), np.full(3, 2.0)):
            with pytest.raises(ValueError, match="expected stacked point"):
                NcpHomotopy(IDENTITY, alpha=1.0, anchor=anchor, beta=1.0)
        ctx = NcpHomotopy(IDENTITY, alpha=np.float64(2), anchor=[2, 2], beta=1.0)
        assert type(ctx.alpha) is float
        with pytest.raises(ValueError, match="length 8"):
            NcpHomotopy(registry_get("lcp-rand-4-1"), alpha=1.0, anchor=np.full(6, 2.0))

    def test_anchor_below_beta_rejected(self):
        with pytest.raises(ValueError, match="anchor must be >= beta"):
            NcpHomotopy(IDENTITY, alpha=1.0, anchor=np.array([1.0, 3.0]), beta=2.0)

    def test_infeasible_anchor_warns(self):
        inst = scalar_ncp(lambda t: t - 10.0, lambda t: 1.0)
        with pytest.warns(UserWarning, match="f at the anchor .* is not strictly positive"):
            NcpHomotopy(inst)

    def test_only_default_anchor_warns(self):
        # the same infeasible anchor, given explicitly, is taken without a warning
        inst = scalar_ncp(lambda t: t - 10.0, lambda t: 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ctx = NcpHomotopy(inst, anchor=np.array([2.0, 2.0]))
            NcpHomotopy(scalar_ncp(lambda t: t + 1.0, lambda t: 1.0, "feasible"))
        with pytest.warns(UserWarning, match="f at the anchor .* is not strictly positive"):
            default = NcpHomotopy(inst)
        assert np.array_equal(ctx.anchor, default.anchor)

    def test_default_anchor_evaluates_f_once(self):
        calls = []
        inst = scalar_ncp(lambda t: calls.append(t) or t - 10.0, lambda t: 1.0)
        with pytest.warns(UserWarning):
            NcpHomotopy(inst)
        assert calls == [2.0]

    def test_context_protocol(self):
        inst = registry_get("ncp-lin-2")
        ctx = NcpHomotopy(inst)
        assert ctx.dim == 4
        assert ctx.problem.dim == 4
        np.testing.assert_array_equal(ctx.rho(0.0, ctx.anchor), np.zeros(4))


class TestCompResidual:
    def test_exact_solution(self):
        inst = scalar_ncp(lambda t: t - 1.0, lambda t: 1.0)
        assert comp_residual(inst, np.array([1.0])) == 0.0

    def test_violation(self):
        inst = scalar_ncp(lambda t: t - 1.0, lambda t: 1.0)
        assert comp_residual(inst, np.array([2.0])) == pytest.approx(2.0, abs=1e-14)

    def test_negative_x(self):
        inst = scalar_ncp(lambda t: t + 2.0, lambda t: 1.0)
        assert comp_residual(inst, np.array([-1.0])) >= 1.0


class TestLcpEnumerate:
    def test_identity_negative_q(self):
        sols = lcp_enumerate(np.eye(1), np.array([-1.0]))
        assert len(sols) == 1
        np.testing.assert_allclose(sols[0], [1.0], atol=1e-12)

    def test_identity_positive_q(self):
        sols = lcp_enumerate(np.eye(1), np.array([1.0]))
        assert len(sols) == 1
        np.testing.assert_array_equal(sols[0], [0.0])

    def test_two_dim(self):
        sols = lcp_enumerate(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([-3.0, -3.0]))
        assert any(np.allclose(s, [1.0, 1.0], atol=1e-10) for s in sols)

    def test_singular_minor_skipped(self):
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        sols = lcp_enumerate(M, np.array([-1.0, -1.0]))
        assert any(np.allclose(s, [1.0, 1.0], atol=1e-10) for s in sols)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            lcp_enumerate(np.eye(13), np.zeros(13))

    def test_unique_for_positive_definite(self):
        inst = registry_get("lcp-rand-4-7")
        sols = lcp_enumerate(inst.M, inst.q)
        assert len(sols) == 1
        x = sols[0]
        assert comp_residual(inst, x) <= 1e-9


class TestToProblem:
    def test_mu0_reduction(self):
        inst = registry_get("ncp-lin-3")
        prob = to_problem(inst)
        assert prob.name == "ncp-lin-3-mu0"
        z = RNG.uniform(0.5, 2.0, 6)
        np.testing.assert_array_equal(prob.f(z), eval_Fmu(inst, z, 0.0))

    def test_dmu_kink_guard(self):
        # at lam = 1 (mu = 0) the point x = y is a kink: d/dmu is undefined
        # there, and both Jacobian builds refuse it
        z = np.array([2.0, 2.0])
        with pytest.raises(NonsmoothPointError):
            _dFmu_dmu(IDENTITY, z, 0.0)
        ctx = NcpHomotopy(IDENTITY, alpha=1.0, anchor=np.array([2.0, 3.0]), beta=1.0)
        with pytest.raises(NonsmoothPointError):
            ctx.rho_jacobian(1.0, z)
        with pytest.raises(NonsmoothPointError):
            ctx.curve_system(1.0, z)


def _oracle_Fmu_jacobian(ncp, z, mu):
    """The Jacobian of eval_Fmu stacked from four separately built blocks,
    kept as an oracle for eval_Fmu_jacobian's writes into one zero buffer."""
    n = ncp.dim
    x, y = z[:n], z[n:]
    s = np.sqrt((x - y) ** 2 + 4.0 * mu**2)
    if np.any(s == 0.0):
        raise NonsmoothPointError("kink")
    d = (x - y) / s
    eye = np.eye(n)
    top = np.hstack([jacobian(ncp, x) + mu * eye, -eye])
    bottom = np.hstack([np.diag(1.0 - d), np.diag(1.0 + d) + mu * eye])
    return np.vstack([top, bottom])


def _oracle_rho_jacobian(ncp, ctx, lam, z):
    """[d rho/d lam | d rho/dz] assembled block by block, with the anchor
    terms evaluated at every call from the context's beta, alpha and anchor."""
    mu = ctx.beta * (1.0 - lam)
    jz = _oracle_Fmu_jacobian(ncp, z, mu) + (1.0 - lam) * (ctx.alpha * np.eye(z.shape[0]))
    dmu = -ctx.beta
    dlam = dmu * _dFmu_dmu(ncp, z, mu)
    dlam += eval_Fmu(ncp, ctx.anchor, mu)
    if lam != 1.0:
        dlam -= (1.0 - lam) * dmu * _dFmu_dmu(ncp, ctx.anchor, mu)
    dlam -= ctx.alpha * (z - ctx.anchor)
    return np.hstack([dlam.reshape(-1, 1), jz])


# the ids name the shift, the scaled identity alpha I
_SHIFT_IDS = "scaled-identity-{}".format


def _lams(rng, draws=6):
    return [0.0, 1.0, *rng.uniform(-0.2, 1.1, draws)]


class TestOneBufferAssembly:
    """eval_Fmu_jacobian's block writes into its zero buffer, rho_jacobian's
    sum of that Jacobian and (1 - lam) alpha I, and rho's cached anchor terms
    against oracles that form every block and anchor term afresh."""

    @pytest.mark.parametrize("n", [1, 2, 5, 30], ids=_SHIFT_IDS)
    def test_rho_jacobian_equals_block_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for seed in range(3):
            inst = registry_get(f"lcp-rand-{n}-{seed}")
            beta = rng.uniform(0.2, 2.0)
            ctx = NcpHomotopy(inst, alpha=rng.uniform(0.01, 50.0),
                              anchor=beta + rng.uniform(0.0, 3.0, 2 * n), beta=beta)
            for lam in _lams(rng):
                z = rng.uniform(-1.0, 3.0, 2 * n)
                expected = _oracle_rho_jacobian(inst, ctx, lam, z)
                assert np.array_equal(ctx.rho_jacobian(lam, z), expected)

    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_Fmu_jacobian_equals_block_oracle(self, n):
        rng = np.random.default_rng(200 + n)
        inst = registry_get(f"lcp-rand-{n}-4")
        for mu in [0.0, 1.0, *rng.uniform(-0.5, 2.0, 6)]:
            z = rng.uniform(-1.0, 3.0, 2 * n)
            assert np.array_equal(eval_Fmu_jacobian(inst, z, mu),
                                  _oracle_Fmu_jacobian(inst, z, mu))

    @pytest.mark.parametrize("n", [1, 2, 5, 30], ids=_SHIFT_IDS)
    def test_rho_equals_anchor_evaluation(self, n):
        # rho builds Fmu(a) from the cached anchor terms; the old formula
        # evaluated eval_Fmu at the anchor on every call
        rng = np.random.default_rng(300 + n)
        for seed in range(3):
            inst = registry_get(f"lcp-rand-{n}-{seed}")
            beta = rng.uniform(0.2, 2.0)
            ctx = NcpHomotopy(inst, alpha=rng.uniform(0.01, 50.0),
                              anchor=beta + rng.uniform(0.0, 3.0, 2 * n), beta=beta)
            for lam in _lams(rng):
                z = rng.uniform(-1.0, 3.0, 2 * n)
                mu = beta * (1.0 - lam)
                expected = eval_Fmu(inst, z, mu)
                if lam != 1.0:
                    expected = expected + (1.0 - lam) * (
                        ctx.alpha * (z - ctx.anchor) - eval_Fmu(inst, ctx.anchor, mu))
                assert np.array_equal(ctx.rho(lam, z), expected)

    def test_default_anchor_at_lam1(self):
        # the default anchor has x = y, a kink of d/dmu at mu = 0; at lam = 1
        # its term carries a zero factor and is skipped
        inst = registry_get("lcp-rand-5-2")
        ctx = NcpHomotopy(inst, alpha=1.0, anchor=np.full(10, 2.0), beta=1.0)
        z = RNG.uniform(0.5, 2.0, 10)
        assert np.array_equal(ctx.rho_jacobian(1.0, z), _oracle_rho_jacobian(inst, ctx, 1.0, z))

    def test_fresh_array_per_call(self):
        inst = registry_get("lcp-rand-5-1")
        ctx = NcpHomotopy(inst)
        z = RNG.uniform(0.5, 2.0, 10)
        first, second = ctx.rho_jacobian(0.3, z), ctx.rho_jacobian(0.3, z)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(eval_Fmu_jacobian(inst, z, 0.5),
                                    eval_Fmu_jacobian(inst, z, 0.5))

    def test_anchor_f_evaluated_once_per_context(self):
        base = registry_get("lcp-rand-4-3")
        calls = {"f": 0, "jac": 0}

        def f(x):
            calls["f"] += 1
            return base.f(x)

        def jac(x):
            calls["jac"] += 1
            return base.jac(x)

        inst = NcpInstance(dim=4, f=f, jac=jac, name="counting")
        ctx = NcpHomotopy(inst, alpha=2.0, anchor=np.full(8, 2.0), beta=1.0)
        assert calls == {"f": 1, "jac": 0}
        for lam in (0.0, 0.4, 0.9, 1.0, 1.05):
            ctx.rho_jacobian(lam, RNG.uniform(0.5, 2.0, 8))
        assert calls == {"f": 1, "jac": 5}

    def test_rho_evaluates_f_at_z_only(self):
        base = registry_get("lcp-rand-4-3")
        calls = []
        inst = NcpInstance(dim=4, f=lambda x: calls.append(x.copy()) or base.f(x),
                           jac=base.jac, name="counting")
        ctx = NcpHomotopy(inst, alpha=2.0, anchor=np.full(8, 2.0), beta=1.0)
        for lam in (0.0, 0.4, 1.0, 1.05):
            ctx.rho(lam, RNG.uniform(0.5, 2.0, 8))
        assert len(calls) == 5
        assert sum(np.array_equal(x, ctx.anchor[:4]) for x in calls) == 1

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_z_kink_refused(self, lam):
        # mu = 0 at lam = 1; at lam = 0.5 mu^2 underflows, so s = |x - y| = 0
        ctx = NcpHomotopy(IDENTITY, alpha=1.0, anchor=np.array([2.0, 3.0]), beta=1e-300)
        z = np.array([1.5, 1.5])
        with pytest.raises(NonsmoothPointError):
            _oracle_rho_jacobian(IDENTITY, ctx, lam, z)
        with pytest.raises(NonsmoothPointError):
            ctx.rho_jacobian(lam, z)

    def test_anchor_kink_refused_off_lam1(self):
        # the anchor has x = y and mu^2 underflows to zero, so d/dmu at the
        # anchor is undefined; z itself is away from the kink
        ctx = NcpHomotopy(IDENTITY, alpha=1.0, anchor=np.array([2.0, 2.0]), beta=1e-300)
        z = np.array([1.0, 3.0])
        with pytest.raises(NonsmoothPointError):
            _oracle_rho_jacobian(IDENTITY, ctx, 0.5, z)
        with pytest.raises(NonsmoothPointError):
            ctx.rho_jacobian(0.5, z)
        assert np.array_equal(ctx.rho_jacobian(1.0, z),
                              _oracle_rho_jacobian(IDENTITY, ctx, 1.0, z))


@st.composite
def _monotone_lcp_cases(draw):
    n = draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0)
    B = draw(arrays(float, (n, n), elements=unit))
    q = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    beta = draw(st.floats(0.5, 2.0))
    anchor = beta + draw(arrays(float, 2 * n, elements=st.floats(0.0, 2.0)))
    alpha = draw(st.floats(0.01, 10.0))
    lam = draw(st.floats(0.0, 0.99))
    z = draw(arrays(float, 2 * n, elements=st.floats(-2.0, 2.0)))
    inst = lcp_instance(B.T @ B + np.eye(n), q)
    return NcpHomotopy(inst, alpha=alpha, anchor=anchor, beta=beta), lam, z


class TestJacobianProperty:
    @settings(max_examples=200, deadline=None)
    @given(_monotone_lcp_cases())
    def test_matches_central_differences(self, case):
        ctx, lam, z = case
        jac = ctx.rho_jacobian(lam, z)
        m = z.shape[0]
        fd = np.empty_like(jac)
        for j in range(m):
            e = np.zeros(m)
            e[j] = 1e-6 * (1.0 + abs(z[j]))
            fd[:, j + 1] = (ctx.rho(lam, z + e) - ctx.rho(lam, z - e)) / (2.0 * e[j])
        h = 1e-6
        fd[:, 0] = (ctx.rho(lam + h, z) - ctx.rho(lam - h, z)) / (2.0 * h)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))
