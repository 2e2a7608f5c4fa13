import math

import numpy as np
import pytest

from homtrack import (DomainError, HomotopyMap, Problem, eval_F, eval_homotopy,
                      fd_jacobian, homotopy_jacobian, jacobian, registry_get,
                      scaled_residual)

RNG = np.random.default_rng(42)

BENCH_IDS = ("ex1", "ex2", "ex3", "ex4")


def _bench_map(kind, pid, alpha=7.0):
    p = registry_get(pid)
    return HomotopyMap(kind=kind, problem=p, anchor=np.zeros(p.dim),
                       alpha=alpha if kind == "nfph" else None)


class TestEvalF:
    def test_ex1_root(self):
        p = registry_get("ex1")
        assert abs(eval_F(p, np.array([2.0]))[0]) <= 1e-12

    def test_ex3_constants(self):
        p = registry_get("ex3")
        np.testing.assert_array_equal(eval_F(p, np.zeros(3)), [-5.0, -7.0, -4.0])

    def test_ex2_origin(self):
        p = registry_get("ex2")
        np.testing.assert_array_equal(eval_F(p, np.zeros(2)), [-1.0, 0.0])

    def test_nonfinite_raises_with_index(self):
        p = Problem(dim=2, f=lambda x: np.array([x[0], np.inf]), name="bad")
        with pytest.raises(DomainError) as err:
            eval_F(p, np.array([1.0, 0.0]))
        assert err.value.index == 1

    def test_shape_mismatch(self):
        p = registry_get("ex2")
        with pytest.raises(ValueError):
            eval_F(p, np.zeros(3))


class TestFdJacobian:
    def test_square(self):
        p = Problem(dim=1, f=lambda x: x * x, name="square")
        assert abs(fd_jacobian(p, np.array([3.0]))[0, 0] - 6.0) <= 1e-6

    def test_ex3_constant_matrix(self):
        p = registry_get("ex3")
        for _ in range(3):
            x = RNG.uniform(-5, 5, 3)
            np.testing.assert_allclose(fd_jacobian(p, x), p.jac(x), atol=1e-8)

    def test_ex1_at_zero(self):
        p = registry_get("ex1")
        assert abs(fd_jacobian(p, np.zeros(1))[0, 0] - (2 + 2 * np.pi)) <= 1e-5

    def test_bad_step(self):
        p = registry_get("ex1")
        with pytest.raises(ValueError):
            fd_jacobian(p, np.zeros(1), h=0.0)


class TestHomotopyMaps:
    def test_start_identity_exact(self):
        for pid in BENCH_IDS:
            for kind in ("nfph", "fph", "nh"):
                m = _bench_map(kind, pid)
                assert np.linalg.norm(eval_homotopy(m, 0.0, m.anchor)) == 0.0

    def test_endpoint_identity_bitwise(self):
        for pid in BENCH_IDS:
            p = registry_get(pid)
            for kind in ("nfph", "fph", "nh"):
                m = _bench_map(kind, pid)
                for _ in range(10):
                    x = RNG.uniform(-3, 3, p.dim)
                    np.testing.assert_array_equal(eval_homotopy(m, 1.0, x), eval_F(p, x))

    def test_nfph_worked_example(self):
        m = _bench_map("nfph", "ex1", alpha=50.0)
        assert eval_homotopy(m, 0.5, np.array([1.0]))[0] == pytest.approx(25.0, abs=1e-12)

    def test_nfph_requires_A(self):
        p = registry_get("ex1")
        with pytest.raises(ValueError):
            HomotopyMap(kind="nfph", problem=p, anchor=np.zeros(1))

    def test_others_reject_A(self):
        p = registry_get("ex1")
        with pytest.raises(ValueError):
            HomotopyMap(kind="nh", problem=p, anchor=np.zeros(1), alpha=1.0)

    @pytest.mark.parametrize("alpha", [None, 0.0, -1.0, -0.0, np.nan, np.inf, -np.inf])
    def test_nfph_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite, got"):
            HomotopyMap(kind="nfph", problem=registry_get("ex1"), anchor=np.zeros(1),
                        alpha=alpha)

    @pytest.mark.parametrize("kind", ["fph", "nh"])
    @pytest.mark.parametrize("alpha", [1.0, 0.0, np.nan])
    def test_others_reject_any_alpha(self, kind, alpha):
        with pytest.raises(ValueError, match="does not take a shift alpha"):
            HomotopyMap(kind=kind, problem=registry_get("ex1"), anchor=np.zeros(1),
                        alpha=alpha)

    def test_nfph_alpha_is_a_float(self):
        m = HomotopyMap(kind="nfph", problem=registry_get("ex1"), anchor=np.zeros(1),
                        alpha=np.float64(2))
        assert type(m.alpha) is float and m.alpha == 2.0

    def test_anchor_length_checked(self):
        p = registry_get("ex2")
        with pytest.raises(ValueError):
            HomotopyMap(kind="fph", problem=p, anchor=np.zeros(3))


class TestHomotopyJacobian:
    def test_nfph_at_endpoint(self):
        m = _bench_map("nfph", "ex2", alpha=3.0)
        x = np.array([0.4, -0.2])
        jac = homotopy_jacobian(m, 1.0, x)
        np.testing.assert_allclose(jac[:, 1:], m.problem.jac(x), atol=1e-14)
        np.testing.assert_allclose(jac[:, 0], m.f_anchor - 3.0 * x, atol=1e-14)

    def test_fph_scalar_example(self):
        p = Problem(dim=1, f=lambda x: x - 2.0, jac=lambda x: np.eye(1), name="line")
        m = HomotopyMap(kind="fph", problem=p, anchor=np.zeros(1))
        jac = homotopy_jacobian(m, 0.5, np.array([1.0]))
        np.testing.assert_allclose(jac, [[-2.0, 1.0]], atol=1e-14)

    @pytest.mark.parametrize("pid", BENCH_IDS)
    @pytest.mark.parametrize("kind", ["nfph", "fph", "nh"])
    def test_matches_finite_differences(self, pid, kind):
        m = _bench_map(kind, pid)
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            lam = rng.uniform(0.02, 0.98)
            x = rng.uniform(-2, 2, m.dim)
            jac = homotopy_jacobian(m, lam, x)
            cols = [(eval_homotopy(m, lam + h, x) - eval_homotopy(m, lam - h, x)) / (2 * h)]
            for j in range(m.dim):
                e = np.zeros(m.dim)
                e[j] = h
                cols.append((eval_homotopy(m, lam, x + e) - eval_homotopy(m, lam, x - e)) / (2 * h))
            fd = np.array(cols).T
            scale = 1.0 + np.max(np.abs(jac))
            assert np.max(np.abs(jac - fd)) / scale <= 1e-5

    def test_nfph_start_nonsingular(self):
        for pid in BENCH_IDS:
            m = _bench_map("nfph", pid, alpha=50.0)
            block = jacobian(m.problem, m.anchor) + m.alpha * np.eye(m.dim)
            assert np.linalg.svd(block, compute_uv=False)[-1] > 1e-10


class TestScaledResidual:
    def test_zero_at_root(self):
        p = registry_get("ex1")
        assert np.max(np.abs(scaled_residual(p, np.array([2.0])))) <= 1e-12

    def test_scalar_arithmetic(self):
        p = Problem(dim=1, f=lambda x: x - 2.0, name="line")
        assert scaled_residual(p, np.array([3.0]))[0] == pytest.approx(0.25, abs=1e-14)

    def test_ex2_table_magnitude(self):
        # residual at a published solver endpoint lands at the table's scale
        p = registry_get("ex2")
        val = np.max(np.abs(scaled_residual(p, np.array([-0.72803942, -0.73465009]))))
        assert 1e-2 < val < 1e-1
        assert val == pytest.approx(3.428826e-2, abs=1e-4)

    @pytest.mark.parametrize("x", [[1e160], [1e160, -1e160], [3e200, 1.0, -2e199], [1e300]])
    def test_scale_survives_norm_overflow(self, x):
        # |x|^2 overflows, so the plain norm is inf and the residual was 0
        x = np.array(x)
        p = Problem(dim=x.size, f=lambda v: 2.0 * v, name="double")
        with np.errstate(over="ignore"):
            assert np.linalg.norm(x) == np.inf
        expected = 2.0 * x / (1.0 + math.hypot(*x))
        np.testing.assert_allclose(scaled_residual(p, x), expected, rtol=1e-15, atol=0.0)

    def test_scale_keeps_plain_norm_bits(self):
        p = Problem(dim=3, f=lambda v: np.sin(v) + v, name="sine")
        for scale in (1e-300, 1e-5, 1.0, 1e8, 1e150):
            for _ in range(200):
                x = scale * RNG.normal(size=3)
                assert np.array_equal(scaled_residual(p, x),
                                      eval_F(p, x) / (1.0 + np.linalg.norm(x)))


def _oracle_homotopy_jacobian(hmap, lam, x):
    """[d rho/d lam | d rho/dx] stacked from separate blocks, kept as an
    oracle for the one-buffer assembly."""
    jx_f = jacobian(hmap.problem, x)
    if hmap.kind == "nfph":
        A = hmap.alpha * np.eye(hmap.dim)
        jx = jx_f + (1.0 - lam) * A
        jlam = hmap.f_anchor - A @ (x - hmap.anchor)
    elif hmap.kind == "fph":
        jx = lam * jx_f + (1.0 - lam) * np.eye(hmap.dim)
        jlam = eval_F(hmap.problem, x) - (x - hmap.anchor)
    else:
        jx = jx_f
        jlam = hmap.f_anchor.copy()
    return np.hstack([jlam.reshape(-1, 1), jx])


class TestHomotopyJacobianOneBuffer:
    @pytest.mark.parametrize("pid", BENCH_IDS)
    @pytest.mark.parametrize("kind", ["nfph", "fph", "nh"])
    def test_equals_block_oracle(self, pid, kind):
        rng = np.random.default_rng(11)
        p = registry_get(pid)
        m = HomotopyMap(kind=kind, problem=p, anchor=rng.uniform(-1.0, 1.0, p.dim),
                        alpha=7.0 if kind == "nfph" else None)
        for lam in [0.0, 1.0, *rng.uniform(-0.2, 1.1, 8)]:
            x = rng.uniform(-2.0, 2.0, p.dim)
            assert np.array_equal(homotopy_jacobian(m, lam, x),
                                  _oracle_homotopy_jacobian(m, lam, x))

    @pytest.mark.parametrize("kind", ["nfph", "fph", "nh"])
    def test_fresh_array_per_call(self, kind):
        m = _bench_map(kind, "ex3")
        x = np.array([0.3, -0.1, 0.7])
        assert not np.shares_memory(homotopy_jacobian(m, 0.4, x),
                                    homotopy_jacobian(m, 0.4, x))
