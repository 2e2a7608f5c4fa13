import numpy as np

from homtrack import (PolishConfig, Problem, eval_F, merit_descent,
                      newton_polish, registry_get, to_problem)

SQUARE = Problem(dim=1, f=lambda x: x * x - 4.0, jac=lambda x: np.array([[2.0 * x[0]]]),
                 name="square")
LINE = Problem(dim=1, f=lambda x: x - 2.0, jac=lambda x: np.eye(1), name="line")


def theta(problem, x):
    f = eval_F(problem, np.atleast_1d(np.asarray(x, dtype=float)))
    return 0.5 * float(f @ f)


class TestNewtonPolish:
    def test_square_root_from_three(self):
        res = newton_polish(SQUARE, np.array([3.0]))
        assert res.converged
        assert res.iterations <= 8
        assert abs(res.x[0] - 2.0) <= 1e-12

    def test_zero_iterations_at_root(self):
        res = newton_polish(LINE, np.array([2.0]))
        assert res.converged and res.iterations == 0

    def test_ex2_from_table_endpoint(self):
        p = registry_get("ex2")
        res = newton_polish(p, np.array([-0.7280, -0.7346]))
        assert res.converged
        np.testing.assert_allclose(res.x, [-0.73908513, -0.67361202], atol=1e-7)

    def test_converged_implies_residual_bound(self):
        cfg = PolishConfig(tol=1e-12)
        for x0 in (3.0, -5.0, 0.5):
            res = newton_polish(SQUARE, np.array([x0]), cfg)
            if res.converged:
                assert np.max(np.abs(eval_F(SQUARE, res.x))) <= cfg.tol

    def test_merit_never_increases(self):
        res = newton_polish(SQUARE, np.array([3.0]))
        assert theta(SQUARE, res.x) <= theta(SQUARE, 3.0)

    def test_singular_jacobian_fails_gracefully(self):
        p = Problem(dim=1, f=lambda x: x * x - 1.0, jac=lambda x: np.array([[2.0 * x[0]]]),
                    name="flat")
        res = newton_polish(p, np.array([0.0]))
        assert not res.converged

    def test_undefined_jacobian_fails_gracefully(self):
        # the default complementarity anchor has x = y, a kink of the exact
        # (mu = 0) system where its Jacobian is undefined
        inst = registry_get("ncp-lin-20")
        res = newton_polish(to_problem(inst), np.full(2 * inst.dim, 2.0))
        assert not res.converged and res.iterations == 0

    def test_maxit_exceeded(self):
        cfg = PolishConfig(maxit=1)
        res = newton_polish(SQUARE, np.array([100.0]), cfg)
        assert not res.converged


class TestMeritDescent:
    def test_convex_reaches_root(self):
        res = merit_descent(LINE, np.array([0.0]))
        assert res.status == "root"
        assert abs(res.x[0] - 2.0) <= 1e-10

    def test_ex4_stalls_in_published_basin(self):
        # descent from 0.5 must get trapped at the nearby merit minimum
        p = registry_get("ex4")
        res = merit_descent(p, np.array([0.5]), PolishConfig(maxit=1000, tol=1e-3))
        assert res.status == "local_min"
        assert 0.15 <= res.x[0] <= 0.35
        assert np.max(np.abs(eval_F(p, res.x))) > 1e-3

    def test_ex4_inside_valley_finds_root(self):
        p = registry_get("ex4")
        res = merit_descent(p, np.array([0.001]), PolishConfig(maxit=1000, tol=1e-8))
        assert res.status == "root"
        assert abs(res.x[0]) <= 1e-8

    def test_monotone_in_merit(self):
        p = registry_get("ex4")
        vals = []
        for k in range(1, 7):
            res = merit_descent(p, np.array([0.5]), PolishConfig(maxit=k, tol=1e-14))
            vals.append(theta(p, res.x))
        assert all(b <= a + 1e-18 for a, b in zip(vals, vals[1:]))

    def test_maxit_status(self):
        p = registry_get("ex4")
        res = merit_descent(p, np.array([0.5]), PolishConfig(maxit=1, tol=1e-14))
        assert res.status == "maxit"


class TestNewtonPolishJacobianCount:
    def test_one_jacobian_per_iteration(self):
        calls = []

        def jac(x):
            calls.append(x.copy())
            return np.array([[3.0 * x[0] ** 2]])

        cube = Problem(dim=1, f=lambda x: x ** 3 - 8.0, jac=jac, name="cube")
        res = newton_polish(cube, np.array([3.0]))
        assert res.converged and abs(res.x[0] - 2.0) <= 1e-12
        assert res.iterations == 5
        assert len(calls) == res.iterations
