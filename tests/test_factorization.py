"""The trackers' one QR factorization per curve point: tangent, volume, rank
test and corrector step against the SVD and lstsq oracles, non-finite
Jacobians, and the reuse of field factorizations by the ODE tracker."""

import numpy as np
import pytest

from homtrack import (HomotopyMap, Problem, SpdMatrix, TrackerConfig,
                      normal_flow_correct, ode_track, pc_track, registry_get)
from homtrack.tracking import (STATUS_LINALG, STATUS_REACHED, RankDeficientError,
                               _min_norm_step, _null_and_volume)

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
