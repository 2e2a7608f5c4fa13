import dataclasses

import numpy as np
import pytest

from homtrack import Problem, check_assumption1, check_start_ball, registry_get
from homtrack import diagnostics
from homtrack.problems import DomainError, eval_F, jacobian
from homtrack.registry import TABLE_METHODS

IDENT = Problem(dim=1, f=lambda x: x, jac=lambda x: np.eye(1), name="ident")
NEG = Problem(dim=1, f=lambda x: -x, jac=lambda x: -np.eye(1), name="neg")


class TestAssumption1:
    def test_identity_passes_with_margin(self):
        rep = check_assumption1(IDENT, 1.0, n_samples=100)
        assert rep.passed
        assert rep.worst_value == pytest.approx(2.0, abs=1e-12)

    def test_exact_cancellation_fails(self):
        rep = check_assumption1(NEG, 1.0, n_samples=100)
        assert not rep.passed
        assert rep.worst_value <= 1e-10

    def test_ex1_with_large_shift(self):
        rep = check_assumption1(registry_get("ex1"), 50.0, n_samples=2000)
        assert rep.passed
        assert rep.worst_value >= 52.0 - 2.0 * np.pi - 1e-6

    def test_deterministic_given_seed(self):
        p = registry_get("ex2")
        alpha = 3.0
        r1 = check_assumption1(p, alpha, n_samples=500, seed=9)
        r2 = check_assumption1(p, alpha, n_samples=500, seed=9)
        assert r1.worst_value == r2.worst_value
        np.testing.assert_array_equal(r1.worst_witness[0], r2.worst_witness[0])

    def test_witness_reevaluates(self):
        rep = check_assumption1(NEG, 1.0, n_samples=50)
        x = rep.worst_witness[0]
        sig = np.linalg.svd(NEG.jac(x) + np.eye(1), compute_uv=False)[-1]
        assert sig == pytest.approx(rep.worst_value, abs=1e-14)


class TestStartBall:
    def test_ex1_inside_unit_ball(self):
        rep = check_start_ball(registry_get("ex1"), 50.0, np.zeros(1), M=1.0)
        assert rep.passed
        assert rep.worst_value == pytest.approx(np.sqrt(50.0) * 0.08, abs=1e-12)

    def test_small_radius_fails(self):
        rep = check_start_ball(registry_get("ex1"), 50.0, np.zeros(1), M=0.1)
        assert not rep.passed

    def test_overflowing_point_has_infinite_norm(self):
        # F(a) / alpha overflows for a subnormal alpha: no RuntimeWarning
        rep = check_start_ball(registry_get("ex1"), 1e-310, np.zeros(1), M=1.0)
        assert rep.worst_value == np.inf and not rep.passed

    def test_anchor_at_root_reduces_to_norm(self):
        p = Problem(dim=1, f=lambda x: x - 2.0, jac=lambda x: np.eye(1), name="line")
        rep = check_start_ball(p, 4.0, np.array([2.0]), M=10.0)
        assert rep.worst_value == pytest.approx(2.0 * 2.0, abs=1e-12)


def _start_ball_cholesky(problem, alpha, a):
    """The start-ball point and norm through the Cholesky factor
    L = sqrt(alpha) I of alpha I: two solves and |L^T x|_2."""
    L = np.sqrt(alpha) * np.eye(problem.dim)
    shifted = a + np.linalg.solve(L.T, np.linalg.solve(L, eval_F(problem, a)))
    return shifted, float(np.linalg.norm(L.T @ shifted))


class TestStartBallClosedForm:
    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    @pytest.mark.parametrize("alpha", [1e-3, 0.3, 1.0, 50.0, 75.0, 1e3])
    def test_bits_equal_cholesky_form(self, pid, alpha):
        # F(a) / s / s against LAPACK's two solves, which could have
        # multiplied by 1 / s: both the point and its norm, bit for bit
        p = registry_get(pid)
        rng = np.random.default_rng(int(1000 * alpha) + p.dim)
        anchors = [np.zeros(p.dim), *rng.uniform(p.box[:, 0], p.box[:, 1], (200, p.dim)),
                   *rng.uniform(-1.0, 1.0, (200, p.dim))]
        for a in anchors:
            rep = check_start_ball(p, alpha, a, M=1.0)
            shifted, value = _start_ball_cholesky(p, alpha, a)
            assert rep.worst_witness[0].tobytes() == shifted.tobytes()
            assert rep.worst_value == value


BAD_ALPHAS = [None, 0.0, -1.0, -0.0, np.nan, np.inf, -np.inf]


class TestAlphaContract:
    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_assumption1_rejects(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite, got"):
            check_assumption1(IDENT, alpha, n_samples=10)

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_start_ball_rejects(self, alpha):
        # before math.sqrt can raise its "math domain error"
        with pytest.raises(ValueError, match="alpha must be positive and finite, got"):
            check_start_ball(IDENT, alpha, np.zeros(1), M=1.0)


def _assumption1_loop(problem, alpha, n_samples, seed):
    """The per-sample reference: one SVD per sampled shifted Jacobian."""
    box = np.asarray(problem.box if problem.box is not None
                     else np.tile([-10.0, 10.0], (problem.dim, 1)), dtype=float)
    rng = np.random.default_rng(seed)
    worst, witness, skipped = np.inf, None, 0
    for x in rng.uniform(box[:, 0], box[:, 1], size=(n_samples, problem.dim)):
        try:
            shifted = jacobian(problem, x) + alpha * np.eye(problem.dim)
        except Exception:
            skipped += 1
            continue
        if not np.isfinite(shifted).all():  # overflowed in the shift
            skipped += 1
            continue
        sig = np.linalg.svd(shifted, compute_uv=False)
        if sig[-1] < worst:
            worst, witness = float(sig[-1]), x.copy()
    return worst, witness, skipped


def _half_defined(x):
    # defined on x[0] > 0 only: the other half of the samples is skipped
    if x[0] <= 0.0:
        raise DomainError("undefined")
    return np.array([[np.cos(x[0]), x[1]], [0.1 * x[0], -1.0]])


HALF = Problem(dim=2, f=lambda x: x, jac=_half_defined, name="half")


class TestAssumption1Batched:
    @pytest.mark.parametrize("pid,alpha", [("ex1", 0.001), ("ex1", 50.0), ("ex2", 0.001),
                                           ("ex2", 50.0), ("ex3", 50.0), ("ex4", 1.0),
                                           ("ex4", 75.0)])
    @pytest.mark.parametrize("block", [None, 7 * 9])
    def test_matches_per_sample_loop(self, pid, alpha, block, monkeypatch):
        if block is not None:  # several blocks, the last one partial
            monkeypatch.setattr(diagnostics, "_BLOCK_FLOATS", block)
        p = registry_get(pid)
        rep = check_assumption1(p, alpha, n_samples=500, seed=3)
        worst, witness, skipped = _assumption1_loop(p, alpha, 500, 3)
        assert rep.worst_value == worst
        np.testing.assert_array_equal(rep.worst_witness[0], witness)
        assert rep.skipped == skipped == 0

    @pytest.mark.parametrize("block", [None, 4 * 5])
    def test_skipped_samples_match_loop(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(diagnostics, "_BLOCK_FLOATS", block)
        alpha = 0.5
        rep = check_assumption1(HALF, alpha, n_samples=301, seed=4)
        worst, witness, skipped = _assumption1_loop(HALF, alpha, 301, 4)
        assert 0 < rep.skipped == skipped < 301
        assert rep.worst_value == worst
        np.testing.assert_array_equal(rep.worst_witness[0], witness)

    def test_overflowing_shift_matches_loop(self):
        # F'(x) + alpha I overflows to inf where x[0] > 0, which makes its SVD NaN:
        # such a sample is skipped and never becomes the witness
        p = Problem(dim=2, f=lambda x: x, name="huge",
                    jac=lambda x: np.diag([1.5e308 if x[0] > 0 else 1.0, 1.0]))
        alpha = 1e308
        with np.errstate(over="ignore"):
            rep = check_assumption1(p, alpha, n_samples=200, seed=6)
            worst, witness, skipped = _assumption1_loop(p, alpha, 200, 6)
        assert rep.skipped == skipped == 102  # the samples with x[0] > 0
        assert rep.worst_value == worst and np.isfinite(worst)
        np.testing.assert_array_equal(rep.worst_witness[0], witness)

    def test_nan_jacobian_everywhere_fails(self):
        p = Problem(dim=2, f=lambda x: x, jac=lambda x: np.full((2, 2), np.nan), name="nan")
        rep = check_assumption1(p, 1.0, n_samples=50)
        assert not rep.passed
        assert rep.skipped == 50
        assert "no sample was evaluated" in rep.note


def _patchy(x):
    # inf where x[0] > 0.5 and NaN where x[1] < -0.5: both skip the sample
    j01 = np.nan if x[1] < -0.5 else x[1]
    return np.array([[np.cos(x[0]), j01], [np.inf if x[0] > 0.5 else 0.1 * x[0], -1.0]])


def _patchy_block(x):
    out = np.empty((len(x), 2, 2))
    out[:, 0, 0] = np.cos(x[:, 0])
    out[:, 0, 1] = np.where(x[:, 1] < -0.5, np.nan, x[:, 1])
    out[:, 1, 0] = np.where(x[:, 0] > 0.5, np.inf, 0.1 * x[:, 0])
    out[:, 1, 1] = -1.0
    return out


def _half_defined_block(x):
    # raises on any block holding a sample where _half_defined raises
    if (x[:, 0] <= 0.0).any():
        raise DomainError("undefined")
    out = np.empty((len(x), 2, 2))
    out[:, 0, 0] = np.cos(x[:, 0])
    out[:, 0, 1] = x[:, 1]
    out[:, 1, 0] = 0.1 * x[:, 0]
    out[:, 1, 1] = -1.0
    return out


def _assert_same_report(rep, problem, alpha, n_samples, seed):
    """``rep`` matches the per-sample reference and the report without the
    block form."""
    worst, witness, skipped = _assumption1_loop(problem, alpha, n_samples, seed)
    assert rep.skipped == skipped
    assert rep.worst_value == worst
    np.testing.assert_array_equal(rep.worst_witness[0], witness)
    plain = check_assumption1(dataclasses.replace(problem, jac_block=None), alpha,
                              n_samples=n_samples, seed=seed)
    assert rep.to_dict() == plain.to_dict()


NFPH_ROWS = [(pid, alpha) for pid, methods in TABLE_METHODS.items()
             for method, alpha in methods if method == "nfph"]


class TestAssumption1Block:
    @pytest.mark.parametrize("pid", ["ex1", "ex2", "ex3", "ex4"])
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_block_matches_per_sample_jacobian(self, pid, seed):
        # ulps rather than equality: numpy picks its sin/cos kernels by CPU
        p = registry_get(pid)
        x = np.random.default_rng(seed).uniform(p.box[:, 0], p.box[:, 1], size=(2000, p.dim))
        block = p.jac_block(x)
        assert block.shape == (2000, p.dim, p.dim)
        np.testing.assert_array_max_ulp(block, np.array([jacobian(p, xi) for xi in x]),
                                        maxulp=2)

    @pytest.mark.parametrize("pid,alpha", NFPH_ROWS)
    @pytest.mark.parametrize("seed", [0, 1, 401])
    def test_table_rows_report_unchanged(self, pid, alpha, seed):
        p = registry_get(pid)
        rep = check_assumption1(p, alpha, n_samples=2000, seed=seed)
        plain = check_assumption1(dataclasses.replace(p, jac_block=None), alpha,
                                  n_samples=2000, seed=seed)
        assert rep.to_dict() == plain.to_dict()

    @pytest.mark.parametrize("block", [None, 4 * 5])
    def test_nonfinite_entries_skip_like_loop(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(diagnostics, "_BLOCK_FLOATS", block)
        p = Problem(dim=2, f=lambda x: x, jac=_patchy, jac_block=_patchy_block, name="patchy")
        alpha = 0.5
        rep = check_assumption1(p, alpha, n_samples=301, seed=4)
        assert 0 < rep.skipped < 301
        _assert_same_report(rep, p, alpha, 301, 4)

    @pytest.mark.parametrize("block", [None, 4 * 5])
    def test_raising_block_falls_back_to_loop(self, block, monkeypatch):
        if block is not None:  # 5 samples a block: some evaluate, most raise
            monkeypatch.setattr(diagnostics, "_BLOCK_FLOATS", block)
        p = dataclasses.replace(HALF, jac_block=_half_defined_block)
        alpha = 0.5
        rep = check_assumption1(p, alpha, n_samples=301, seed=4)
        assert 0 < rep.skipped < 301
        _assert_same_report(rep, p, alpha, 301, 4)

    def test_wrong_block_shape_raises(self):
        p = dataclasses.replace(IDENT, jac_block=lambda x: np.ones((len(x), 1)))
        with pytest.raises(ValueError, match="block Jacobian returned shape"):
            check_assumption1(p, 1.0, n_samples=10)


def _assumption1_svd(problem, alpha, n_samples, seed):
    """The batched-SVD reference: the sampler's one block of shifted
    Jacobians, each reduced to its smallest singular value by the SVD."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(problem.box[:, 0], problem.box[:, 1], size=(n_samples, problem.dim))
    shifted = problem.jac_block(points) + alpha * np.eye(problem.dim)
    finite = np.isfinite(shifted).all(axis=(1, 2))
    sig = np.linalg.svd(shifted[finite], compute_uv=False)[:, -1]
    k = int(np.argmin(sig))
    return float(sig[k]), points[finite][k], n_samples - int(finite.sum())


class TestAssumption1Scalar:
    @pytest.mark.parametrize("pid,alpha", [row for row in NFPH_ROWS
                                           if registry_get(row[0]).dim == 1])
    def test_magnitude_equals_svd(self, pid, alpha):
        # a 1 x 1 shifted Jacobian's singular value is its magnitude; inside
        # about [6.7e-139, 1.5e138] dgesdd returns that magnitude exactly, so
        # the table rows' reports do not move by a bit
        p = registry_get(pid)
        for seed in range(40):
            rep = check_assumption1(p, alpha, n_samples=2000, seed=seed)
            worst, witness, skipped = _assumption1_svd(p, alpha, 2000, seed)
            assert rep.worst_value == worst
            np.testing.assert_array_equal(rep.worst_witness[0], witness)
            assert rep.skipped == skipped == 0
            assert rep.passed


def _counting_svd(monkeypatch):
    """Patch np.linalg.svd to count the matrices it is sent; returns the
    one-entry list that holds the count."""
    svd, sent = np.linalg.svd, [0]

    def counting(a, *args, **kwargs):
        sent[0] += int(np.prod(np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return sent


def _signed_zero_block(sign):
    """A 2 x 2 block Jacobian whose (0, 1) entry is a zero signed by
    ``sign(x)``; every other entry is constant."""
    def block(x):
        out = np.empty((len(x), 2, 2))
        out[:, 0, 0], out[:, 1, 0], out[:, 1, 1] = 1.0, 0.5, 1.0
        out[:, 0, 1] = np.copysign(0.0, sign(x))
        return out
    return block


class TestAssumption1ConstantBlock:
    @pytest.mark.parametrize("alpha", [0.001, 50.0])
    def test_affine_block_takes_one_svd(self, alpha, monkeypatch):
        # ex3 is linear: its 2000 shifted Jacobians are one matrix
        p = registry_get("ex3")
        sent = _counting_svd(monkeypatch)
        for seed in range(10):
            rep = check_assumption1(p, alpha, n_samples=2000, seed=seed)
            assert sent[0] == seed + 1
            worst, witness, skipped = _assumption1_loop(p, alpha, 2000, seed)
            sent[0] -= 2000  # the loop's own SVDs
            assert rep.worst_value == worst
            np.testing.assert_array_equal(rep.worst_witness[0], witness)
            assert rep.skipped == skipped == 0 and rep.passed

    def test_varying_block_takes_batched_svd(self, monkeypatch):
        sent = _counting_svd(monkeypatch)
        check_assumption1(registry_get("ex2"), 0.001, n_samples=2000)
        assert sent[0] == 2000

    @pytest.mark.parametrize("sign,svds", [
        pytest.param(lambda x: x[:, 0], 301, id="mixed-signs"),
        pytest.param(lambda x: -np.ones(len(x)), 1, id="one-sign")])
    def test_zero_signs_tell_matrices_apart(self, sign, svds, monkeypatch):
        # stacks differing only in the sign of a zero take the batched SVD
        mats = _signed_zero_block(sign)(np.random.default_rng(2).uniform(-1.0, 1.0, (301, 2)))
        sent = _counting_svd(monkeypatch)
        sig = diagnostics._sigma_min(mats)
        assert sent[0] == svds
        monkeypatch.undo()
        assert np.array_equal(sig, np.linalg.svd(mats, compute_uv=False)[:, -1])

    @pytest.mark.parametrize("sign", [
        pytest.param(lambda x: x[:, 0], id="mixed-signs"),
        pytest.param(lambda x: -np.ones(len(x)), id="one-sign")])
    def test_shift_erases_zero_signs(self, sign, monkeypatch):
        # 0.0 + -0.0 is 0.0: every F'(x) + alpha I of the block is one matrix
        block = _signed_zero_block(sign)
        p = Problem(dim=2, f=lambda x: x, jac=lambda x: block(x[None])[0],
                    jac_block=block, name="signed-zero")
        sent = _counting_svd(monkeypatch)
        rep = check_assumption1(p, 2.0, n_samples=301, seed=2)
        assert sent[0] == 1
        monkeypatch.undo()
        _assert_same_report(rep, p, 2.0, 301, 2)
