"""Sampling spot-checks of the convergence theory's preconditions.

The hypotheses quantify over all of R^n, so a sampler can only falsify them.
A passing report therefore means "no violation found in N samples", never
"verified"; a failing report always carries a concrete witness point that
re-evaluates to the reported violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .problems import Problem, SpdMatrix, a_norm, eval_F, jacobian

Array = np.ndarray

DEFAULT_SAMPLES = 10_000
# stacked Jacobian entries per batched SVD in check_assumption1 (8 MB)
_BLOCK_FLOATS = 1 << 20
_SIGMA_FLOOR = 1e-10
_NEG_TOL = 1e-12


@dataclass(frozen=True)
class HypothesisReport:
    name: str
    passed: bool
    worst_value: float
    worst_witness: tuple
    samples: int
    seed: int
    skipped: int = 0
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst_value": float(self.worst_value),
            "worst_witness": [np.asarray(w, dtype=float).tolist() for w in self.worst_witness],
            "samples": int(self.samples),
            "seed": int(self.seed),
            "skipped": int(self.skipped),
            "note": self.note,
        }


def _default_box(dim: int, box: Optional[Array]) -> Array:
    if box is None:
        return np.tile(np.array([-10.0, 10.0]), (dim, 1))
    box = np.asarray(box, dtype=float).reshape(dim, 2)
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box upper bounds must exceed lower bounds")
    return box


def _sample(rng, box: Array, count: int) -> Array:
    return rng.uniform(box[:, 0], box[:, 1], size=(count, box.shape[0]))


def check_assumption1(problem: Problem, A: SpdMatrix, box: Optional[Array] = None,
                      n_samples: int = DEFAULT_SAMPLES, seed: int = 0) -> HypothesisReport:
    """Sample sigma_min(F'(x) + A) over the box; fails on any near-singular hit.

    Samples whose Jacobian cannot be evaluated, or whose shifted Jacobian is
    not finite, are skipped, and a report with no evaluated sample fails.
    The samples go in blocks of _BLOCK_FLOATS Jacobian entries.  A block's
    Jacobians come from one ``problem.jac_block`` call when the problem has
    one, and from one ``jacobian`` call per sample when it has none or the
    block call raises; a sample whose ``jacobian`` raises gets a row of NaN.
    A sample with a non-finite entry is skipped.  Each block's shifted
    Jacobians go through one batched SVD, or, for n = 1, give their
    magnitudes; a block whose finite shifted Jacobians are all bitwise equal
    (an affine problem's, as ex3's) takes the SVD of the first alone, whose
    smallest singular value is the batch's for every sample.  The witness is
    the first sample attaining the minimum.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    box = _default_box(problem.dim, box if box is not None else problem.box)
    rng = np.random.default_rng(seed)
    points = _sample(rng, box, n_samples)
    block = max(1, _BLOCK_FLOATS // problem.dim ** 2)
    mats = np.empty((min(block, n_samples), problem.dim, problem.dim))
    worst = np.inf
    witness = None
    skipped = 0
    for start in range(0, n_samples, block):
        stop = min(start + block, n_samples)
        shifted = mats[:stop - start]
        if not _block_jacobians(problem, points[start:stop], mats):
            for row, x in zip(shifted, points[start:stop]):
                try:
                    row[:] = jacobian(problem, x)
                except Exception:
                    row[:] = np.nan
        shifted += A.mat
        # the SVD of a matrix with a non-finite entry, or of one that
        # overflowed in the shift, is NaN, not an error
        finite = np.isfinite(shifted).all(axis=(1, 2))
        skipped += len(finite) - int(finite.sum())
        if not finite.any():
            continue
        rows = np.arange(start, stop)[finite]
        if problem.dim == 1:
            # a 1 x 1 matrix's singular value is its magnitude
            sig = np.abs(shifted[finite, 0, 0])
        else:
            sig = _sigma_min(shifted[finite])
        k = int(np.argmin(sig))
        if sig[k] < worst:
            worst = float(sig[k])
            witness = points[rows[k]].copy()
    if witness is None:
        note = "no sample was evaluated"
    elif worst > _SIGMA_FLOOR:
        note = "no violation found in sampled points"
    else:
        note = "near-singular sample"
    return HypothesisReport(
        name="assumption1_shifted_jacobian_nonsingular",
        passed=bool(witness is not None and worst > _SIGMA_FLOOR),
        worst_value=worst,
        worst_witness=(witness,),
        samples=n_samples,
        seed=seed,
        skipped=skipped,
        note=note,
    )


def _sigma_min(mats: Array) -> Array:
    """The smallest singular value of each matrix of the stack ``mats``, from
    one SVD when they are bitwise equal (-0.0 is not 0.0): numpy runs the
    same LAPACK routine on each matrix of a batch, so that value is the
    batch's bit for bit."""
    bits = mats.view(np.uint64)
    if (bits == bits[0]).all():
        return np.full(len(mats), np.linalg.svd(mats[0], compute_uv=False)[-1])
    return np.linalg.svd(mats, compute_uv=False)[:, -1]


def _block_jacobians(problem: Problem, points: Array, mats: Array) -> bool:
    """Write the Jacobians at ``points`` into the leading rows of ``mats``
    with one ``jac_block`` call; False when there is none or it raised."""
    if problem.jac_block is None:
        return False
    try:
        out = problem.jac_block(points)
    except Exception:
        return False
    shape, expected = np.shape(out), (len(points), problem.dim, problem.dim)
    if shape != expected:
        raise ValueError(f"{problem.name}: block Jacobian returned shape {shape}, "
                         f"expected {expected}")
    mats[:len(points)] = out
    return True


def check_start_ball(problem: Problem, A: SpdMatrix, a: Array, M: float) -> HypothesisReport:
    """Check that a + A^{-1} F(a) lies inside the radius-M ball in the
    A^(1/2) norm."""
    if not 0 < M < np.inf:
        raise ValueError(f"M must be positive and finite, got {M}")
    a = np.asarray(a, dtype=float)
    shifted = a + A.solve(eval_F(problem, a))
    value = a_norm(A, shifted)
    return HypothesisReport(
        name="start_point_ball",
        passed=bool(value < M),
        worst_value=value,
        worst_witness=(shifted,),
        samples=1,
        seed=0,
        note=f"norm {value:.6g} vs radius {M:g}",
    )


def check_gen_monotone(f: Callable[[Array], Array], dim: int, delta: float,
                       box: Optional[Array] = None, n_pairs: int = DEFAULT_SAMPLES,
                       seed: int = 0) -> HypothesisReport:
    """Sample pairs at distance >= delta and test (x - y)^T (f(x) - f(y)) >= 0.

    Pairs drawn closer than delta are pushed apart along their chord, which
    may leave the box; only f values at the two points matter.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    box = _default_box(dim, box)
    rng = np.random.default_rng(seed)
    worst = np.inf
    witness = None
    for _ in range(n_pairs):
        x = rng.uniform(box[:, 0], box[:, 1])
        y = rng.uniform(box[:, 0], box[:, 1])
        gap = np.linalg.norm(x - y)
        if gap == 0.0:
            continue
        if gap < delta:
            y = x + (y - x) * (delta / gap)
        val = float((x - y) @ (np.asarray(f(x)) - np.asarray(f(y))))
        if val < worst:
            worst = val
            witness = (x.copy(), y.copy())
    return HypothesisReport(
        name="generalized_monotonicity",
        passed=bool(worst >= -_NEG_TOL),
        worst_value=worst,
        worst_witness=witness,
        samples=n_pairs,
        seed=seed,
        note=f"pair separation >= {delta:g}",
    )


def check_pseudo_monotone(problem: Problem, root: Array, box: Optional[Array] = None,
                          n_samples: int = DEFAULT_SAMPLES, seed: int = 0) -> HypothesisReport:
    """Post-hoc check anchored at a found root: (x - r)^T F(x) >= 0 sampled
    over the box.  Only meaningful after a solve, since the anchor point must
    be a solution."""
    root = np.asarray(root, dtype=float)
    box = _default_box(problem.dim, box if box is not None else problem.box)
    rng = np.random.default_rng(seed)
    worst = np.inf
    witness = None
    for x in _sample(rng, box, n_samples):
        val = float((x - root) @ eval_F(problem, x))
        if val < worst:
            worst = val
            witness = x.copy()
    return HypothesisReport(
        name="pseudo_monotone_at_root",
        passed=bool(worst >= -_NEG_TOL),
        worst_value=worst,
        worst_witness=(witness,),
        samples=n_samples,
        seed=seed,
    )
