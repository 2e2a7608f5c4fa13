"""Sampling spot-checks of the convergence theory's preconditions.

The hypotheses quantify over all of R^n, so a sampler can only falsify them.
A passing report therefore means "no violation found in N samples", never
"verified"; a failing report always carries a concrete witness point that
re-evaluates to the reported violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import Problem, check_alpha, check_positive, eval_F, jacobian, vector_norm

Array = np.ndarray

# stacked Jacobian entries per batched SVD in check_assumption1 (8 MB)
_BLOCK_FLOATS = 1 << 20
_SIGMA_FLOOR = 1e-10


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


def _box(problem: Problem) -> Array:
    """The problem's sampling box, [-10, 10] in every coordinate when it has
    none."""
    box = problem.box  # Problem keeps it as a (dim, 2) float array
    if box is None:
        return np.tile(np.array([-10.0, 10.0]), (problem.dim, 1))
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box upper bounds must exceed lower bounds")
    return box


def check_assumption1(problem: Problem, alpha: float, n_samples: int,
                      seed: int = 0) -> HypothesisReport:
    """Sample sigma_min(F'(x) + alpha I) over problem.box, for a finite
    alpha > 0; fails on any near-singular hit.

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
    shift = check_alpha(alpha) * np.eye(problem.dim)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    box = _box(problem)
    rng = np.random.default_rng(seed)
    points = rng.uniform(box[:, 0], box[:, 1], size=(n_samples, problem.dim))
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
        shifted += shift
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


def check_start_ball(problem: Problem, alpha: float, a: Array, M: float) -> HypothesisReport:
    """Check that a + F(a) / alpha lies inside the radius-M ball of the norm
    sqrt(alpha) |x|_2, for a finite alpha > 0.  With s = sqrt(alpha) the
    point is a + F(a) / s / s, the bits of LAPACK's two solves with the
    Cholesky factor s I of alpha I; a point that overflows has norm inf."""
    s = math.sqrt(check_alpha(alpha))
    check_positive(M, "M")
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        shifted = a + eval_F(problem, a) / s / s
        value = vector_norm(s * shifted)
    return HypothesisReport(
        name="start_point_ball",
        passed=bool(value < M),
        worst_value=value,
        worst_witness=(shifted,),
        samples=1,
        seed=0,
        note=f"norm {value:.6g} vs radius {M:g}",
    )
