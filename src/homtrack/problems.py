"""Square nonlinear systems and the three homotopy maps.

The continuation machinery connects an easy start system at ``lam = 0`` to the
target system ``F`` at ``lam = 1``.  Three start maps are supported:

* ``nfph`` -- Newton/fixed-point blend: start system F(x) - F(a) + A(x - a)
  with the symmetric positive definite shift A = alpha I, alpha > 0,
* ``fph``  -- plain fixed-point: start system x - a,
* ``nh``   -- Newton homotopy: F(x) - (1 - lam) F(a).

All three agree with F at ``lam = 1`` through the same code path, and vanish
at ``(lam, x) = (0, a)`` up to exact floating-point cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

HOMOTOPY_KINDS = ("nfph", "fph", "nh")


class DomainError(ValueError):
    """A map evaluation produced a NaN or infinity."""


def all_finite(values: Array) -> bool:
    """Whether every entry of ``values`` is finite (True for an empty array).
    Counting the finite entries skips ndarray.all's Python wrapper and the
    ufunc reduction machinery, which cost more than the test itself on a
    small curve Jacobian, and sums nothing that finite entries could overflow."""
    return np.count_nonzero(np.isfinite(values)) == values.size


def _check_finite(values: Array, name: str, what: str) -> Array:
    """``values``, or a DomainError naming ``name``'s ``what``, its message
    formatted only on failure.  A curve point that evaluates cleanly never
    comes here (see ``HomotopyMap.rho_jacobian``)."""
    if not all_finite(values):
        idx = int(np.flatnonzero(~np.isfinite(values).ravel())[0])
        raise DomainError(f"{name}: {what} produced a non-finite entry at index {idx}")
    return values


@dataclass(frozen=True)
class Problem:
    """A square C^2 map F: R^n -> R^n with optional analytic Jacobian.

    ``box`` is per-coordinate bounds metadata used by the benchmark layer and
    the diagnostics sampler; it is never enforced during solves.

    ``jac_block`` is an optional block form of ``jac`` for the diagnostics
    sampler: it maps an ``(m, n)`` array of points to the ``(m, n, n)``
    array of their Jacobians, ``jac_block(X)[i] == jac(X[i])``.  Entries may
    be non-finite; the sampler skips such points as ``jacobian`` would.  A
    block call that raises makes the sampler evaluate that block point by
    point with ``jacobian``; a result of another shape is an error.  The
    trackers never call it.
    """

    dim: int
    f: Callable[[Array], Array]
    jac: Optional[Callable[[Array], Array]] = None
    name: str = "problem"
    box: Optional[Array] = None  # shape (dim, 2) rows of (lo, hi)
    jac_block: Optional[Callable[[Array], Array]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("problem dimension must be >= 1")
        if self.box is not None:
            box = np.asarray(self.box, dtype=float).reshape(self.dim, 2)
            object.__setattr__(self, "box", box)


def _eval_F(problem: Problem, x: Array) -> Array:
    """F(x), its shape validated but its entries not scanned."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"expected x of shape ({problem.dim},), got {x.shape}")
    out = np.asarray(problem.f(x), dtype=float)
    if out.shape != (problem.dim,):
        raise ValueError(f"{problem.name}: F returned shape {out.shape}")
    return out


def eval_F(problem: Problem, x: Array) -> Array:
    """Evaluate F(x), validating shape and finiteness."""
    return _check_finite(_eval_F(problem, x), problem.name, "F")


def fd_jacobian(problem: Problem, x: Array) -> Array:
    """Central-difference Jacobian of F at x.

    The step ``sqrt(eps) * (1 + |x|_inf)`` balances truncation against
    rounding so analytic and difference runs stay comparable.
    """
    x = np.asarray(x, dtype=float)
    h = np.sqrt(np.finfo(float).eps) * (1.0 + np.max(np.abs(x), initial=0.0))
    n = problem.dim
    jac = np.empty((n, n))
    for j in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (eval_F(problem, xp) - eval_F(problem, xm)) / (2.0 * h)
    return _check_finite(jac, problem.name, "finite-difference Jacobian")


def _jacobian(problem: Problem, x: Array) -> Array:
    """The analytic Jacobian, its shape validated but its entries not
    scanned, or the finite-difference one, which is checked."""
    if problem.jac is None:
        return fd_jacobian(problem, x)
    x = np.asarray(x, dtype=float)
    out = np.asarray(problem.jac(x), dtype=float)
    if out.shape != (problem.dim, problem.dim):
        raise ValueError(f"{problem.name}: Jacobian returned shape {out.shape}")
    return out


def jacobian(problem: Problem, x: Array) -> Array:
    """Analytic Jacobian when available, finite differences otherwise,
    validating shape and finiteness.  Square-system curve points build on the
    unscanned ``_jacobian`` and come here only through ``HomotopyMap.check_domain``."""
    return _check_finite(_jacobian(problem, x), problem.name, "Jacobian")


def vector_norm(x: Array) -> float:
    """|x|_2 of a 1-D float x, as a Python float, without overflowing.

    It is np.linalg.norm's own formula sqrt(x . x) wherever x . x is finite,
    with the same bits.  x . x overflows to inf once |x| exceeds about
    1.34e154; a finite x then gets max|x| * |x / max|x||_2 instead.
    """
    with np.errstate(over="ignore"):
        sq = x.dot(x)
    if sq == math.inf and np.isfinite(x).all():
        big = np.max(np.abs(x))
        y = x / big
        return float(big * math.sqrt(y.dot(y)))
    return math.sqrt(sq)


def residual_scale(x: Array) -> float:
    """1 + |x|_2 for a 1-D float x (``vector_norm``), the divisor of every
    scaled residual."""
    return 1.0 + vector_norm(x)


def scaled_residual(problem: Problem, x: Array) -> Array:
    """F(x) / (1 + |x|_2), the residual scale used for candidate acceptance.

    Its infinity norm is the scalar merit reported as fhom/fnew in benchmark
    tables.
    """
    x = np.asarray(x, dtype=float)
    return eval_F(problem, x) / residual_scale(x)


def check_alpha(alpha) -> float:
    """The scale of the shift alpha I as a float, for a finite alpha > 0: the
    shift is then symmetric positive definite."""
    if alpha is None or not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return float(alpha)


@dataclass(frozen=True)
class HomotopyMap:
    """One of the three homotopy maps, bound to a problem and an anchor.

    F(a) is evaluated once at construction and reused; the anchor identity
    rho(0, a) = 0 then holds by exact cancellation.  ``alpha`` scales nfph's
    shift alpha I; fph and nh take None.
    """

    kind: str
    problem: Problem
    anchor: Array
    alpha: Optional[float] = None
    f_anchor: Array = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in HOMOTOPY_KINDS:
            raise ValueError(f"unknown homotopy kind {self.kind!r}")
        anchor = np.asarray(self.anchor, dtype=float)
        if anchor.shape != (self.problem.dim,):
            raise ValueError("anchor length must equal the problem dimension")
        object.__setattr__(self, "anchor", anchor)
        if self.kind == "nfph":
            object.__setattr__(self, "alpha", check_alpha(self.alpha))
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} does not take a shift alpha, got {self.alpha}")
        # a huge anchor overflows here; eval_F's finiteness check turns that
        # into a DomainError, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "f_anchor", eval_F(self.problem, anchor))

    @property
    def dim(self) -> int:
        return self.problem.dim

    def rho(self, lam: float, x: Array) -> Array:
        """Evaluate rho(lam, x) for the map's kind.

        lam = 1 short-circuits to a plain F evaluation so the endpoint
        identity is structural rather than a floating-point coincidence.  The
        nominal range is [0, 1], but the formulas extend smoothly and trackers
        evaluate them outside it: integration is never clamped, so paths may
        overshoot 1 or dip below 0 before the crossing is extracted.
        """
        if not np.isfinite(lam):  # an RK45 stage can overflow lam
            raise DomainError(f"lambda must be finite, got {lam}")
        fx = eval_F(self.problem, x)
        if lam == 1.0:
            return fx
        x = np.asarray(x, dtype=float)
        if self.kind == "nfph":
            return fx + (1.0 - lam) * (self.alpha * (x - self.anchor) - self.f_anchor)
        if self.kind == "fph":
            return lam * fx + (1.0 - lam) * (x - self.anchor)
        return fx - (1.0 - lam) * self.f_anchor  # nh

    def rho_jacobian(self, lam: float, x: Array) -> Array:
        """Full Jacobian of rho as the n x (n+1) block [d rho/d lam | d rho/dx].

        The lambda column comes first, in the (lam, x) order of the trackers'
        points and tangents, so they factorize this array as it is.  Every
        kind writes both blocks into one fresh buffer.  F' (and, for fph, F)
        enter unscanned, so a non-finite one leaves a non-finite entry here
        instead of raising: the factorization's scan finds it, and
        ``check_domain`` then types it.  Only fph's start, where lam = 0
        would turn an infinite F' into NaN with a numpy warning, checks F'
        first.
        """
        if not math.isfinite(lam):
            raise DomainError(f"lambda must be finite, got {lam}")
        x = np.asarray(x, dtype=float)
        n = self.problem.dim
        out = np.empty((n, n + 1))
        jx_f = _jacobian(self.problem, x)
        if self.kind == "nh":
            out[:, 1:] = jx_f
            out[:, 0] = self.f_anchor
            return out
        diag = out.reshape(-1)[1::n + 2]  # the diagonal of d rho/dx
        if self.kind == "nfph":
            out[:, 1:] = jx_f
            diag += (1.0 - lam) * self.alpha
            np.subtract(self.f_anchor, self.alpha * (x - self.anchor), out=out[:, 0])
        else:  # fph
            if lam == 0.0:
                _check_finite(jx_f, self.problem.name, "Jacobian")
            np.multiply(jx_f, lam, out=out[:, 1:])
            diag += 1.0 - lam
            np.subtract(_eval_F(self.problem, x), x - self.anchor, out=out[:, 0])
        return out

    def check_domain(self, lam: float, x: Array) -> None:
        """Run at x the checked evaluations ``rho_jacobian`` skips: F', and
        F for fph.  The trackers call it only for a curve Jacobian that
        failed the factorization's scan; when it returns, the shift or the
        lambda column overflowed."""
        jacobian(self.problem, x)
        if self.kind == "fph":
            eval_F(self.problem, x)

    def curve_system(self, lam: float, x: Array):
        """The trackers' system at (lam, x): the curve Jacobian itself, whose
        lift is the identity (None)."""
        return self.rho_jacobian(lam, x), None
