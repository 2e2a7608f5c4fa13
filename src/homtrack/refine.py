"""Newton polishing of tracker candidates and a merit-descent baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .problems import DomainError, Problem, check_positive, eval_F, jacobian, vector_norm

Array = np.ndarray

# the polish converges once |F|_inf <= POLISH_TOL, and gives up after
# POLISH_MAXIT Newton steps; merit descent takes them as its defaults
POLISH_TOL = 1e-12
POLISH_MAXIT = 50

# the line search backtracks by _LS_FACTOR at most _LS_MAX times, with Armijo
# constant _ARMIJO on theta(x) = |F(x)|^2 / 2
_ARMIJO = 1e-4
_LS_FACTOR = 0.5
_LS_MAX = 30
_GRAD_STALL = 1e-8
# bound on the Gauss-Newton step length in merit descent; without a cap the
# descent iterate can leapfrog the nearest merit basin, which defeats the
# point of a stalls-where-descent-methods-stall baseline
_STEP_CAP = 0.5


@dataclass(frozen=True)
class PolishResult:
    x: Array
    iterations: int
    converged: bool


@dataclass(frozen=True)
class MeritResult:
    x: Array
    status: str  # "root" | "local_min" | "maxit"
    iterations: int


def merit(f: Array, scale: float) -> float:
    """theta = |scale F|^2 / 2 for F's value f, the merit of the polish, of
    merit descent and of ``homtrack merit``; inf where it overflows."""
    f = scale * f
    with np.errstate(over="ignore"):
        return 0.5 * float(f @ f)


def _armijo_start(f: Array, grad: Array, d: Array) -> Tuple[float, float, float]:
    """(scale, theta, slope) at an iterate with F = f, theta's gradient
    ``grad`` = F'^T f and the search direction d, for the Armijo test
    theta(x + t d) <= theta + c t slope.

    ``scale`` is 1 while theta is finite.  Once |f|^2 overflows it is 2^-e,
    for max|f| = m 2^e with 0.5 <= m < 1, and theta and the slope belong to
    scale F instead: both sides of the test gain the same factor scale^2,
    which a power of two applies exactly, so the test decides as it would in
    exact arithmetic instead of comparing inf with inf - inf."""
    scale = 1.0
    theta = merit(f, scale)
    if theta == math.inf:
        scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(f))))[1])
        theta = merit(f, scale)
    return scale, theta, float((scale * grad) @ (scale * d))


def newton_polish(problem: Problem, x0: Array) -> PolishResult:
    """Damped Newton on F with Armijo backtracking on the squared residual,
    for at most POLISH_MAXIT steps.

    Converged means |F|_inf <= POLISH_TOL.  A singular or undefined Jacobian,
    a non-finite Newton direction or a dead line search ends the run
    unconverged at the last iterate.
    """
    x = np.asarray(x0, dtype=float).copy()
    for it in range(POLISH_MAXIT):
        f = eval_F(problem, x)
        if np.max(np.abs(f)) <= POLISH_TOL:
            return PolishResult(x=x, iterations=it, converged=True)
        try:
            jac = jacobian(problem, x)
            d = np.linalg.solve(jac, -f)
        except (np.linalg.LinAlgError, DomainError):
            return PolishResult(x=x, iterations=it, converged=False)
        if not np.all(np.isfinite(d)):
            return PolishResult(x=x, iterations=it, converged=False)
        # slope = -|scale F|^2 for exact Newton
        scale, th0, slope = _armijo_start(f, jac.T @ f, d)
        t = 1.0
        for _ in range(_LS_MAX):
            xn = x + t * d
            try:
                if merit(eval_F(problem, xn), scale) <= th0 + _ARMIJO * t * slope:
                    break
            except Exception:
                pass  # step left the domain; shrink
            t *= _LS_FACTOR
        else:
            return PolishResult(x=x, iterations=it + 1, converged=False)
        x = xn
    f = eval_F(problem, x)
    return PolishResult(x=x, iterations=POLISH_MAXIT,
                        converged=bool(np.max(np.abs(f)) <= POLISH_TOL))


def merit_descent(problem: Problem, x0: Array, tol: float = POLISH_TOL,
                  maxit: int = POLISH_MAXIT) -> MeritResult:
    """Gauss-Newton descent on theta(x) = |F(x)|^2 / 2 with backtracking.

    Returns status ``root`` when |F|_inf <= tol, ``local_min`` when the
    gradient of theta stalls (|grad|_inf <= 1e-8) or the line search dies at a
    point with |F|_inf > tol, and ``maxit`` otherwise.  Accepted iterates are
    strictly decreasing in theta.
    """
    check_positive(tol, "tol")
    x = np.asarray(x0, dtype=float).copy()
    for it in range(maxit):
        f = eval_F(problem, x)
        if np.max(np.abs(f)) <= tol:
            return MeritResult(x=x, status="root", iterations=it)
        jac = jacobian(problem, x)
        grad = jac.T @ f
        if np.max(np.abs(grad)) <= _GRAD_STALL:
            return MeritResult(x=x, status="local_min", iterations=it)
        d, _, _, _ = np.linalg.lstsq(jac, -f, rcond=None)
        dn = vector_norm(d)
        if dn > _STEP_CAP:
            d = d * (_STEP_CAP / dn)
        scale, th0, slope = _armijo_start(f, grad, d)
        if slope >= 0:  # rank-deficient corner case: fall back to steepest descent
            d = -grad
            scale, th0, slope = _armijo_start(f, grad, d)
        t = 1.0
        for _ in range(_LS_MAX):
            xn = x + t * d
            if merit(eval_F(problem, xn), scale) <= th0 + _ARMIJO * t * slope:
                break
            t *= _LS_FACTOR
        else:
            return MeritResult(x=x, status="local_min", iterations=it + 1)
        x = xn
    f = eval_F(problem, x)
    status = "root" if np.max(np.abs(f)) <= tol else "maxit"
    return MeritResult(x=x, status=status, iterations=maxit)
