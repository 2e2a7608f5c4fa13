"""Newton polishing of tracker candidates and a merit-descent baseline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import DomainError, Problem, eval_F, jacobian

Array = np.ndarray

_ARMIJO = 1e-4
_LS_FACTOR = 0.5
_LS_MAX = 30
_GRAD_STALL = 1e-8
# bound on the Gauss-Newton step length in merit descent; without a cap the
# descent iterate can leapfrog the nearest merit basin, which defeats the
# point of a stalls-where-descent-methods-stall baseline
_STEP_CAP = 0.5


@dataclass(frozen=True)
class PolishConfig:
    """Shared settings for polishing and merit descent.

    The line search is backtracking with factor 0.5, at most 30 halvings, and
    Armijo constant 1e-4 on theta(x) = |F(x)|^2 / 2.  Merit descent caps the
    Gauss-Newton step length at 0.5.
    """

    tol: float = 1e-12
    maxit: int = 50

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.maxit < 1:
            raise ValueError("maxit must be >= 1")


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


def _theta(problem: Problem, x: Array) -> float:
    f = eval_F(problem, x)
    return 0.5 * float(f @ f)


def newton_polish(problem: Problem, x0: Array, cfg: Optional[PolishConfig] = None) -> PolishResult:
    """Damped Newton on F with Armijo backtracking on the squared residual.

    Converged means |F|_inf <= tol.  A singular or undefined Jacobian or a
    dead line search ends the run unconverged at the last iterate.
    """
    cfg = cfg or PolishConfig()
    x = np.asarray(x0, dtype=float).copy()
    for it in range(cfg.maxit):
        f = eval_F(problem, x)
        if np.max(np.abs(f)) <= cfg.tol:
            return PolishResult(x=x, iterations=it, converged=True)
        try:
            jac = jacobian(problem, x)
            d = np.linalg.solve(jac, -f)
        except (np.linalg.LinAlgError, DomainError):
            return PolishResult(x=x, iterations=it, converged=False)
        if not np.all(np.isfinite(d)):
            return PolishResult(x=x, iterations=it, converged=False)
        th0 = 0.5 * float(f @ f)
        slope = float((jac.T @ f) @ d)  # = -|F|^2 for exact Newton
        t = 1.0
        for _ in range(_LS_MAX):
            xn = x + t * d
            try:
                if _theta(problem, xn) <= th0 + _ARMIJO * t * slope:
                    break
            except Exception:
                pass  # step left the domain; shrink
            t *= _LS_FACTOR
        else:
            return PolishResult(x=x, iterations=it + 1, converged=False)
        x = xn
    f = eval_F(problem, x)
    return PolishResult(x=x, iterations=cfg.maxit, converged=bool(np.max(np.abs(f)) <= cfg.tol))


def merit_descent(problem: Problem, x0: Array, cfg: Optional[PolishConfig] = None) -> MeritResult:
    """Gauss-Newton descent on theta(x) = |F(x)|^2 / 2 with backtracking.

    Returns status ``root`` when |F|_inf <= tol, ``local_min`` when the
    gradient of theta stalls (|grad|_inf <= 1e-8) or the line search dies at a
    point with |F|_inf > tol, and ``maxit`` otherwise.  Accepted iterates are
    strictly decreasing in theta.
    """
    cfg = cfg or PolishConfig()
    x = np.asarray(x0, dtype=float).copy()
    for it in range(cfg.maxit):
        f = eval_F(problem, x)
        if np.max(np.abs(f)) <= cfg.tol:
            return MeritResult(x=x, status="root", iterations=it)
        jac = jacobian(problem, x)
        grad = jac.T @ f
        if np.max(np.abs(grad)) <= _GRAD_STALL:
            return MeritResult(x=x, status="local_min", iterations=it)
        d, _, _, _ = np.linalg.lstsq(jac, -f, rcond=None)
        dn = np.linalg.norm(d)
        if dn > _STEP_CAP:
            d = d * (_STEP_CAP / dn)
        slope = float(grad @ d)
        if slope >= 0:  # rank-deficient corner case: fall back to steepest descent
            d = -grad
            slope = float(grad @ d)
        th0 = 0.5 * float(f @ f)
        t = 1.0
        for _ in range(_LS_MAX):
            xn = x + t * d
            if _theta(problem, xn) <= th0 + _ARMIJO * t * slope:
                break
            t *= _LS_FACTOR
        else:
            return MeritResult(x=x, status="local_min", iterations=it + 1)
        x = xn
    f = eval_F(problem, x)
    status = "root" if np.max(np.abs(f)) <= cfg.tol else "maxit"
    return MeritResult(x=x, status=status, iterations=cfg.maxit)
