"""Complementarity problems reduced to smooth square systems.

A complementarity instance asks for x >= 0 with f(x) >= 0 and x_i f_i(x) = 0.
Writing y for the slack f(x), the nonsmooth reformulation pairs the residual
f(x) - y with the min-function applied componentwise to (x_i, y_i).  The
min-function kink is rounded off by the CHKS function

    phi_mu(a, b) = a + b - sqrt((a - b)^2 + 4 mu^2),

and a mu-proportional regularization term is added to both blocks:

    Fmu(x, y) = [ f(x) - y + mu x,  Phi_mu(x, y) + mu y ].

Driving mu = beta * (1 - lam) to zero along the homotopy recovers the exact
problem at lam = 1.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .problems import DomainError, Problem, SpdMatrix, _check_finite

Array = np.ndarray


class NonsmoothPointError(DomainError):
    """Jacobian requested at a kink of the mu = 0 system (some x_i = y_i)."""


@dataclass(frozen=True)
class NcpInstance:
    """A map f: R^n -> R^n defining the complementarity problem.

    For affine instances f(x) = M x + q the generating data is kept so that
    enumeration oracles and serialization can reach it.
    """

    dim: int
    f: Callable[[Array], Array]
    jac: Callable[[Array], Array]
    name: str = "ncp"
    M: Optional[Array] = None
    q: Optional[Array] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("NCP dimension must be >= 1")

    def eval_f(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.f(x), dtype=float)
        if out.shape != (self.dim,):
            raise ValueError(f"{self.name}: f returned shape {out.shape}")
        return _check_finite(out, f"{self.name}: f")

    def eval_jac(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.jac(x), dtype=float)
        return _check_finite(out, f"{self.name}: f'")


def min_ncp(a, b):
    """The min-function a + b - |a - b| = 2 min(a, b); zero exactly on
    complementary nonnegative pairs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = a + b - np.sqrt((a - b) ** 2)
    return out if out.ndim else float(out)


def phi_mu(a, b, mu):
    """CHKS smoothing of the min-function; equals min_ncp at mu = 0.

    Only mu^2 enters the formula, so transiently negative mu values (homotopy
    overshoot past lam = 1 during tracking) are accepted.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = a + b - np.sqrt((a - b) ** 2 + 4.0 * mu**2)
    return out if out.ndim else float(out)


def mu_schedule(lam: float, beta: float) -> float:
    """mu(lam) = beta (1 - lam); hits zero exactly at lam = 1."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if beta <= 0:
        raise ValueError("beta must be positive")
    return beta * (1.0 - lam)


def _split(z: Array, n: int):
    z = np.asarray(z, dtype=float)
    if z.shape != (2 * n,):
        raise ValueError(f"expected stacked point of length {2 * n}, got shape {z.shape}")
    return z[:n], z[n:]


def eval_Fmu(ncp: NcpInstance, z: Array, mu: float) -> Array:
    """Regularized smoothed system at the stacked point z = (x, y).

    mu = 0 yields the exact nonsmooth reformulation; a complementary solution
    with y = f(x) annihilates it.
    """
    x, y = _split(z, ncp.dim)
    top = ncp.eval_f(x) - y + mu * x
    bottom = phi_mu(x, y, mu) + mu * y
    return np.concatenate([top, bottom])


def eval_Fmu_jacobian(ncp: NcpInstance, z: Array, mu: float) -> Array:
    """Analytic Jacobian of eval_Fmu in block form.

    Refuses exact kink points of the mu = 0 system instead of inventing a
    subgradient.
    """
    x, y = _split(z, ncp.dim)
    n = ncp.dim
    s = np.sqrt((x - y) ** 2 + 4.0 * mu**2)
    if np.any(s == 0.0):
        raise NonsmoothPointError(
            "Jacobian undefined at mu = 0 with x_i = y_i; polish from a nearby point"
        )
    d = (x - y) / s
    eye = np.eye(n)
    top = np.hstack([ncp.eval_jac(x) + mu * eye, -eye])
    bottom = np.hstack([np.diag(1.0 - d), np.diag(1.0 + d) + mu * eye])
    return np.vstack([top, bottom])


def _dFmu_dmu(ncp: NcpInstance, z: Array, mu: float) -> Array:
    """Partial derivative of eval_Fmu with respect to mu at fixed z."""
    x, y = _split(z, ncp.dim)
    s = np.sqrt((x - y) ** 2 + 4.0 * mu**2)
    if np.any(s == 0.0):
        raise NonsmoothPointError("d/dmu undefined at a kink point")
    return np.concatenate([x, y - 4.0 * mu / s])


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing level, scaling matrix, and anchor for a complementarity run.

    The anchor must dominate beta componentwise in both halves; that sign
    condition is what keeps the slack half of the tracked curve positive.
    A warning (not an error) is raised when f(a') > 0 fails, since tracking
    often still succeeds without it.
    """

    beta: float
    A: SpdMatrix
    anchor: Array

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        anchor = np.asarray(self.anchor, dtype=float)
        if anchor.shape != (self.A.n,):
            raise ValueError("anchor length must match A (stacked dimension 2n)")
        if anchor.shape[0] % 2 != 0:
            raise ValueError("anchor must live in the stacked space R^{2n}")
        if np.any(anchor < self.beta):
            raise ValueError("anchor must be >= beta componentwise in both halves")
        object.__setattr__(self, "anchor", anchor)

    @classmethod
    def default(cls, ncp: NcpInstance, beta: float = 1.0, c: float = 1.0) -> "SmoothingParams":
        """Anchor (beta + 1) * ones in both halves and A = c I on R^{2n}."""
        n = ncp.dim
        anchor = np.full(2 * n, beta + 1.0)
        params = cls(beta=beta, A=SpdMatrix.scaled_identity(c, 2 * n), anchor=anchor)
        params.warn_if_infeasible(ncp)
        return params

    def warn_if_infeasible(self, ncp: NcpInstance) -> bool:
        """Check f(a') > 0; warn and return False when violated."""
        a_x = self.anchor[: ncp.dim]
        if np.any(ncp.eval_f(a_x) <= 0.0):
            warnings.warn(
                f"{ncp.name}: f at the anchor first half is not strictly positive; "
                "global convergence is not guaranteed",
                stacklevel=2,
            )
            return False
        return True


def ncp_homotopy(ncp: NcpInstance, params: SmoothingParams, lam: float, z: Array) -> Array:
    """Homotopy value lam * Fmu(z) + (1 - lam) * (Fmu(z) - Fmu(a) + A (z - a))
    with mu = mu_schedule(lam, beta)."""
    # raw schedule formula: trackers evaluate slightly outside [0, 1]
    mu = params.beta * (1.0 - lam)
    z = np.asarray(z, dtype=float)
    fz = eval_Fmu(ncp, z, mu)
    if lam == 1.0:
        return fz
    fa = eval_Fmu(ncp, params.anchor, mu)
    return fz + (1.0 - lam) * (params.A.matvec(z - params.anchor) - fa)


def ncp_homotopy_jacobian(ncp: NcpInstance, params: SmoothingParams, lam: float, z: Array) -> Array:
    """2n x (2n+1) Jacobian [d rho/dz | d rho/d lam] of the NCP homotopy.

    The lambda column carries both the explicit (1 - lam) factors and the
    chain-rule term from mu(lam) = beta (1 - lam).
    """
    mu = params.beta * (1.0 - lam)
    z = np.asarray(z, dtype=float)
    jz = eval_Fmu_jacobian(ncp, z, mu) + (1.0 - lam) * params.A.mat
    dmu = -params.beta
    dlam = dmu * _dFmu_dmu(ncp, z, mu)
    dlam += eval_Fmu(ncp, params.anchor, mu)
    if lam != 1.0:
        # at lam = 1 this term carries an exact zero factor; skipping it also
        # sidesteps the anchor's x = y kink of d/dmu at mu = 0
        dlam -= (1.0 - lam) * dmu * _dFmu_dmu(ncp, params.anchor, mu)
    dlam -= params.A.matvec(z - params.anchor)
    return np.hstack([jz, dlam.reshape(-1, 1)])


class NcpHomotopy:
    """Homotopy context over the stacked space, trackable like a HomotopyMap.

    ``problem`` exposes the exact mu = 0 system so candidate residuals and
    endpoint polishing run against the target complementarity reformulation.
    """

    kind = "ncp"

    def __init__(self, ncp: NcpInstance, params: SmoothingParams):
        self.ncp = ncp
        self.params = params
        self.anchor = params.anchor
        self.problem = to_problem(ncp, mu=0.0)

    @property
    def dim(self) -> int:
        return 2 * self.ncp.dim

    def rho(self, lam: float, z: Array) -> Array:
        return ncp_homotopy(self.ncp, self.params, lam, z)

    def rho_jacobian(self, lam: float, z: Array) -> Array:
        return ncp_homotopy_jacobian(self.ncp, self.params, lam, z)


def to_problem(ncp: NcpInstance, mu: float = 0.0) -> Problem:
    """View the smoothed system at fixed mu as an ordinary square Problem."""
    return Problem(
        dim=2 * ncp.dim,
        f=lambda z: eval_Fmu(ncp, z, mu),
        jac=lambda z: eval_Fmu_jacobian(ncp, z, mu),
        name=f"{ncp.name}-mu{mu:g}",
    )


def comp_residual(ncp: NcpInstance, x: Array) -> float:
    """Worst violation of x >= 0, f(x) >= 0, x_i f_i(x) = 0; zero at a solution."""
    x = np.asarray(x, dtype=float)
    fx = ncp.eval_f(x)
    worst = np.max(np.stack([-x, -fx, np.abs(x * fx)]))
    return float(max(worst, 0.0))


def lcp_enumerate(M: Array, q: Array, tol: float = 1e-10) -> List[Array]:
    """All solutions of the affine complementarity problem by active-set
    enumeration.

    Each support S gets M_SS x_S = -q_S solved with the complement pinned to
    zero; solutions are kept when x >= -tol and M x + q >= -tol.  Supports
    with a singular principal submatrix are skipped.  Exponential in n, so
    n is capped at 12.
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if M.shape != (n, n):
        raise ValueError("M must be square and match q")
    if n > 12:
        raise ValueError("enumeration oracle is limited to n <= 12")
    solutions: List[Array] = []
    for r in range(n + 1):
        for support in itertools.combinations(range(n), r):
            x = np.zeros(n)
            if support:
                idx = list(support)
                sub = M[np.ix_(idx, idx)]
                try:
                    xs = np.linalg.solve(sub, -q[idx])
                except np.linalg.LinAlgError:
                    continue
                if not np.all(np.isfinite(xs)):
                    continue
                x[idx] = xs
            w = M @ x + q
            if np.all(x >= -tol) and np.all(w >= -tol):
                x = np.where(np.abs(x) < tol, 0.0, x)
                if not any(np.allclose(x, s, atol=1e-9) for s in solutions):
                    solutions.append(x)
    return solutions


def ncp_to_json(ncp: NcpInstance) -> str:
    """Serialize an affine instance (or a registry reference) as JSON."""
    if ncp.M is not None:
        payload = {
            "n": ncp.dim,
            "kind": "lcp",
            "M": [float(v) for v in np.asarray(ncp.M).ravel()],
            "q": [float(v) for v in np.asarray(ncp.q)],
        }
    else:
        payload = {"n": ncp.dim, "kind": "registry", "name": ncp.name}
    return json.dumps(payload)


def ncp_from_json(text: str) -> NcpInstance:
    """Inverse of ncp_to_json; registry references resolve by name."""
    payload = json.loads(text)
    if payload["kind"] == "lcp":
        n = int(payload["n"])
        M = np.asarray(payload["M"], dtype=float).reshape(n, n)
        q = np.asarray(payload["q"], dtype=float)
        return lcp_instance(M, q)
    if payload["kind"] == "registry":
        from .registry import registry_get

        inst = registry_get(payload["name"])
        if not isinstance(inst, NcpInstance):
            raise ValueError(f"{payload['name']} is not a complementarity instance")
        return inst
    raise ValueError(f"unknown NCP payload kind {payload['kind']!r}")


def lcp_instance(M: Array, q: Array, name: str = "lcp") -> NcpInstance:
    """Wrap affine data f(x) = M x + q as an NcpInstance."""
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    return NcpInstance(
        dim=q.shape[0],
        f=lambda x: M @ x + q,
        jac=lambda x: M,
        name=name,
        M=M,
        q=q,
    )
