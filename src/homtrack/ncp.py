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
import math
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


def _smoothing_s(x: Array, y: Array, mu: float) -> Array:
    """s = sqrt((x - y)^2 + 4 mu^2), refusing the kinks of the mu = 0 system
    (some s_i = 0), where the Jacobian is undefined."""
    s = np.sqrt((x - y) ** 2 + 4.0 * mu**2)
    if np.any(s == 0.0):
        raise NonsmoothPointError(
            "Jacobian undefined at mu = 0 with x_i = y_i; polish from a nearby point"
        )
    return s


def _add_Fmu_jacobian(out: Array, ncp: NcpInstance, x: Array, y: Array, mu: float) -> Array:
    """Write the Jacobian E of eval_Fmu at (x, y) over a shift S.

    ``out`` is a fresh C-ordered buffer whose first 2n columns hold S on
    entry; they leave holding E + S.  f'(x) is added to the top-left n x n
    block, and the other blocks of E are zero off their diagonals.  Each entry
    of the four block diagonals is then summed as (E_ii) + S_ii, E_ii first:
    (f'(x)_ii + mu) + S_ii, -1 + S_ii, (1 - d_i) + S_ii and
    ((1 + d_i) + mu) + S_ii in the top-left, top-right, bottom-left and
    bottom-right block, where d = (x - y) / s and
    s = sqrt((x - y)^2 + 4 mu^2).  Returns s.

    Refuses exact kink points of the mu = 0 system (some s_i = 0) before f'
    is evaluated, instead of inventing a subgradient.
    """
    n = ncp.dim
    s = _smoothing_s(x, y, mu)
    d = (x - y) / s
    jac_f = ncp.eval_jac(x)
    # entry (r + i, c + i) of the flat buffer, for block corner (r, c)
    flat = out.reshape(-1)
    step = out.shape[1] + 1
    corners = (0, n, n * out.shape[1], n * out.shape[1] + n)
    diagonals = [flat[c:c + n * step:step] for c in corners]
    terms = (np.diagonal(jac_f) + mu, -1.0, 1.0 - d, (1.0 + d) + mu)
    summed = [e + shift for e, shift in zip(terms, diagonals)]
    out[:n, :n] += jac_f
    for diag, value in zip(diagonals, summed):
        diag[:] = value
    return s


def eval_Fmu_jacobian(ncp: NcpInstance, z: Array, mu: float) -> Array:
    """Analytic Jacobian of eval_Fmu in block form.

    Refuses exact kink points of the mu = 0 system instead of inventing a
    subgradient.
    """
    x, y = _split(z, ncp.dim)
    out = np.zeros((2 * ncp.dim, 2 * ncp.dim))
    _add_Fmu_jacobian(out, ncp, x, y, mu)
    return out


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
    with mu = mu_schedule(lam, beta); see NcpHomotopy.rho."""
    return NcpHomotopy(ncp, params).rho(lam, z)


def ncp_homotopy_jacobian(ncp: NcpInstance, params: SmoothingParams, lam: float, z: Array) -> Array:
    """2n x (2n+1) Jacobian [d rho/dz | d rho/d lam] of the NCP homotopy; see
    NcpHomotopy.rho_jacobian."""
    return NcpHomotopy(ncp, params).rho_jacobian(lam, z)


class RowElimination:
    """The row elimination that reduces the NCP curve Jacobian to n x (n+1).

    For a diagonal A the curve Jacobian of NcpHomotopy, lambda column first
    and z = (x, y), is

        [ c_top | J_xx    | -I      ]    J_xx = f'(x) + diag(diag_x)
        [ c_bot | diag(p) | diag(q) ]

    with diag_x = mu + (1 - lam) A_xx, p = 1 - d and
    q = 1 + d + mu + (1 - lam) A_yy.  Row i of the lower block eliminates
    whichever of x_i, y_i has the coefficient of larger magnitude, the pivot,
    so every multiplier (the kept variable's coefficient over the pivot) is
    at most 1 in magnitude.  Past lam = 1, q can be negative.  Substituting
    the eliminated variables into the top rows leaves ``matrix``, the
    n x (n+1) matrix K over (lam, kept variables).

    Calling the elimination on u = (lam, kept variables) lifts u to the
    stacked (lam, x, y) by back-substitution.  J lift(u) = 0 exactly when
    K u = 0, so the lift of K's null vector spans the curve's tangent, and
    the product of J's singular values is prod |pivot_i| times K's times
    |lift(u)| for K's unit null vector u (``scale`` is prod |pivot_i|, inf
    when it does not fit a float).  A right-hand side b of J z = b reduces
    like the lambda column (``reduce``); when K u = reduce(b), lift(u, b)
    solves J z = b, its eliminated variables carrying the b_bot / pivot term.
    """

    def __init__(self, jac_x: Array, diag_x: Array, elim_x: Array, pivot: Array,
                 kept: Array, c: Array):
        n = pivot.shape[0]
        self.elim_x, self.pivot = elim_x, pivot
        self.jac_x, self.diag_x = jac_x, diag_x
        self.m = kept / pivot
        self.g = c[n:] / pivot
        self.scale = math.prod(np.abs(pivot).tolist())
        # column i of K is column i of J_xx plus m_i e_i where y_i goes, and
        # -m_i times it minus e_i where x_i goes
        cs = np.where(elim_x, -self.m, 1.0)
        self.matrix = np.empty((n, n + 1))
        np.multiply(jac_x, cs, out=self.matrix[:, 1:])
        self.matrix.reshape(-1)[1::n + 2] = ((np.diagonal(jac_x) + diag_x) * cs
                                             + np.where(elim_x, -1.0, self.m))
        self.matrix[:, 0] = self.reduce(c)

    def reduce(self, w: Array) -> Array:
        """The top rows of a column w of J (or a right-hand side) after the
        elimination."""
        n = self.pivot.shape[0]
        h = w[n:] / self.pivot
        out = w[:n] + np.where(self.elim_x, 0.0, h)
        hx = np.where(self.elim_x, h, 0.0)
        out -= self.jac_x @ hx + self.diag_x * hx
        return out

    def __call__(self, u: Array, b: Optional[Array] = None) -> Array:
        n = self.pivot.shape[0]
        kept = u[1:]
        e = -(self.g * u[0] + self.m * kept)
        if b is not None:
            e += b[n:] / self.pivot
        return np.concatenate(([u[0]], np.where(self.elim_x, e, kept),
                               np.where(self.elim_x, kept, e)))


class NcpHomotopy:
    """Homotopy context over the stacked space, trackable like a HomotopyMap.

    ``problem`` exposes the exact mu = 0 system so candidate residuals and
    endpoint polishing run against the target complementarity reformulation.

    The anchor terms that do not depend on lam are computed once, at
    construction: f(a_x), the halves a_x and a_y of the anchor, and
    (a_x - a_y)^2.  So f is evaluated at the anchor once per context, and a
    DomainError there is raised by the constructor.  For a diagonal A its
    diagonal is kept as well, and ``reduced_system`` hands the trackers the
    n x (n+1) system of RowElimination instead of the 2n x (2n+1) Jacobian.
    """

    kind = "ncp"

    def __init__(self, ncp: NcpInstance, params: SmoothingParams):
        self.ncp = ncp
        self.params = params
        self.anchor = params.anchor
        self.problem = to_problem(ncp, mu=0.0)
        self._a_x, self._a_y = _split(params.anchor, ncp.dim)
        # a huge anchor overflows here; eval_f's finiteness check turns that
        # into a DomainError, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            self._f_a = ncp.eval_f(self._a_x)
            self._gap_sq = (self._a_x - self._a_y) ** 2
        diag = np.diagonal(params.A.mat)
        self._a_diag = diag.copy() if np.array_equal(params.A.mat, np.diag(diag)) else None

    @property
    def dim(self) -> int:
        return 2 * self.ncp.dim

    def _anchor_Fmu(self, mu: float):
        """The halves of eval_Fmu at the anchor, from the cached anchor terms
        in eval_Fmu's operation order, and s = sqrt((a_x - a_y)^2 + 4 mu^2)."""
        s_a = np.sqrt(self._gap_sq + 4.0 * mu**2)
        top = self._f_a - self._a_y + mu * self._a_x
        bottom = self._a_x + self._a_y - s_a + mu * self._a_y
        return top, bottom, s_a

    def rho(self, lam: float, z: Array) -> Array:
        # raw schedule formula: trackers evaluate slightly outside [0, 1]
        mu = self.params.beta * (1.0 - lam)
        z = np.asarray(z, dtype=float)
        fz = eval_Fmu(self.ncp, z, mu)
        if lam == 1.0:
            return fz
        fa = np.concatenate(self._anchor_Fmu(mu)[:2])
        return fz + (1.0 - lam) * (self.params.A.matvec(z - self.anchor) - fa)

    def _lam_column(self, out: Array, lam: float, x: Array, y: Array, s: Array,
                    a_dz: Array) -> None:
        """Write d rho/d lam into ``out``: the chain-rule term of
        mu(lam) = beta (1 - lam) at z, then Fmu(a) and, off lam = 1, the
        anchor's d/dmu term, then minus a_dz = A (z - a)."""
        n = self.ncp.dim
        mu = self.params.beta * (1.0 - lam)
        dmu = -self.params.beta
        top, bottom = out[:n], out[n:]
        np.multiply(dmu, x, out=top)
        np.multiply(dmu, y - 4.0 * mu / s, out=bottom)
        fa_top, fa_bottom, s_a = self._anchor_Fmu(mu)
        top += fa_top
        bottom += fa_bottom
        if lam != 1.0:
            # at lam = 1 this term carries an exact zero factor; skipping it also
            # sidesteps the anchor's x = y kink of d/dmu at mu = 0
            if np.any(s_a == 0.0):
                raise NonsmoothPointError("d/dmu undefined at a kink point")
            scale = (1.0 - lam) * dmu
            top -= scale * self._a_x
            bottom -= scale * (self._a_y - 4.0 * mu / s_a)
        out -= a_dz

    def rho_jacobian(self, lam: float, z: Array) -> Array:
        """2n x (2n+1) Jacobian [d rho/dz | d rho/d lam], built in one fresh
        buffer: (1 - lam) A, then the Jacobian of Fmu over it (see
        _add_Fmu_jacobian), then the lambda column in place.

        The lambda column carries both the explicit (1 - lam) factors and the
        chain-rule term from mu(lam) = beta (1 - lam).
        """
        n = self.ncp.dim
        mu = self.params.beta * (1.0 - lam)
        z = np.asarray(z, dtype=float)
        x, y = _split(z, n)
        out = np.empty((2 * n, 2 * n + 1))
        np.multiply(self.params.A.mat, 1.0 - lam, out=out[:, :-1])
        s = _add_Fmu_jacobian(out, self.ncp, x, y, mu)
        self._lam_column(out[:, -1], lam, x, y, s, self.params.A.matvec(z - self.anchor))
        return out

    def reduced_system(self, lam: float, z: Array):
        """The trackers' n x (n+1) matrix at (lam, z), lambda column first, and
        its lift back to (lam, z): (K, RowElimination).  None when the dense
        curve Jacobian must be factorized instead.

        For lam <= 1 the lower-block coefficients of each row are nonnegative
        and sum to 2 + mu + (1 - lam) A_yy >= 2, so every pivot is at least 1.
        None is returned for a non-diagonal A, and at a point past lam = 1
        where some pivot drops below 1 in magnitude.  The kink of the mu = 0
        system is refused as by rho_jacobian; f'(x) alone is formed, never
        the 2n x 2n block.
        """
        if self._a_diag is None:
            return None
        n = self.ncp.dim
        mu = self.params.beta * (1.0 - lam)
        z = np.asarray(z, dtype=float)
        x, y = _split(z, n)
        s = _smoothing_s(x, y, mu)
        d = (x - y) / s
        p = 1.0 - d
        q = (1.0 + d) + mu + (1.0 - lam) * self._a_diag[n:]
        elim_x = np.abs(p) > np.abs(q)
        pivot = np.where(elim_x, p, q)
        if np.abs(pivot).min() < 1.0:
            return None
        c = np.empty(2 * n)
        jac_x = self.ncp.eval_jac(x)
        self._lam_column(c, lam, x, y, s, self._a_diag * (z - self.anchor))
        lift = RowElimination(jac_x, mu + (1.0 - lam) * self._a_diag[:n], elim_x, pivot,
                              np.where(elim_x, q, p), c)
        return lift.matrix, lift


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
