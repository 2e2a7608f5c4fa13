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
import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .problems import DomainError, Problem, check_alpha, eval_F, jacobian
from .tracking import check_rank

Array = np.ndarray

# feasibility tolerance of lcp_enumerate
_ENUM_TOL = 1e-10


class NonsmoothPointError(DomainError):
    """Jacobian requested at a kink of the mu = 0 system (some x_i = y_i)."""


@dataclass(frozen=True)
class NcpInstance:
    """A map f: R^n -> R^n defining the complementarity problem.

    f and f' are evaluated through ``problems.eval_F`` and
    ``problems.jacobian``, which read only ``dim``, ``f``, ``jac`` and
    ``name`` and check the shape and finiteness of what they return.  For
    affine instances f(x) = M x + q the generating data is kept so that
    enumeration oracles can reach it.
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


def min_ncp(a, b):
    """The min-function a + b - |a - b| = 2 min(a, b); zero exactly on
    complementary nonnegative pairs."""
    return phi_mu(a, b, 0.0)


def phi_mu(a, b, mu):
    """CHKS smoothing of the min-function; equals min_ncp at mu = 0.

    Only mu^2 enters the formula, so transiently negative mu values (homotopy
    overshoot past lam = 1 during tracking) are accepted.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = a + b - np.sqrt((a - b) ** 2 + 4.0 * mu**2)
    return out if out.ndim else float(out)


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
    top = eval_F(ncp, x) - y + mu * x
    bottom = phi_mu(x, y, mu) + mu * y
    return np.concatenate([top, bottom])


def _smoothing_s(diff: Array, mu: float) -> Array:
    """s = sqrt(diff^2 + 4 mu^2) for diff = x - y, refusing the kinks of the
    mu = 0 system (some s_i = 0), where the Jacobian is undefined."""
    mu_sq4 = 4.0 * mu**2
    s = np.sqrt(diff**2 + mu_sq4)
    # s_i = 0 needs both terms to be zero, so only a zero mu_sq4 is checked
    if mu_sq4 == 0.0 and not s.all():
        raise NonsmoothPointError(
            "Jacobian undefined at mu = 0 with x_i = y_i; polish from a nearby point"
        )
    return s


def eval_Fmu_jacobian(ncp: NcpInstance, z: Array, mu: float) -> Array:
    """Analytic Jacobian of eval_Fmu, its blocks written into one zero
    2n x 2n buffer:

        [ f'(x) + mu I    -I                 ]
        [ diag(1 - d)     diag(1 + d) + mu I ]

    with d = (x - y) / s and s = sqrt((x - y)^2 + 4 mu^2).  f'(x) is added to
    the zeros, so every entry off the four block diagonals is +0.0.

    Refuses exact kink points of the mu = 0 system (some s_i = 0) before f'
    is evaluated, instead of inventing a subgradient.
    """
    n = ncp.dim
    x, y = _split(z, n)
    diff = x - y
    d = diff / _smoothing_s(diff, mu)
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] += jacobian(ncp, x)
    i = np.arange(n)
    j = i + n
    out[i, i] += mu
    out[i, j] = -1.0
    out[j, i] = 1.0 - d
    out[j, j] = (1.0 + d) + mu
    return out


@dataclass(eq=False)
class RowElimination:
    """The lift of NcpHomotopy's reduced n x (n+1) system back to the stacked
    (lam, x, y).  ``NcpHomotopy.curve_system`` builds it from the terms it
    has already formed.

    The curve Jacobian of NcpHomotopy, lambda column first and z = (x, y), is

        [ c_top | J_xx    | -I      ]    J_xx = f'(x) + diag_x I
        [ c_bot | diag(p) | diag(q) ]

    with the float diag_x = mu + (1 - lam) alpha, p = 1 - d and
    q = 1 + d + mu + (1 - lam) alpha.  Row i of the lower block eliminates
    whichever of x_i, y_i has the coefficient of larger magnitude, the pivot,
    so every multiplier m_i (the kept variable's coefficient over the pivot)
    is at most 1 in magnitude.  Past lam = 1, q can be negative and a pivot
    below 1; ``curve_system`` refuses a pivot that is at most RANK_RTOL
    times the largest, where J loses rank with it.  Substituting
    the eliminated variables into the top rows leaves K, the n x (n+1) matrix
    over (lam, kept variables).

    Calling the elimination on u = (lam, kept variables) lifts u to the
    stacked (lam, x, y) by back-substitution: eliminated variable i is
    -(g_i lam + m_i kept_i), with g = c_bot / pivot.  J lift(u) = 0 exactly
    when K u = 0, so the lift of K's null vector spans the curve's tangent,
    and the product of J's singular values is prod |pivot_i| times K's times
    |lift(u)| for K's unit null vector u (``scale`` is prod |pivot_i|, inf
    when it does not fit a float).  A right-hand side b of J z = b reduces
    like the lambda column (``reduce``); when K u = reduce(b), lift(u, b)
    solves J z = b, its eliminated variables carrying the b_bot / pivot term.
    """

    jac_x: Array
    diag_x: float
    elim: Array     # the rows i that eliminate x_i; the others eliminate y_i
    pivot: Array
    m: Array
    g: Array
    scale: float
    pos: Array      # indices of the eliminated (row 0) and kept (row 1) variables

    def _reduce(self, top: Array, h: Array) -> Array:
        """reduce(w) for top = w_top and h = w_bot / pivot: h_i enters row i
        where y_i is eliminated, and -J_xx h_x where the x_i are."""
        hy = h.copy()
        hy[self.elim] = 0.0
        hx = np.zeros(h.shape[0])
        hx[self.elim] = h[self.elim]
        out = top + hy
        out -= self.jac_x @ hx + self.diag_x * hx
        return out

    def reduce(self, w: Array) -> Array:
        """The top rows of a column w of J (or a right-hand side) after the
        elimination."""
        n = self.pivot.shape[0]
        return self._reduce(w[:n], w[n:] / self.pivot)

    @property
    def parity(self) -> int:
        """The elimination's flips of the sign of det [J; lift(u)^T] against
        that of det [K; u^T]: the eliminating rows' block contributes
        prod pivot_i, the lift's positive quadratic form keeps the sign, and
        reordering (lam, kept, eliminated) to (lam, x, y) swaps x_i and y_i
        for every eliminated x_i.  So #(pivot_i < 0) + #(eliminated x_i)."""
        return np.count_nonzero(self.pivot < 0.0) + self.elim.size

    def __call__(self, u: Array, b: Optional[Array] = None) -> Array:
        n = self.pivot.shape[0]
        kept = u[1:]
        e = -(self.g * u[0] + self.m * kept)
        if b is not None:
            e += b[n:] / self.pivot
        out = np.empty(2 * n + 1)
        out[0] = u[0]
        out[self.pos[0]] = e
        out[self.pos[1]] = kept
        return out


class NcpHomotopy:
    """Homotopy context over the stacked space, trackable like a HomotopyMap.

    ``beta`` is the smoothing level at lam = 0, with 4 beta^2 finite, and the
    shift is alpha I for a finite alpha > 0, stored as a float.  The anchor
    lives in the stacked space R^{2n} and must dominate beta componentwise in
    both halves; that sign condition is what keeps the slack half of the
    tracked curve positive.  ``anchor=None`` takes (beta + 1) * ones, and then
    a warning (not an error) is raised when f(a_x) > 0 fails, since tracking
    often still succeeds without it.

    ``problem`` exposes the exact mu = 0 system so candidate residuals and
    endpoint polishing run against the target complementarity reformulation.

    The anchor terms that do not depend on lam are computed once, at
    construction: f(a_x) - a_y, a_x + a_y, the halves a_x and a_y of the
    anchor, and (a_x - a_y)^2.  So f is evaluated at the anchor once per
    context, and a DomainError there is raised by the constructor, as is a
    ValueError for an anchor whose shape is not (2n,).  As the shift is
    alpha I, ``curve_system`` hands the trackers the n x (n+1) system of a
    RowElimination instead of the 2n x (2n+1) Jacobian; ``rho_jacobian``
    builds that Jacobian, the dense oracle of the reduced system.
    """

    def __init__(self, ncp: NcpInstance, alpha: float = 1.0,
                 anchor: Optional[Array] = None, beta: float = 1.0):
        # 4 mu^2 at mu = beta must fit a float too; a Python float's ** raises
        self.beta = float(beta)
        if not (self.beta > 0 and math.isfinite(4.0 * (self.beta * self.beta))):
            raise ValueError(f"beta must be positive and finite, 4 beta^2 too, got {beta}")
        self.alpha = check_alpha(alpha)
        n = ncp.dim
        default_anchor = anchor is None
        if default_anchor:
            anchor = np.full(2 * n, self.beta + 1.0)
        self.anchor = np.asarray(anchor, dtype=float)
        self._a_x, self._a_y = _split(self.anchor, n)
        if np.any(self.anchor < self.beta):
            raise ValueError("anchor must be >= beta componentwise in both halves")
        self.ncp = ncp
        self.problem = to_problem(ncp)
        # a huge anchor overflows here; eval_F's finiteness check turns that
        # into a DomainError, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            f_ax = eval_F(ncp, self._a_x)
            self._fa_top = f_ax - self._a_y
            self._fa_bot = self._a_x + self._a_y
            self._gap_sq = (self._a_x - self._a_y) ** 2
        if default_anchor and np.any(f_ax <= 0.0):
            warnings.warn(
                f"{ncp.name}: f at the anchor first half is not strictly positive; "
                "global convergence is not guaranteed",
                stacklevel=2,
            )
        # some a_x_i = a_y_i: the anchor's d/dmu has a kink where mu^2 is zero
        self._anchor_kink = not np.all(self._gap_sq)
        # the indices of x_i (row 0) and y_i (row 1) in the lifted (lam, x, y)
        self._pos = np.arange(1, 2 * n + 1).reshape(2, n)

    @property
    def dim(self) -> int:
        return 2 * self.ncp.dim

    def _anchor_Fmu(self, mu: float):
        """The halves of eval_Fmu at the anchor, from the cached anchor terms
        in eval_Fmu's operation order, and s = sqrt((a_x - a_y)^2 + 4 mu^2)."""
        s_a = np.sqrt(self._gap_sq + 4.0 * mu**2)
        top = self._fa_top + mu * self._a_x
        bottom = (self._fa_bot - s_a) + mu * self._a_y
        return top, bottom, s_a

    def rho(self, lam: float, z: Array) -> Array:
        """Homotopy value lam * Fmu(z) + (1 - lam) * (Fmu(z) - Fmu(a) + alpha (z - a))
        with mu = beta * (1 - lam)."""
        # raw schedule formula: trackers evaluate slightly outside [0, 1]
        mu = self.beta * (1.0 - lam)
        z = np.asarray(z, dtype=float)
        fz = eval_Fmu(self.ncp, z, mu)
        if lam == 1.0:
            return fz
        n = self.ncp.dim
        fa = np.empty(2 * n)
        fa[:n], fa[n:], _ = self._anchor_Fmu(mu)
        return fz + (1.0 - lam) * (self.alpha * (z - self.anchor) - fa)

    def _lam_column(self, lam: float, x: Array, y: Array, s: Array, a_dz: Array):
        """The halves of d rho/d lam: the chain-rule term of
        mu(lam) = beta (1 - lam) at z, plus Fmu(a), less, off lam = 1, the
        anchor's d/dmu term, less a_dz = alpha (z - a)."""
        n = self.ncp.dim
        mu = self.beta * (1.0 - lam)
        dmu = -self.beta
        fa_top, fa_bottom, s_a = self._anchor_Fmu(mu)
        top = dmu * x + fa_top
        bottom = dmu * (y - 4.0 * mu / s) + fa_bottom
        if lam != 1.0:
            # at lam = 1 this term carries an exact zero factor; skipping it also
            # sidesteps the anchor's x = y kink of d/dmu at mu = 0
            if self._anchor_kink and 4.0 * mu**2 == 0.0:
                raise NonsmoothPointError("d/dmu undefined at a kink point")
            scale = (1.0 - lam) * dmu
            top -= scale * self._a_x
            bottom -= scale * (self._a_y - 4.0 * mu / s_a)
        top -= a_dz[:n]
        bottom -= a_dz[n:]
        return top, bottom

    def rho_jacobian(self, lam: float, z: Array) -> Array:
        """2n x (2n+1) Jacobian [d rho/d lam | d rho/dz]: the lambda column,
        then eval_Fmu_jacobian plus (1 - lam) alpha I.

        The lambda column carries both the explicit (1 - lam) factors and the
        chain-rule term from mu(lam) = beta (1 - lam).
        """
        n = self.ncp.dim
        alpha = self.alpha
        mu = self.beta * (1.0 - lam)
        z = np.asarray(z, dtype=float)
        x, y = _split(z, n)
        out = np.empty((2 * n, 2 * n + 1))
        out[:, 1:] = eval_Fmu_jacobian(self.ncp, z, mu)
        # the diagonal of out[:, 1:]; reshaping that strided view would copy it
        out.reshape(-1)[1::2 * n + 2] += (1.0 - lam) * alpha
        out[:n, 0], out[n:, 0] = self._lam_column(
            lam, x, y, _smoothing_s(x - y, mu), alpha * (z - self.anchor))
        return out

    def check_domain(self, lam: float, z: Array) -> None:
        """Nothing to check: ``curve_system`` checks f' itself, because K's
        build multiplies f' by terms that can be 0 and numpy warns on
        inf * 0, and f enters only at the anchor, checked at construction.
        A K that fails the factorization's finiteness scan overflowed."""

    def curve_system(self, lam: float, z: Array):
        """The trackers' n x (n+1) matrix K at (lam, z), lambda column first,
        and its lift back to (lam, z): (K, RowElimination).

        One pass builds K from f'(x), the lower diagonals p and q and the
        lambda column, never from the 2n x 2n block, and forms c_bot / pivot
        once, for K's lambda column and the lift alike.  Each entry keeps the
        operation order of rho_jacobian's terms and of the elimination, so
        its value does not depend on how the build is arranged.  For lam <= 1
        the lower-block coefficients of each row are nonnegative, and the one
        on the side of d's sign is at least 1 also after rounding, so every
        pivot is at least 1.  Past lam = 1 a pivot can be smaller;
        ``check_rank`` refuses one at most RANK_RTOL times the largest in
        magnitude before any division by it.  The kink of the
        mu = 0 system is refused as by rho_jacobian.
        """
        n = self.ncp.dim
        alpha = self.alpha
        mu = self.beta * (1.0 - lam)
        z = np.asarray(z, dtype=float)
        x, y = _split(z, n)
        diff = x - y
        s = _smoothing_s(diff, mu)
        d = diff / s
        pq = np.empty((2, n))
        pq[0] = 1.0 - d
        pq[1] = (1.0 + d) + mu + (1.0 - lam) * alpha
        abs_pq = np.abs(pq)
        elim_x = abs_pq[0] > abs_pq[1]
        elim = elim_x.nonzero()[0]
        # row 0 the pivot, row 1 the kept variable's coefficient
        pivot_kept = np.where(elim_x, pq, pq[::-1])
        pivot = pivot_kept[0]
        # for lam <= 1 every pivot is at least 1 (see above)
        if lam > 1.0:
            check_rank(np.abs(pivot).tolist(), "|pivot_i|")
        m = pivot_kept[1] / pivot
        jac_x = jacobian(self.ncp, x)
        diag_x = mu + (1.0 - lam) * alpha
        c_top, c_bottom = self._lam_column(lam, x, y, s, alpha * (z - self.anchor))
        # |prod pivot_i| rounds as prod |pivot_i| does
        lift = RowElimination(jac_x=jac_x, diag_x=diag_x, elim=elim, pivot=pivot, m=m,
                              g=c_bottom / pivot, scale=abs(math.prod(pivot.tolist())),
                              pos=np.where(elim_x, self._pos, self._pos[::-1]))
        # column i of K is column i of J_xx plus m_i e_i where y_i goes, and
        # -m_i times it minus e_i where x_i goes
        cs = np.empty(n)
        cs.fill(1.0)
        cs[elim] = -m[elim]
        unit = m.copy()
        unit[elim] = -1.0
        K = np.empty((n, n + 1))
        np.multiply(jac_x, cs, out=K[:, 1:])
        K.reshape(-1)[1::n + 2] = (jac_x.diagonal() + diag_x) * cs + unit
        K[:, 0] = lift._reduce(c_top, lift.g)
        return K, lift


class SmoothingParams:
    """The removed parameter record's ``default`` constructor, kept only
    because ``benchmarks/tests/test_benchmark.py`` calls it to raise the
    anchor warning: ``SmoothingParams.default(ncp, beta, alpha)`` is
    ``NcpHomotopy(ncp, alpha, beta=beta)``.  Build NcpHomotopy directly."""

    @staticmethod
    def default(ncp: NcpInstance, beta: float = 1.0, alpha: float = 1.0) -> NcpHomotopy:
        return NcpHomotopy(ncp, alpha, beta=beta)


def to_problem(ncp: NcpInstance) -> Problem:
    """View the exact (mu = 0) system as an ordinary square Problem, the
    target of polishing and residuals."""
    return Problem(
        dim=2 * ncp.dim,
        f=lambda z: eval_Fmu(ncp, z, 0.0),
        jac=lambda z: eval_Fmu_jacobian(ncp, z, 0.0),
        name=f"{ncp.name}-mu0",
    )


def comp_residual(ncp: NcpInstance, x: Array) -> float:
    """Worst violation of x >= 0, f(x) >= 0, x_i f_i(x) = 0; zero at a solution."""
    x = np.asarray(x, dtype=float)
    fx = eval_F(ncp, x)
    worst = np.max(np.stack([-x, -fx, np.abs(x * fx)]))
    return float(max(worst, 0.0))


def lcp_enumerate(M: Array, q: Array) -> List[Array]:
    """All solutions of the affine complementarity problem by active-set
    enumeration.

    Each support S gets M_SS x_S = -q_S solved with the complement pinned to
    zero; solutions are kept when x >= -_ENUM_TOL and M x + q >= -_ENUM_TOL.
    Supports with a singular principal submatrix are skipped.  Exponential
    in n, so n is capped at 12.
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
            if np.all(x >= -_ENUM_TOL) and np.all(w >= -_ENUM_TOL):
                x = np.where(np.abs(x) < _ENUM_TOL, 0.0, x)
                if not any(np.allclose(x, s, atol=1e-9) for s in solutions):
                    solutions.append(x)
    return solutions


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
