"""Zero-curve tracking from (lam, x) = (0, a) toward lam = 1.

Two interchangeable strategies trace the curve rho(lam, x) = 0:

* ``pc``  -- predictor-corrector stepping: Hermite cubic prediction through
  the last two accepted points, normal-flow correction back onto the curve,
  step doubling/halving driven by corrector effort.
* ``ode`` -- integrate the tangent field with an adaptive embedded
  Runge-Kutta pair, stopping at the first upward lam = 1 crossing and
  checking the corrected endpoint of each of the C_n + 1 equal checkpoint
  intervals of [0, S_f] for a candidate solution.

Both trackers hand their lam = 1 crossing bracket to ``cross_lambda1``, which
bisects along the curve with corrected midpoints and then runs Newton in the
lam = 1 hyperplane.  A numerical failure ends the trace with a typed status
(rank deficiency, domain error, field overflow, linear-algebra failure)
instead of raising.

Each curve Jacobian J (n x (n+1)) is factorized once, as the Householder QR
factorization J^T = Q R of LAPACK's dgeqrf (Allgower & Georg, *Numerical
Continuation Methods*, 1990; Watson et al., HOMPACK90, ACM TOMS 23, 1997).
Q is never formed: it stays as the n reflectors dgeqrf stores below R, and
dormqr applies it to a vector.  Q e_{n+1} spans the null space of J, so it is
the unit tangent up to sign; prod |R_ii| is the product of J's singular
values; a small relative |R_ii| flags rank deficiency; and the corrector's
minimum-norm step solving J z = -rho is Q [R^{-T} (-rho); 0], with LAPACK's
dtrtrs for the triangular solve.  A non-finite Jacobian entry is a
linear-algebra failure.

At each curve point the trackers factorize one matrix, with its lambda
column first, and lift its vectors back to the full (lam, x) vector
(``_curve_system``).  For a HomotopyMap that matrix is the curve Jacobian
itself and the lift is the identity.  NcpHomotopy with a diagonal A (every
complementarity solve of the CLI, which sets A = alpha I) hands over a
reduced n x (n+1) system instead of its 2n x (2n+1) Jacobian: the lower
blocks of that Jacobian are diagonal, so each of their rows eliminates one
of x_i, y_i, the one whose coefficient is larger in magnitude.  For lam <= 1
the two coefficients are nonnegative and sum to at least 2, so every pivot
is at least 1 and every multiplier at most 1 in magnitude.  The unit tangent
is the normalized lift of the reduced null vector; the volume is prod
|pivot_i| times the reduced prod |R_ii| times the norm of that lift; the
corrector's step is the lift of the reduced minimum-norm solution, the
eliminated variables carrying their b_bot / pivot term, less its component
along the unit tangent.  A non-diagonal A, or a point past lam = 1 where
some pivot drops below 1 in magnitude, falls back to the dense Jacobian, the
same path a HomotopyMap takes.

Points and tangents use the (lam, x) layout with lambda first.  Homotopy
contexts expose Jacobians as [d rho/dx | d rho/d lam]; the column reorder is
confined to this module.

The ODE field comes in two parametrizations:

* ``arclength`` -- unit tangent, so the integration variable is Euclidean
  arclength.  Initial orientation makes the lambda component positive;
  subsequent signs follow the acute-angle rule.
* ``adjugate`` -- the tangent scaled by the product of the singular values
  of the full Jacobian (the volume above), i.e. the signed-minor (adjugate)
  vector.  Its start orientation is the sign of det [D rho; t^T] times
  (-1)^n, which gives the lambda component the sign of det d rho/dx.  This
  smooth unnormalized field is the classical alternative to arclength
  parametrization; the reference experiment tables are reproducible only
  under it, because a start matrix with a large SPD shift makes the field
  fast and collapses the number of checked intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import lapack

from .problems import DomainError, eval_F, jacobian, scaled_residual

Array = np.ndarray

# the curve Jacobian is declared rank deficient when min |R_ii| of the QR
# factorization of its transpose is at most this fraction of max |R_ii|
RANK_RTOL = 1e-12

# largest tolerated prediction overshoot past lam = 1 before the step shrinks
_LAMBDA_OVERSHOOT = 0.05

STATUS_REACHED = "reached_lambda1"
STATUS_EXHAUSTED = "exhausted_arclength"
STATUS_RANK = "rank_deficient"
STATUS_UNDERFLOW = "step_underflow"
STATUS_RESIDUAL = "candidate_residual"
STATUS_DOMAIN = "domain_error"
STATUS_OVERFLOW = "field_overflow"
STATUS_LINALG = "linalg_failure"


class RankDeficientError(RuntimeError):
    """The curve Jacobian lost rank; continuation cannot proceed."""


class CorrectorError(RuntimeError):
    """Normal-flow correction failed to converge within the iteration cap."""


class FieldOverflowError(ArithmeticError):
    """The adjugate field's magnitude is not representable as a float."""


# numerical failures that end a trace, each with its typed status
_FAILURES = ((RankDeficientError, STATUS_RANK), (DomainError, STATUS_DOMAIN),
             (FieldOverflowError, STATUS_OVERFLOW), (np.linalg.LinAlgError, STATUS_LINALG))
_TRACK_ERRORS = tuple(exc for exc, _ in _FAILURES)


@dataclass(frozen=True)
class TrackPoint:
    """An accepted point on the curve with its unit tangent (lambda first)."""

    s: float
    lam: float
    x: Array
    tangent: Array

    @property
    def coords(self) -> Array:
        return np.concatenate([[self.lam], self.x])


@dataclass(frozen=True)
class TrackerConfig:
    strategy: str = "ode"
    s_max: float = 5.0          # arclength budget S_f
    checkpoints: int = 70       # intermediate checks C_n; S_f splits into C_n + 1 intervals
    h0: float = 0.1
    h_min: float = 1e-10
    h_max: float = 0.5
    corrector_tol: float = 1e-8
    corrector_maxit: int = 6
    candidate_tol: float = 1e-3
    ode_rel_tol: float = 1e-6
    ode_abs_tol: float = 1e-9
    ode_field: str = "arclength"  # or "adjugate"
    path_tol: Optional[float] = None

    def __post_init__(self):
        if self.strategy not in ("ode", "pc"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.ode_field not in ("arclength", "adjugate"):
            raise ValueError(f"unknown ode field {self.ode_field!r}")
        if self.s_max <= 0:
            raise ValueError("s_max must be positive")
        if self.checkpoints < 0:
            raise ValueError("checkpoints must be >= 0")
        if not (0 < self.h_min <= self.h0 <= self.h_max):
            raise ValueError("need 0 < h_min <= h0 <= h_max")
        if self.corrector_maxit < 1:
            raise ValueError("corrector_maxit must be >= 1")

    @property
    def effective_path_tol(self) -> float:
        if self.path_tol is not None:
            return self.path_tol
        return 1e-6 if self.strategy == "pc" else 10.0 * self.ode_rel_tol


@dataclass
class CurveTrace:
    """Ordered accepted points plus the outcome of a tracking run.

    ``checkpoint_hit`` is the 1-based index of the checkpoint interval where a
    candidate was found (ODE strategy only); the predictor-corrector strategy
    reports its accepted step count instead.
    """

    points: List[TrackPoint]
    status: str
    hsol: Optional[Array] = None
    checkpoint_hit: Optional[int] = None
    steps: int = 0
    endpoint_flagged: bool = False

    @property
    def success(self) -> bool:
        return self.status in (STATUS_REACHED, STATUS_RESIDUAL)


def _failure(exc: Exception, points: List[TrackPoint], hsol: Optional[Array],
             **outcome) -> CurveTrace:
    """End a trace on a numerical failure with the failure's typed status."""
    status = next(st for cls, st in _FAILURES if isinstance(exc, cls))
    return CurveTrace(points=points, status=status, hsol=hsol, **outcome)


def _tracker_jacobian(hmap, lam: float, x: Array) -> Array:
    """Homotopy Jacobian with the lambda column moved to the front."""
    j = hmap.rho_jacobian(lam, x)
    return np.concatenate((j[:, -1:], j[:, :-1]), axis=1)


def _curve_system(hmap, lam: float, x: Array):
    """The trackers' one entry point per curve point: the matrix to factorize
    at (lam, x), lambda column first, and the lift of its vectors back to the
    full (lam, x) vector, None for the identity.

    A context's ``reduced_system`` gives a smaller matrix and its lift where
    it applies; everywhere else the dense curve Jacobian is factorized.
    """
    reduced = getattr(hmap, "reduced_system", None)
    system = None if reduced is None else reduced(lam, x)
    return (_tracker_jacobian(hmap, lam, x), None) if system is None else system


def _factor(jac: Array) -> Tuple[Array, Array, float]:
    """Householder QR factorization of the transpose of the n x (n+1) curve
    Jacobian, as LAPACK's dgeqrf packs it: ``qr`` holds R in its upper
    triangle and, below it, the reflectors that with ``tau`` represent Q,
    which is never formed.  Returns (qr, tau, prod |R_ii|), the last being
    the product of the Jacobian's singular values (inf when it does not fit a
    float).

    Raises LinAlgError on a non-finite Jacobian entry or a LAPACK failure, and
    RankDeficientError when min |R_ii| is at most RANK_RTOL times max |R_ii|.
    """
    # checked on the input: QR does not fail on NaN, and behind an identity
    # Householder reflector a NaN can stay off R's diagonal
    if not np.isfinite(jac).all():
        raise np.linalg.LinAlgError("curve Jacobian has a non-finite entry")
    # the optimal workspace: with the wrapper's default of 3n, LAPACK never
    # takes its blocked code path
    lwork, _ = lapack.dgeqrf_lwork(*jac.T.shape)
    qr, tau, _, info = lapack.dgeqrf(jac.T, lwork=int(lwork))
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed (info = {info})")
    # Python floats: at n <= 3 numpy reductions cost as much as the
    # factorization, and a float product overflows to inf without a warning
    d = np.abs(np.diagonal(qr)).tolist()
    lo, hi = min(d), max(d)
    if hi == 0.0 or lo <= RANK_RTOL * hi:
        raise RankDeficientError(
            f"curve Jacobian is rank deficient (min/max |R_ii| = {lo / hi if hi else 0:.3e})")
    return qr, tau, math.prod(d)


def _apply_q(qr: Array, tau: Array, v: Array) -> Array:
    """Q v for the Q that dgeqrf left as reflectors in (qr, tau)."""
    out, _, info = lapack.dormqr("L", "N", qr, tau, v[:, None], 1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dormqr failed (info = {info})")
    return out[:, 0]


def _null(qr: Array, tau: Array, lift) -> Tuple[Array, float]:
    """Unit null vector of the curve Jacobian whose system (matrix, lift) was
    factorized into (qr, tau), and the norm of the lifted Q e_{n+1}."""
    e = np.zeros(qr.shape[0])
    e[-1] = 1.0
    t = _apply_q(qr, tau, e)
    if lift is None:
        return t, 1.0
    t = lift(t)
    norm = float(np.linalg.norm(t))
    return t / norm, norm


def _null_and_volume(jac: Array, lift=None) -> Tuple[Array, float]:
    """Unit null vector of the curve Jacobian that the n x (n+1) matrix
    ``jac`` and its lift represent, and the product of that Jacobian's
    singular values (the norm of the signed-minor tangent; inf when it does
    not fit a float)."""
    qr, tau, volume = _factor(jac)
    t, norm = _null(qr, tau, lift)
    return t, volume if lift is None else lift.scale * volume * norm


def _min_norm_step(jac: Array, b: Array, lift=None) -> Array:
    """Shortest z with J z = b for the curve Jacobian J that ``jac`` and its
    lift represent: Q [R^{-T} b; 0] for J itself, and for a reduced system
    the lift of K's shortest solution of K u = reduce(b) less its component
    along the unit tangent."""
    qr, tau, _ = _factor(jac)
    n = jac.shape[0]
    y = np.zeros(n + 1)
    # R^T y = b as the lower triangular system it is; dtrtrs reads only that
    # triangle, so the reflectors stored below R do not enter
    y[:n], info = lapack.dtrtrs(qr[:n].T, b if lift is None else lift.reduce(b), lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dtrtrs failed (info = {info})")
    z = _apply_q(qr, tau, y)
    if lift is None:
        return z
    z = lift(z, b)
    t, _ = _null(qr, tau, lift)
    return z - float(t @ z) * t


def _orient_first(t: Array) -> Array:
    """Initial sign: lambda component positive.  At an exact lambda tangency
    the rule is vacuous; fall back to a fixed convention (leading nonzero
    state component negative, the branch the reference runs follow on
    symmetric problems)."""
    if t[0] > RANK_RTOL:
        return t
    if t[0] < -RANK_RTOL:
        return -t
    lead = np.flatnonzero(np.abs(t[1:]) > RANK_RTOL)
    if lead.size and t[1 + lead[0]] > 0:
        return -t
    return t


def _orient_signed(jac: Array, t: Array) -> Array:
    """Orient t along the signed-minor vector v (v_i = (-1)^i times the
    determinant of jac without column i).  Expanding det [jac; t^T] along its
    last row gives (-1)^n t.v, so one log-determinant sign decides, without
    forming v and without overflow."""
    sign, _ = np.linalg.slogdet(np.vstack([jac, t]))
    return t if sign * (-1.0) ** jac.shape[0] > 0 else -t


def tangent(jac: Array, prev: Optional[Array] = None, lift=None) -> Array:
    """Unit tangent to the zero curve from its full Jacobian (lambda column
    first), or from a reduced system and its lift.

    With ``prev`` given, the sign keeps an acute angle against it; otherwise
    the lambda component is made positive so the curve leaves lam = 0 forward.
    Raises RankDeficientError when the Jacobian has rank below n.
    """
    t, _ = _null_and_volume(np.asarray(jac, dtype=float), lift)
    if prev is not None:
        return -t if float(np.dot(t, prev)) < 0.0 else t
    return _orient_first(t)


def hermite_predict(p0: TrackPoint, p1: TrackPoint, h: float) -> Array:
    """Evaluate the Hermite cubic through (p0, p1) and their unit tangents at
    s = p1.s + h."""
    sigma = p1.s - p0.s
    if sigma <= 0:
        raise ValueError("points must have increasing arclength")
    tau = 1.0 + h / sigma
    t2, t3 = tau * tau, tau * tau * tau
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + tau
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return (
        h00 * p0.coords
        + h10 * sigma * p0.tangent
        + h01 * p1.coords
        + h11 * sigma * p1.tangent
    )


def normal_flow_correct(hmap, w0: Array, cfg: TrackerConfig) -> Tuple[Array, int]:
    """Return to the curve from w0 = (lam, x) by minimum-norm Newton steps.

    Each step solves the underdetermined system D rho * z = -rho for the
    shortest z, so iterates move perpendicular to the curve.  Stops once the
    normalized step |z| / (1 + |w|) falls below the corrector tolerance;
    exceeding the iteration cap raises CorrectorError and a rank-deficient
    Jacobian raises RankDeficientError.
    """
    w = np.asarray(w0, dtype=float).copy()
    for it in range(1, cfg.corrector_maxit + 1):
        r = hmap.rho(w[0], w[1:])
        jac, lift = _curve_system(hmap, w[0], w[1:])
        z = _min_norm_step(jac, -r, lift)
        w = w + z
        if np.linalg.norm(z) / (1.0 + np.linalg.norm(w)) <= cfg.corrector_tol:
            return w, it
    raise CorrectorError(f"no convergence in {cfg.corrector_maxit} corrector iterations")


def cross_lambda1(before: TrackPoint, after: TrackPoint, hmap, cfg: TrackerConfig) -> Tuple[Array, bool]:
    """Turn a lam = 1 crossing bracket into the solution estimate hsol.

    This is the one landing routine of both trackers.  It works in three
    steps:

    1. bisect the bracket along the curve: chord midpoints are corrected back
       onto the curve and replace the end on their side of lam = 1, until the
       upper end lies within max(corrector_tol, 1e-9) of the hyperplane or a
       midpoint correction fails.  Because the midpoints are on the curve, a
       bracket that jumped a steep or bent terminal segment still lands on
       the right root;
    2. interpolate linearly from ``before`` to the refined upper end at
       lam = 1;
    3. run Newton on the target system in the lam = 1 hyperplane.

    Returns (hsol, flagged); flagged means the Newton correction failed and
    the raw interpolant was kept.
    """
    if not (before.lam < 1.0 <= after.lam):
        if before.lam == 1.0:
            return before.x.copy(), False
        raise ValueError("cross_lambda1 requires lam(before) < 1 <= lam(after)")
    lo, hi = before.coords, after.coords
    tol = max(cfg.corrector_tol, 1e-9)
    for _ in range(80):
        if hi[0] - 1.0 <= tol or float(np.linalg.norm(hi - lo)) <= 1e-12:
            break
        try:
            mid, _ = normal_flow_correct(hmap, 0.5 * (lo + hi), cfg)
        except (CorrectorError,) + _TRACK_ERRORS:
            break
        if mid[0] >= 1.0:
            hi = mid
        else:
            lo = mid
    frac = (1.0 - before.lam) / (hi[0] - before.lam)
    x = before.x + frac * (hi[1:] - before.x)
    x0 = x.copy()
    for _ in range(cfg.corrector_maxit):
        try:
            step = np.linalg.solve(jacobian(hmap.problem, x), -eval_F(hmap.problem, x))
        except (np.linalg.LinAlgError, DomainError):
            return x0, True
        x = x + step
        if np.linalg.norm(step) / (1.0 + np.linalg.norm(x)) <= cfg.corrector_tol:
            return x, False
    return x0, True


def _land(points: List[TrackPoint], after: TrackPoint, hmap, cfg: TrackerConfig,
          **outcome) -> CurveTrace:
    """Close a trace whose last point and ``after`` bracket lam = 1: land with
    cross_lambda1 and append (1, hsol) with its tangent, at the arclength
    interpolated linearly in lam across the bracket."""
    before = points[-1]
    hsol, flagged = cross_lambda1(before, after, hmap, cfg)
    try:
        jac, lift = _curve_system(hmap, 1.0, hsol)
        t_end = tangent(jac, prev=before.tangent, lift=lift)
    except _TRACK_ERRORS:
        t_end = before.tangent
    frac = (1.0 - before.lam) / (after.lam - before.lam)
    s_end = max(before.s + frac * (after.s - before.s), before.s + 1e-13)
    points.append(TrackPoint(s=s_end, lam=1.0, x=hsol, tangent=t_end))
    return CurveTrace(points=points, status=STATUS_REACHED, hsol=hsol,
                      endpoint_flagged=flagged, **outcome)


def _path_residual(hmap, lam: float, x: Array) -> float:
    return float(np.max(np.abs(hmap.rho(lam, x))) / (1.0 + np.linalg.norm(x)))


def pc_track(hmap, a: Optional[Array] = None, cfg: Optional[TrackerConfig] = None) -> CurveTrace:
    """Predictor-corrector tracking from (0, a) until lam crosses 1.

    Step control: corrector success within two iterations doubles h (capped at
    h_max); corrector failure, including an iterate outside F's domain, halves
    h and repredicts; h underflow below h_min aborts the run.  The first
    prediction is linear, later ones Hermite cubic.
    """
    cfg = cfg or TrackerConfig(strategy="pc")
    if cfg.strategy != "pc":
        cfg = replace(cfg, strategy="pc")
    a = np.asarray(hmap.anchor if a is None else a, dtype=float)
    points: List[TrackPoint] = []
    h = cfg.h0
    steps = 0
    try:
        jac, lift = _curve_system(hmap, 0.0, a)
        points.append(TrackPoint(s=0.0, lam=0.0, x=a, tangent=tangent(jac, lift=lift)))
        while True:
            cur = points[-1]
            if cur.s >= cfg.s_max:
                return CurveTrace(points=points, status=STATUS_EXHAUSTED,
                                  hsol=cur.x.copy(), steps=steps)
            if len(points) == 1:
                w_pred = cur.coords + h * cur.tangent
            else:
                w_pred = hermite_predict(points[-2], points[-1], h)
            # predicting deep past the target hyperplane wastes effort and risks
            # corrector capture by a foreign component of the zero set
            if cur.lam < 1.0 and w_pred[0] > 1.0 + _LAMBDA_OVERSHOOT and h > cfg.h_min:
                h *= 0.5
                continue
            try:
                w_new, iters = normal_flow_correct(hmap, w_pred, cfg)
                accept = _path_residual(hmap, w_new[0], w_new[1:]) <= cfg.effective_path_tol
                # a corrected point that collapsed onto the previous one is useless
                accept = accept and np.linalg.norm(w_new - cur.coords) > 1e-12
                # a correction much larger than the step means the predictor left
                # the curve's neighborhood (risking a jump to another component)
                corr_dist = float(np.linalg.norm(w_new - w_pred))
                accept = accept and corr_dist <= max(
                    0.25 * h, 1e3 * cfg.corrector_tol * (1.0 + np.linalg.norm(w_new)))
            except (CorrectorError, DomainError):
                accept = False
            if not accept:
                h *= 0.5
                if h < cfg.h_min:
                    return CurveTrace(points=points, status=STATUS_UNDERFLOW,
                                      hsol=cur.x.copy(), steps=steps)
                continue

            steps += 1
            new = TrackPoint(s=cur.s + float(np.linalg.norm(w_new - cur.coords)),
                             lam=float(w_new[0]), x=w_new[1:], tangent=cur.tangent)
            if new.lam >= 1.0:
                return _land(points, new, hmap, cfg, steps=steps)
            jac, lift = _curve_system(hmap, new.lam, new.x)
            t_new = tangent(jac, prev=cur.tangent, lift=lift)
            points.append(replace(new, tangent=t_new))
            if iters <= 2:
                h = min(2.0 * h, cfg.h_max)
    except _TRACK_ERRORS as exc:
        return _failure(exc, points, points[-1].x.copy() if points else None, steps=steps)


@dataclass(frozen=True)
class Candidate:
    kind: str  # "crossing" or "residual"
    s: float
    y: Array   # (lam, x) at detection


def checkpoint_scan(s: float, endpoint: Array, hmap, cfg: TrackerConfig) -> Optional[Candidate]:
    """Classify the corrected endpoint (lam, x) of a checkpoint interval
    ending at ``s``.

    It is a lam = 1 crossing when the drift correction pushed it to lam >= 1,
    a residual candidate when its scaled target residual is within the
    candidate tolerance, and no candidate otherwise.
    """
    if endpoint[0] >= 1.0:
        return Candidate(kind="crossing", s=s, y=endpoint.copy())
    if np.max(np.abs(scaled_residual(hmap.problem, endpoint[1:]))) <= cfg.candidate_tol:
        return Candidate(kind="residual", s=s, y=endpoint.copy())
    return None


def ode_track(hmap, a: Optional[Array] = None, cfg: Optional[TrackerConfig] = None) -> CurveTrace:
    """Track the curve by integrating the tangent field, checking for a
    candidate after each of the C_n + 1 equal subintervals of [0, S_f].

    Integration stops at the first upward lam = 1 crossing.  Otherwise one
    normal-flow correction is applied at every checkpoint boundary to pull
    the integrated path back onto the curve, and the corrected endpoint is
    scanned; the trace stops at the first candidate and records the interval
    index N_c.
    """
    cfg = cfg or TrackerConfig(strategy="ode")
    if cfg.strategy != "ode":
        cfg = replace(cfg, strategy="ode")
    a = np.asarray(hmap.anchor if a is None else a, dtype=float)
    adjugate = cfg.ode_field == "adjugate"
    state = {}
    # null vector and volume of every point factorized in the current
    # checkpoint interval, keyed by the bytes of (lam, x).  record() finds
    # each accepted step point here, because RK45 evaluates the field there
    # as the first stage of its next step (FSAL); rhs finds the interval's
    # start point, which the start or record() factorized
    known: Dict[bytes, Tuple[Array, float]] = {}

    def null_and_volume(y):
        key = y.tobytes()
        if key not in known:
            known[key] = _null_and_volume(*_curve_system(hmap, y[0], y[1:]))
        return known[key]

    def rhs(s, y):
        t, vol = null_and_volume(y)
        if float(np.dot(t, state["prev"])) < 0.0:
            t = -t
        state["prev"] = t
        if not adjugate:
            return t
        if not np.isfinite(vol):
            raise FieldOverflowError(f"adjugate field magnitude overflows at lam = {y[0]:.6g}")
        return t * vol

    # stop integrating the moment lam crosses 1 upward: past the crossing the
    # curve no longer matters and (for the unnormalized field) may blow up in
    # finite parameter time
    def crossing_event(s, y):
        return y[0] - 1.0

    crossing_event.terminal = True
    crossing_event.direction = 1.0

    points: List[TrackPoint] = []

    def record(s, w):
        # integrator step points go into the trace so it resolves folds;
        # tangents chain off the previous recorded one
        t_here, _ = null_and_volume(w)
        t_here = -t_here if float(np.dot(t_here, points[-1].tangent)) < 0.0 else t_here
        points.append(TrackPoint(s=float(s), lam=float(w[0]), x=w[1:].copy(),
                                 tangent=t_here))

    edges = np.linspace(0.0, cfg.s_max, cfg.checkpoints + 2)
    y = np.concatenate([[0.0], a])
    try:
        jac0, lift0 = _curve_system(hmap, 0.0, a)
        t0, _ = known[y.tobytes()] = _null_and_volume(jac0, lift0)
        if adjugate:
            # the sign of the adjugate vector needs the full curve Jacobian
            t0 = _orient_signed(jac0 if lift0 is None else _tracker_jacobian(hmap, 0.0, a), t0)
        else:
            t0 = _orient_first(t0)
        state["prev"] = t0
        points.append(TrackPoint(s=0.0, lam=0.0, x=a.copy(), tangent=t0))
        for k in range(1, len(edges)):
            s0, s1 = float(edges[k - 1]), float(edges[k])
            sol = solve_ivp(rhs, (s0, s1), y, method="RK45", rtol=cfg.ode_rel_tol,
                            atol=cfg.ode_abs_tol, events=[crossing_event])
            for i in range(1, len(sol.t) - 1):
                record(sol.t[i], sol.y[:, i])
            if sol.t_events[0].size:
                cand = Candidate(kind="crossing", s=float(sol.t_events[0][0]),
                                 y=sol.y_events[0][0])
            elif not sol.success:
                return CurveTrace(points=points, status=STATUS_UNDERFLOW, hsol=y[1:].copy())
            else:
                endpoint = sol.y[:, -1]
                try:
                    endpoint, _ = normal_flow_correct(hmap, endpoint, cfg)
                except (CorrectorError, RankDeficientError, DomainError):
                    pass  # keep the uncorrected endpoint; the next interval retries
                cand = checkpoint_scan(float(sol.t[-1]), endpoint, hmap, cfg)
            if cand is not None and cand.kind == "crossing":
                lam_hit = max(float(cand.y[0]), 1.0)  # guard against event round-off
                after = TrackPoint(s=cand.s, lam=lam_hit, x=cand.y[1:],
                                   tangent=points[-1].tangent)
                return _land(points, after, hmap, cfg, checkpoint_hit=k)
            y = endpoint
            known.clear()  # record() puts back y, where the next interval starts
            record(sol.t[-1], y)
            if cand is not None:  # residual-based acceptance before lam reaches 1
                return CurveTrace(points=points, status=STATUS_RESIDUAL,
                                  hsol=y[1:].copy(), checkpoint_hit=k)
    except _TRACK_ERRORS as exc:
        return _failure(exc, points, y[1:].copy() if points else None)
    return CurveTrace(points=points, status=STATUS_EXHAUSTED, hsol=y[1:].copy())


def track(hmap, cfg: TrackerConfig, a: Optional[Array] = None) -> CurveTrace:
    """Dispatch to the configured strategy."""
    if cfg.strategy == "pc":
        return pc_track(hmap, a=a, cfg=cfg)
    return ode_track(hmap, a=a, cfg=cfg)
