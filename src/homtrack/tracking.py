"""Zero-curve tracking from (lam, x) = (0, a) toward lam = 1.

Two interchangeable strategies trace the curve rho(lam, x) = 0:

* ``pc``  -- predictor-corrector stepping: Hermite cubic prediction through
  the last two accepted points, normal-flow correction back onto the curve,
  step doubling/halving driven by corrector effort.
* ``ode`` -- integrate the tangent field with the adaptive Dormand & Prince
  RK5(4) pair, stopping at the first upward lam = 1 crossing and checking
  the corrected endpoint of each of the C_n + 1 equal checkpoint intervals
  of [0, S_f] for a candidate solution.

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
linear-algebra failure.  At the sizes tracked here a point costs mostly call
overhead, not flops, so dgeqrf's workspace is queried once per shape, Q is
applied to one constant e_{n+1} per size, and norms and volumes are Python
floats.

``_curve_system`` is the trackers' one entry point per curve point.  It
factorizes the system ``hmap.curve_system(lam, x)`` hands over: one matrix,
lambda column first, and a lift that takes its vectors back to the full
(lam, x) vector.  The result is a ``Factorization`` record: the packed
factors, the lift, the unit null vector (not yet oriented) and the volume.
The tangent, signed by the one acute-angle rule ``_chain`` or a start rule,
the adjugate field's speed and the corrector's step are all read from it.
For a HomotopyMap that matrix is the curve Jacobian itself and the lift is
the identity.  NcpHomotopy with a diagonal A (every complementarity solve of
the CLI, which sets A = alpha I) hands over a reduced n x (n+1) system
instead of its 2n x (2n+1) Jacobian: the lower blocks of that Jacobian are
diagonal, so each of their rows eliminates one of x_i, y_i, the one whose
coefficient is larger in magnitude.  For lam <= 1 the two coefficients are
nonnegative and sum to at least 2, so every pivot is at least 1 and every
multiplier at most 1 in magnitude.  The unit tangent is the normalized lift
of the reduced null vector; the volume is prod |pivot_i| times the reduced
prod |R_ii| times the norm of that lift; the corrector's step is the lift of
the reduced minimum-norm solution, the eliminated variables carrying their
b_bot / pivot term, less its component along the unit tangent.  Past lam = 1
a pivot can be below 1; one at most RANK_RTOL times the largest is a rank
deficiency.  Only a non-diagonal A takes the dense Jacobian, the same path a
HomotopyMap takes.

The pair is this module's own ``solve_ivp``, one call per checkpoint
interval.  It repeats scipy's RK45 operation by operation, so traces are
bit-identical to it, but it sets up no solver object, wraps no field, keeps
no event state and forms the dense output only on the crossing step: at the
dimensions of the reference tables, where a field evaluation is mostly call
overhead, scipy's per-interval and per-step machinery is a large share of a
solve.

Points, tangents and curve Jacobians all use the (lam, x) layout with
lambda first: homotopy contexts write their Jacobians as
[d rho/d lam | d rho/dx], the order the factorization reads.

The ODE field comes in two parametrizations:

* ``arclength`` -- unit tangent, so the integration variable is Euclidean
  arclength.  Initial orientation makes the lambda component positive;
  subsequent signs follow the acute-angle rule.
* ``adjugate`` -- the tangent scaled by the product of the singular values
  of the full Jacobian (the volume above), i.e. the signed-minor (adjugate)
  vector.  Its start orientation is the sign of det [D rho; t^T] times
  (-1)^n, which gives the lambda component the sign of det d rho/dx.  That
  sign is read off the start point's one factorization (``_orient_signed``),
  so no determinant and no dense Jacobian is formed for it.  This
  smooth unnormalized field is the classical alternative to arclength
  parametrization; the reference experiment tables are reproducible only
  under it, because a start matrix with a large SPD shift makes the field
  fast and collapses the number of checked intervals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy.linalg import lapack

from .problems import DomainError, eval_F, jacobian, residual_scale, scaled_residual

Array = np.ndarray

# the curve Jacobian is declared rank deficient when min |R_ii| of the QR
# factorization of its transpose is at most this fraction of max |R_ii|
RANK_RTOL = 1e-12

# largest tolerated prediction overshoot past lam = 1 before the step shrinks
_LAMBDA_OVERSHOOT = 0.05

# pc step control: the first step, the step below which the run ends
# step_underflow, and the cap on step doubling
H0 = 0.1
H_MIN = 1e-10
H_MAX = 0.5

# the normal-flow corrector stops once |z| / (1 + |w|) is at most
# CORRECTOR_TOL, and fails after CORRECTOR_MAXIT steps; the lam = 1 Newton of
# cross_lambda1 uses the same pair
CORRECTOR_TOL = 1e-8
CORRECTOR_MAXIT = 6

# relative and absolute tolerances of solve_ivp, the ode tracker's RK45 stepper
ODE_RTOL = 1e-6
ODE_ATOL = 1e-9

# largest scaled path residual |rho|_inf / (1 + |x|) of an accepted pc point
PC_PATH_TOL = 1e-6

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
    """The tracker settings a caller chooses.  Step control, the corrector
    and the RK45 tolerances are the module constants above."""

    strategy: str = "ode"
    s_max: float = 5.0          # arclength budget S_f
    checkpoints: int = 70       # intermediate checks C_n; S_f splits into C_n + 1 intervals
    candidate_tol: float = 1e-3
    ode_field: str = "arclength"  # or "adjugate"

    def __post_init__(self):
        if self.strategy not in ("ode", "pc"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.ode_field not in ("arclength", "adjugate"):
            raise ValueError(f"unknown ode field {self.ode_field!r}")
        if not 0 < self.s_max < np.inf:
            raise ValueError(f"s_max must be positive and finite, got {self.s_max}")
        if self.checkpoints < 0:
            raise ValueError("checkpoints must be >= 0")

    @property
    def effective_path_tol(self) -> float:
        """Bound on the scaled path residual of a traced point: PC_PATH_TOL
        for pc, which rejects points above it, and ten times ODE_RTOL for ode."""
        return PC_PATH_TOL if self.strategy == "pc" else 10.0 * ODE_RTOL


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


@functools.lru_cache(maxsize=None)
def _geqrf_lwork(m: int, n: int) -> int:
    """dgeqrf's optimal workspace for an m x n matrix, queried once per
    shape: with the wrapper's default of 3n, LAPACK never takes its blocked
    code path."""
    lwork, _ = lapack.dgeqrf_lwork(m, n)
    return int(lwork)


@functools.lru_cache(maxsize=None)
def _last_unit(m: int) -> Array:
    """The last unit vector of R^m, read-only, made once per size."""
    e = np.zeros(m)
    e[-1] = 1.0
    e.flags.writeable = False
    return e


class Factorization(NamedTuple):
    """One factorized curve point: dgeqrf's packed ``qr`` and ``tau`` of the
    factorized matrix's transpose, its ``lift`` (None for the identity), the
    curve Jacobian's unit null vector ``t``, not yet oriented, and ``volume``,
    the product of that Jacobian's singular values (inf when it does not fit
    a float)."""

    qr: Array
    tau: Array
    lift: object
    t: Array
    volume: float


def _factor(mat: Array, lift=None) -> Factorization:
    """Factorize the n x (n+1) matrix ``mat`` that, with ``lift``, stands for
    a curve Jacobian.  t is Q e_{n+1}, lifted and normalized for a reduced
    system, whose volume gains the factor lift.scale times that lift's norm.

    Raises LinAlgError on a non-finite entry or a LAPACK failure, and
    RankDeficientError when min |R_ii| is at most RANK_RTOL times max |R_ii|.
    """
    # checked on the input: QR does not fail on NaN, and behind an identity
    # Householder reflector a NaN can stay off R's diagonal
    if not np.isfinite(mat).all():
        raise np.linalg.LinAlgError("curve Jacobian has a non-finite entry")
    qr, tau, _, info = lapack.dgeqrf(mat.T, lwork=_geqrf_lwork(*mat.T.shape))
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed (info = {info})")
    # Python floats: at n <= 3 numpy reductions cost as much as the
    # factorization, and a float product overflows to inf without a warning
    d = np.abs(qr.diagonal()).tolist()
    lo, hi = min(d), max(d)
    if hi == 0.0 or lo <= RANK_RTOL * hi:
        raise RankDeficientError(
            f"curve Jacobian is rank deficient (min/max |R_ii| = {lo / hi if hi else 0:.3e})")
    volume = math.prod(d)
    t = _apply_q(qr, tau, _last_unit(qr.shape[0]))
    if lift is not None:
        t = lift(t)
        # np.linalg.norm's own formula, as a Python float
        norm = math.sqrt(t.dot(t))
        t = t / norm
        volume = lift.scale * volume * norm
    return Factorization(qr, tau, lift, t, volume)


def _curve_system(hmap, lam: float, x: Array) -> Factorization:
    """The trackers' one entry point per curve point: the factorization at
    (lam, x) of the context's ``curve_system``, a matrix with the lambda
    column first and its lift."""
    return _factor(*hmap.curve_system(lam, x))


def _apply_q(qr: Array, tau: Array, v: Array) -> Array:
    """Q v for the Q that dgeqrf left as reflectors in (qr, tau)."""
    out, _, info = lapack.dormqr("L", "N", qr, tau, v[:, None], 1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dormqr failed (info = {info})")
    return out[:, 0]


def _min_norm_step(fac: Factorization, b: Array) -> Array:
    """Shortest z with J z = b for the curve Jacobian J factorized in ``fac``:
    Q [R^{-T} b; 0] for J itself, and for a reduced system the lift of K's
    shortest solution of K u = reduce(b) less its component along the unit
    tangent."""
    qr, tau, lift, t, _ = fac
    n = qr.shape[1]
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
    return z - float(t @ z) * t


def _chain(t: Array, prev: Array) -> Array:
    """The acute-angle rule: t, flipped when it points away from prev."""
    return -t if float(np.dot(t, prev)) < 0.0 else t


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


def _orient_signed(fac: Factorization) -> Array:
    """Orient the null vector t of ``fac`` along the signed-minor vector v of
    the curve Jacobian J (v_i = (-1)^i times det J without column i).

    Expanding det [J; t^T] along its last row gives (-1)^N t.v for J's N
    rows, so t is kept when (-1)^N det [J; t^T] > 0.  For J = K itself, t =
    Q e_{n+1} and [K; t^T] = [R^T; e_{n+1}^T] Q^T: the sign of the
    determinant is that of prod R_ii times (-1) for each reflector of Q (tau_i
    != 0).  For a reduced K of n rows, moving t's row past the n eliminating
    rows gives (-1)^n, and the elimination adds its own ``parity``.  N = 2n
    is even there.  In both cases t flips when #(tau_i != 0) + #(R_ii < 0) +
    n, plus the elimination's parity for a reduced system, is odd."""
    qr, tau, lift, t, _ = fac
    flips = np.count_nonzero(tau) + np.count_nonzero(qr.diagonal() < 0.0) + qr.shape[1]
    if lift is not None:
        flips += lift.parity
    return -t if flips % 2 else t


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


def normal_flow_correct(hmap, w0: Array) -> Tuple[Array, int]:
    """Return to the curve from w0 = (lam, x) by minimum-norm Newton steps.

    Each step solves the underdetermined system D rho * z = -rho for the
    shortest z, so iterates move perpendicular to the curve.  Stops once the
    normalized step |z| / (1 + |w|) falls below CORRECTOR_TOL; exceeding
    CORRECTOR_MAXIT iterations raises CorrectorError and a rank-deficient
    Jacobian raises RankDeficientError.
    """
    w = np.asarray(w0, dtype=float).copy()
    for it in range(1, CORRECTOR_MAXIT + 1):
        r = hmap.rho(w[0], w[1:])
        z = _min_norm_step(_curve_system(hmap, w[0], w[1:]), -r)
        w = w + z
        if np.linalg.norm(z) / (1.0 + np.linalg.norm(w)) <= CORRECTOR_TOL:
            return w, it
    raise CorrectorError(f"no convergence in {CORRECTOR_MAXIT} corrector iterations")


def cross_lambda1(before: TrackPoint, after: TrackPoint, hmap) -> Tuple[Array, bool]:
    """Turn a lam = 1 crossing bracket into the solution estimate hsol.

    This is the one landing routine of both trackers.  It works in three
    steps:

    1. bisect the bracket along the curve: chord midpoints are corrected back
       onto the curve and replace the end on their side of lam = 1, until the
       upper end lies within CORRECTOR_TOL of the hyperplane or a
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
    for _ in range(80):
        if hi[0] - 1.0 <= CORRECTOR_TOL or float(np.linalg.norm(hi - lo)) <= 1e-12:
            break
        try:
            mid, _ = normal_flow_correct(hmap, 0.5 * (lo + hi))
        except (CorrectorError,) + _TRACK_ERRORS:
            break
        if mid[0] >= 1.0:
            hi = mid
        else:
            lo = mid
    frac = (1.0 - before.lam) / (hi[0] - before.lam)
    x = before.x + frac * (hi[1:] - before.x)
    x0 = x.copy()
    for _ in range(CORRECTOR_MAXIT):
        try:
            step = np.linalg.solve(jacobian(hmap.problem, x), -eval_F(hmap.problem, x))
        except (np.linalg.LinAlgError, DomainError):
            return x0, True
        x = x + step
        if np.linalg.norm(step) / (1.0 + np.linalg.norm(x)) <= CORRECTOR_TOL:
            return x, False
    return x0, True


def _land(points: List[TrackPoint], after: TrackPoint, hmap, **outcome) -> CurveTrace:
    """Close a trace whose last point and ``after`` bracket lam = 1: land with
    cross_lambda1 and append (1, hsol) with its tangent, at the arclength
    interpolated linearly in lam across the bracket."""
    before = points[-1]
    hsol, flagged = cross_lambda1(before, after, hmap)
    try:
        t_end = _chain(_curve_system(hmap, 1.0, hsol).t, before.tangent)
    except _TRACK_ERRORS:
        t_end = before.tangent
    frac = (1.0 - before.lam) / (after.lam - before.lam)
    s_end = max(before.s + frac * (after.s - before.s), before.s + 1e-13)
    points.append(TrackPoint(s=s_end, lam=1.0, x=hsol, tangent=t_end))
    return CurveTrace(points=points, status=STATUS_REACHED, hsol=hsol,
                      endpoint_flagged=flagged, **outcome)


def _path_residual(hmap, lam: float, x: Array) -> float:
    return float(np.max(np.abs(hmap.rho(lam, x))) / residual_scale(x))


def pc_track(hmap, cfg: Optional[TrackerConfig] = None) -> CurveTrace:
    """Predictor-corrector tracking from (0, hmap.anchor) until lam crosses 1.

    Step control: the first step is H0; corrector success within two
    iterations doubles h (capped at H_MAX); corrector failure, including an
    iterate outside F's domain, halves h and repredicts; h underflow below
    H_MIN aborts the run.  The first prediction is linear, later ones Hermite
    cubic.
    """
    cfg = cfg or TrackerConfig(strategy="pc")
    a = np.asarray(hmap.anchor, dtype=float)
    points: List[TrackPoint] = []
    h = H0
    steps = 0
    try:
        t0 = _orient_first(_curve_system(hmap, 0.0, a).t)
        points.append(TrackPoint(s=0.0, lam=0.0, x=a, tangent=t0))
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
            if cur.lam < 1.0 and w_pred[0] > 1.0 + _LAMBDA_OVERSHOOT and h > H_MIN:
                h *= 0.5
                continue
            try:
                w_new, iters = normal_flow_correct(hmap, w_pred)
                accept = _path_residual(hmap, w_new[0], w_new[1:]) <= PC_PATH_TOL
                # a corrected point that collapsed onto the previous one is useless
                accept = accept and np.linalg.norm(w_new - cur.coords) > 1e-12
                # a correction much larger than the step means the predictor left
                # the curve's neighborhood (risking a jump to another component)
                corr_dist = float(np.linalg.norm(w_new - w_pred))
                accept = accept and corr_dist <= max(
                    0.25 * h, 1e3 * CORRECTOR_TOL * (1.0 + np.linalg.norm(w_new)))
            except (CorrectorError, DomainError):
                accept = False
            if not accept:
                h *= 0.5
                if h < H_MIN:
                    return CurveTrace(points=points, status=STATUS_UNDERFLOW,
                                      hsol=cur.x.copy(), steps=steps)
                continue

            steps += 1
            new = TrackPoint(s=cur.s + float(np.linalg.norm(w_new - cur.coords)),
                             lam=float(w_new[0]), x=w_new[1:], tangent=cur.tangent)
            if new.lam >= 1.0:
                return _land(points, new, hmap, steps=steps)
            t_new = _chain(_curve_system(hmap, new.lam, new.x).t, cur.tangent)
            points.append(replace(new, tangent=t_new))
            if iters <= 2:
                h = min(2.0 * h, H_MAX)
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


# The Dormand & Prince (1980) RK5(4) pair, as Hairer, Norsett & Wanner give it
# in *Solving Ordinary Differential Equations I* (2nd ed., 1993), II.4 and
# II.6: nodes, stage weights, the order-5 weights, the difference of the two
# embedded solutions' weights (FSAL stage last) and the quartic dense output
# with the optimal c_6.  These are the arrays of scipy's RK45.
_RK_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_RK_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])

# step-size control: the safety factor, the bounds on the change of one step,
# and the exponent -1 / (q + 1) of the order q = 4 error estimate
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 5


class OdeRun(NamedTuple):
    """The outcome of ``solve_ivp``: the accepted step points ``t`` and ``y``
    (one column per point, the start included, the lam = 1 crossing last when
    ``crossed``), the number of field evaluations, and False when the step
    size fell below the spacing of the floats."""

    t: Array
    y: Array
    nfev: int
    success: bool
    crossed: bool


def _rms(x: Array):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t: float, y: Array, f: Array, span: float):
    """First step size from the field at the start and at one probe point
    (Hairer, Norsett & Wanner II.4, "Starting Step Size")."""
    scale = ODE_ATOL + np.abs(y) * ODE_RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span)


def solve_ivp(fun, t_span, y0) -> OdeRun:
    """Integrate y' = fun(s, y) from y(s0) = y0 over t_span = (s0, s1), s0 <=
    s1, with the Dormand-Prince pair at ODE_RTOL and ODE_ATOL, and stop at the
    first upward crossing of y[0] = 1: past it the curve no longer matters,
    and the adjugate field may blow up in finite parameter time.

    The run is scipy's ``solve_ivp(fun, t_span, y0, method="RK45",
    rtol=ODE_RTOL, atol=ODE_ATOL, events=[e])`` (scipy 1.17) for the terminal
    upward event e(s, y) = y[0] - 1, operation by operation: the same field
    evaluations in the same order, rejected attempts included, and the same
    floating-point arithmetic, so a stateful ``fun`` sees the same calls and
    every step point comes out bit-identical.  Only the crossing step forms
    the dense output, on which brentq locates the crossing.  ``fun`` returns a
    float array of y's shape.
    """
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    ts, ys = [t], [y0]
    f = fun(t, y)
    if t == t_bound:  # a zero-length span takes no step
        ts.append(t)
        ys.append(y)
        return OdeRun(np.array(ts), np.vstack(ys).T, 1, True, bool(y[0] == 1.0))
    h_abs = _initial_step(fun, t, y, f, t_bound - t)
    nfev = 2
    K = np.empty((7, y.size))
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return OdeRun(np.array(ts), np.vstack(ys).T, nfev, False, False)
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(t + _RK_C[s] * h, y + np.dot(K[:s].T, _RK_A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _RK_B)
            K[-1] = f_new = fun(t + h, y_new)
            nfev += 6
            scale = ODE_ATOL + np.maximum(np.abs(y), np.abs(y_new)) * ODE_RTOL
            error_norm = _rms(np.dot(K.T, _RK_E) * h / scale)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if y_old[0] <= 1.0 <= y[0]:
            from scipy.optimize import brentq

            Q = K.T.dot(_RK_P)

            def dense(s):
                x = (s - t_old) / h
                out = h * np.dot(Q, np.cumprod(np.full(4, x)))
                out += y_old
                return out

            eps4 = 4 * np.finfo(float).eps
            root = brentq(lambda s: dense(s)[0] - 1.0, t_old, t, xtol=eps4, rtol=eps4)
            ts.append(root)
            ys.append(dense(root))
            return OdeRun(np.array(ts), np.vstack(ys).T, nfev, True, True)
        ts.append(t)
        ys.append(y)
        if t >= t_bound:
            return OdeRun(np.array(ts), np.vstack(ys).T, nfev, True, False)


def ode_track(hmap, cfg: Optional[TrackerConfig] = None) -> CurveTrace:
    """Track the curve by integrating the tangent field, checking for a
    candidate after each of the C_n + 1 equal subintervals of [0, S_f].

    Integration stops at the first upward lam = 1 crossing.  Otherwise one
    normal-flow correction is applied at every checkpoint boundary to pull
    the integrated path back onto the curve, and the corrected endpoint is
    scanned; the trace stops at the first candidate and records the interval
    index N_c.
    """
    cfg = cfg or TrackerConfig(strategy="ode")
    a = np.asarray(hmap.anchor, dtype=float)
    adjugate = cfg.ode_field == "adjugate"
    prev = None  # the field's last value, which orients the next one
    # null vector and volume of every point factorized in the current
    # checkpoint interval, keyed by the bytes of (lam, x).  record() finds
    # each accepted step point here, because solve_ivp evaluated the field
    # there as the last stage of the step that reached it (the stage its next
    # step reuses, FSAL); rhs finds the interval's start point, which the
    # start or record() factorized.  Only (t, volume) is kept: an adjugate
    # run can factorize thousands of points in one interval
    known: Dict[bytes, Tuple[Array, float]] = {}

    def null_and_volume(y):
        key = y.tobytes()
        if key not in known:
            fac = _curve_system(hmap, y[0], y[1:])
            known[key] = fac.t, fac.volume
        return known[key]

    def rhs(s, y):
        nonlocal prev
        t, vol = null_and_volume(y)
        prev = t = _chain(t, prev)
        if not adjugate:
            return t
        if not math.isfinite(vol):
            raise FieldOverflowError(f"adjugate field magnitude overflows at lam = {y[0]:.6g}")
        return t * vol

    points: List[TrackPoint] = []

    def record(s, w):
        # integrator step points go into the trace so it resolves folds;
        # tangents chain off the previous recorded one
        t_here = _chain(null_and_volume(w)[0], points[-1].tangent)
        points.append(TrackPoint(s=float(s), lam=float(w[0]), x=w[1:].copy(),
                                 tangent=t_here))

    edges = np.linspace(0.0, cfg.s_max, cfg.checkpoints + 2)
    y = np.concatenate([[0.0], a])
    try:
        start = _curve_system(hmap, 0.0, a)
        known[y.tobytes()] = start.t, start.volume
        prev = t0 = _orient_signed(start) if adjugate else _orient_first(start.t)
        points.append(TrackPoint(s=0.0, lam=0.0, x=a.copy(), tangent=t0))
        for k in range(1, len(edges)):
            s0, s1 = float(edges[k - 1]), float(edges[k])
            sol = solve_ivp(rhs, (s0, s1), y)
            for i in range(1, len(sol.t) - 1):
                record(sol.t[i], sol.y[:, i])
            if sol.crossed:
                cand = Candidate(kind="crossing", s=float(sol.t[-1]), y=sol.y[:, -1])
            elif not sol.success:
                return CurveTrace(points=points, status=STATUS_UNDERFLOW, hsol=y[1:].copy())
            else:
                endpoint = sol.y[:, -1]
                try:
                    endpoint, _ = normal_flow_correct(hmap, endpoint)
                except (CorrectorError, RankDeficientError, DomainError):
                    pass  # keep the uncorrected endpoint; the next interval retries
                cand = checkpoint_scan(float(sol.t[-1]), endpoint, hmap, cfg)
            if cand is not None and cand.kind == "crossing":
                lam_hit = max(float(cand.y[0]), 1.0)  # guard against event round-off
                after = TrackPoint(s=cand.s, lam=lam_hit, x=cand.y[1:],
                                   tangent=points[-1].tangent)
                return _land(points, after, hmap, checkpoint_hit=k)
            y = endpoint
            known.clear()  # record() puts back y, where the next interval starts
            record(sol.t[-1], y)
            if cand is not None:  # residual-based acceptance before lam reaches 1
                return CurveTrace(points=points, status=STATUS_RESIDUAL,
                                  hsol=y[1:].copy(), checkpoint_hit=k)
    except _TRACK_ERRORS as exc:
        return _failure(exc, points, y[1:].copy() if points else None)
    return CurveTrace(points=points, status=STATUS_EXHAUSTED, hsol=y[1:].copy())


def track(hmap, cfg: TrackerConfig) -> CurveTrace:
    """Dispatch to the configured strategy."""
    if cfg.strategy == "pc":
        return pc_track(hmap, cfg=cfg)
    return ode_track(hmap, cfg=cfg)
