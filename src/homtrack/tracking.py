"""Zero-curve tracking from (lam, x) = (0, a) toward lam = 1.

Two interchangeable strategies trace the curve rho(lam, x) = 0:

* ``pc``  -- predictor-corrector stepping: Hermite cubic prediction through
  the last two accepted points, normal-flow correction back onto the curve,
  and the asymptotic step-length adaptation of Allgower & Georg (1990),
  section 6.1: the next step follows the corrector's first step, its
  contraction rate and the angle between consecutive tangents.  An accepted
  point's tangent is read off the corrector's last factorization.
* ``ode`` -- integrate the tangent field with the adaptive Dormand & Prince
  RK5(4) pair, stopping after the first step that crosses lam = 1 and checking
  the corrected endpoint of each of the C_n + 1 equal checkpoint intervals
  of [0, S_f] for a candidate solution.

Both trackers hand their lam = 1 crossing bracket, the last point below
lam = 1 and the first at or past it, to ``cross_lambda1``, the one routine
that places the crossing.  It splits the bracket along the curve with
corrected points where the chord meets lam = 1 (regula falsi with the
Illinois rule) and then runs Newton in the lam = 1 hyperplane.  A numerical
failure ends the trace with a typed status (rank deficiency, domain error,
field overflow, linear-algebra failure) instead of raising.

Each curve Jacobian J (n x (n+1)) is factorized once, as the Householder QR
factorization J^T = Q R of LAPACK's dgeqrf (Allgower & Georg, *Numerical
Continuation Methods*, 1990; Watson et al., HOMPACK90, ACM TOMS 23, 1997).
Q is never formed: it stays as the n reflectors dgeqrf stores below R, and
dormqr applies it to a vector.  Q e_{n+1} spans the null space of J, so it is
the unit tangent up to sign; prod |R_ii| is the product of J's singular
values; a small relative |R_ii| flags rank deficiency; and the corrector's
minimum-norm step solving J z = -rho is Q [R^{-T} (-rho); 0], with LAPACK's
dtrtrs for the triangular solve.  The corrector factorizes an iterate only
while its last step was longer than sqrt(CORRECTOR_TOL) relative to the
point's scale; shorter steps leave the next one on the factorization it
holds (simplified Newton).  A non-finite Jacobian entry is a linear-algebra
failure, unless F or F' is not finite there, a domain error (see
``_curve_system``).  At the sizes tracked here a point costs mostly call
overhead, not flops, so dgeqrf's workspace is queried once per shape, Q is
applied to one constant read-only e_{n+1} column per size, the finiteness
test counts the finite entries (``problems.all_finite``), and norms and
volumes are Python floats.  For the same reason ``solve_ivp`` binds each stage's views of its
stage matrix once per call, and the ode field orients its tangent inline and
keeps it beside the factorization, where the step's record reads it.  The
field hands lam on as the numpy scalar y[0]: a Python float would make a
stage's huge lam raise OverflowError in a power (``4.0 * mu**2`` in
NcpHomotopy's smoothing term), where numpy returns inf for the finiteness
checks to type.

``_curve_system`` is the trackers' one entry point per curve point.  It
factorizes the system ``hmap.curve_system(lam, x)`` hands over: one matrix,
lambda column first, and a lift that takes its vectors back to the full
(lam, x) vector.  The result is a ``Factorization`` record: the packed
factors, the lift, the unit null vector (not yet oriented) and the volume.
The tangent (a start rule's sign, or ``_chain``'s off the last accepted
point's tangent), the adjugate speed and the corrector's step are read off it.
The factorization's finiteness scan is the point's one check; a system that
fails it goes back to the context's ``check_domain``, which raises the
DomainError of a non-finite F or F' there.
For a HomotopyMap that matrix is the curve Jacobian itself and the lift is
the identity.  NcpHomotopy, whose shift is alpha I, hands over a reduced
n x (n+1) system instead of its 2n x (2n+1) Jacobian: the lower blocks of
that Jacobian are diagonal, so each of their rows eliminates one of x_i,
y_i, the one whose coefficient is larger in magnitude.  For lam <= 1 the two
coefficients are nonnegative and sum to at least 2, so every pivot is at
least 1 and every multiplier at most 1 in magnitude.  The unit tangent is
the normalized lift of the reduced null vector; the volume is prod |pivot_i|
times the reduced prod |R_ii| times the norm of that lift; the corrector's
step is the lift of the reduced minimum-norm solution, the eliminated
variables carrying their b_bot / pivot term, less its component along the
unit tangent.  Past lam = 1 a pivot can be below 1; one at most RANK_RTOL
times the largest is a rank deficiency.

The pair is this module's own ``solve_ivp``, one call per checkpoint
interval.  It repeats scipy's RK45 steps operation by operation, so traces
are bit-identical to them, but it sets up no solver object, wraps no field
and forms no dense output: at the dimensions of the reference tables, where
a field evaluation is mostly call overhead, scipy's per-interval and
per-step machinery is a large share of a solve.

Points, tangents and curve Jacobians all use the (lam, x) layout with
lambda first: homotopy contexts write their Jacobians as
[d rho/d lam | d rho/dx], the order the factorization reads.

The ODE field comes in two parametrizations.  Past the start, both orient
every RK stage, rejected ones included, off the last accepted tangent:

* ``arclength`` -- unit tangent, so the integration variable is Euclidean
  arclength.  Initial orientation makes the lambda component positive.
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
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
from scipy.linalg import lapack

from .problems import (DomainError, all_finite, check_positive, eval_F, jacobian,
                       residual_scale, scaled_residual, vector_norm)

Array = np.ndarray

# the curve Jacobian is declared rank deficient when min |R_ii| of the QR
# factorization of its transpose is at most this fraction of max |R_ii|
RANK_RTOL = 1e-12

# largest tolerated prediction overshoot past lam = 1 before the step shrinks
_LAMBDA_OVERSHOOT = 0.05

# pc step control: the first step and the step below which the run ends
# step_underflow
H0 = 0.1
H_MIN = 1e-10

# nominal values of the pc step's asymptotic adaptation (Allgower & Georg,
# *Numerical Continuation Methods*, 1990, section 6.1; Den Heijer &
# Rheinboldt 1981): the contraction rate |z_2| / |z_1| of the first two
# corrector steps, the first corrector step |z_1| relative to residual_scale
# of the corrected point, and the angle in radians between consecutive unit
# tangents
KAPPA_NOM = 0.5
DELTA_NOM = 0.1
ALPHA_NOM = 0.2

# the normal-flow corrector stops once |z| / (1 + |w|) is at most
# CORRECTOR_TOL, and fails after CORRECTOR_MAXIT steps; the lam = 1 Newton of
# cross_lambda1 uses the same pair
CORRECTOR_TOL = 1e-8
CORRECTOR_MAXIT = 6

# a corrector step at most this long relative to residual_scale leaves the
# next step on the factorization already held (simplified Newton)
_HOLD_TOL = math.sqrt(CORRECTOR_TOL)

# relative and absolute tolerances of solve_ivp, the ode tracker's RK45 stepper
ODE_RTOL = 1e-6
ODE_ATOL = 1e-9

# largest scaled path residual |rho|_inf / (1 + |x|) of an accepted pc point
PC_PATH_TOL = 1e-6

# largest scaled target residual of a corrected ode checkpoint endpoint that
# ends the trace as a candidate before lam reaches 1
CANDIDATE_TOL = 1e-3

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


STRATEGIES = ("ode", "pc")
ODE_FIELDS = ("adjugate", "arclength")


@dataclass(frozen=True)
class TrackerConfig:
    """The tracker settings a caller chooses.  Step control, the corrector
    and the RK45 tolerances are the module constants above."""

    strategy: str = "ode"
    s_max: float = 5.0          # arclength budget S_f
    checkpoints: int = 70       # intermediate checks C_n; S_f splits into C_n + 1 intervals
    ode_field: str = "arclength"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.ode_field not in ODE_FIELDS:
            raise ValueError(f"unknown ode field {self.ode_field!r}")
        check_positive(self.s_max, "s_max")
        if self.checkpoints < 0:
            raise ValueError("checkpoints must be >= 0")


@dataclass
class CurveTrace:
    """Ordered accepted points plus the outcome of a tracking run.

    ``n_c`` is the table's N_c: under ode the 1-based index of the checkpoint
    interval where a candidate was found, None when none was; under pc the
    accepted step count.
    """

    points: List[TrackPoint]
    status: str
    hsol: Optional[Array] = None
    n_c: Optional[int] = None
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
    """The last unit vector of R^m as a read-only (m, 1) column, the shape
    dormqr takes, made once per size."""
    e = np.zeros((m, 1))
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


def check_rank(mags: List[float], what: str) -> None:
    """The one rank test of a factorized curve point: RankDeficientError
    when the smallest of the magnitudes ``mags``, named ``what`` in the
    message, is at most RANK_RTOL times the largest, or all are zero."""
    lo, hi = min(mags), max(mags)
    if hi == 0.0 or lo <= RANK_RTOL * hi:
        raise RankDeficientError(
            f"curve Jacobian is rank deficient (min/max {what} = {lo / hi if hi else 0:.3e})")


def _factor(mat: Array, lift=None) -> Factorization:
    """Factorize the n x (n+1) matrix ``mat`` that, with ``lift``, stands for
    a curve Jacobian.  t is Q e_{n+1}, lifted and normalized for a reduced
    system, whose volume gains the factor lift.scale times that lift's norm.

    Raises LinAlgError on a non-finite entry or a LAPACK failure, and
    RankDeficientError when ``check_rank`` refuses the |R_ii|.
    """
    # checked on the input: QR does not fail on NaN, and behind an identity
    # Householder reflector a NaN can stay off R's diagonal
    if not all_finite(mat):
        raise np.linalg.LinAlgError("curve Jacobian has a non-finite entry")
    mat_t = mat.T
    qr, tau, _, info = lapack.dgeqrf(mat_t, lwork=_geqrf_lwork(*mat_t.shape))
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed (info = {info})")
    # Python floats: at n <= 3 numpy reductions cost as much as the
    # factorization, and a float product overflows to inf without a warning
    d = np.abs(qr.diagonal()).tolist()
    check_rank(d, "|R_ii|")
    volume = math.prod(d)
    q_e, _, info = lapack.dormqr("L", "N", qr, tau, _last_unit(qr.shape[0]), 1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dormqr failed (info = {info})")
    t = q_e[:, 0]
    if lift is not None:
        t = lift(t)
        # np.linalg.norm's own formula, as a Python float
        norm = math.sqrt(t.dot(t))
        t /= norm  # the lift's fresh array
        volume = lift.scale * volume * norm
    return Factorization(qr, tau, lift, t, volume)


def _curve_system(hmap, lam: float, x: Array) -> Factorization:
    """The trackers' one entry point per curve point: the factorization at
    (lam, x) of the context's ``curve_system``, a matrix with the lambda
    column first and its lift.

    ``_factor``'s scan is the one finiteness check of a point that
    evaluates cleanly.  When it fails, the context's ``check_domain`` re-runs
    at (lam, x) the checked evaluations its system was built from: a
    non-finite F or F' raises DomainError there, and otherwise the
    LinAlgError of an overflowed entry stands."""
    mat, lift = hmap.curve_system(lam, x)
    try:
        return _factor(mat, lift)
    except np.linalg.LinAlgError:
        hmap.check_domain(lam, x)
        raise


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
    return -t if float(t.dot(prev)) < 0.0 else t


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


class Correction(NamedTuple):
    """The outcome of ``normal_flow_correct``: the corrected point ``w``, the
    number of ``iterations``, the length ``first_step`` = |z_1| of the first
    corrector step, the ``contraction`` rate |z_2| / |z_1|, 0.0 when the
    first step converged, and ``fac``, the factorization the last step read."""

    w: Array
    iterations: int
    first_step: float
    contraction: float
    fac: Factorization


def normal_flow_correct(hmap, w0: Array,
                        fac: Optional[Factorization] = None) -> Correction:
    """Return to the curve from w0 = (lam, x) by minimum-norm Newton steps.

    Each step solves the underdetermined system D rho * z = -rho for the
    shortest z, so iterates move perpendicular to the curve.  Stops once the
    normalized step |z| / residual_scale(w) falls below CORRECTOR_TOL;
    exceeding CORRECTOR_MAXIT iterations raises CorrectorError and a
    rank-deficient Jacobian raises RankDeficientError.  ``fac``, when the
    caller holds it, is the factorization at w0 itself, which the first step
    then reads instead of factorizing w0 again.

    The tail is simplified Newton (Allgower & Georg, 1990, chapter 6): once a
    normalized step is at most sqrt(CORRECTOR_TOL), the iterate is that close
    to the held factorization's point, and the following steps read the held
    factorization instead of factorizing each iterate; they still contract
    by a factor of about that distance.  The returned ``fac`` is therefore at
    most about sqrt(CORRECTOR_TOL) * residual_scale(w) from the corrected
    point, close enough to read its tangent from.
    """
    w = np.asarray(w0, dtype=float).copy()
    first_step = contraction = 0.0
    hold = fac is not None
    for it in range(1, CORRECTOR_MAXIT + 1):
        r = hmap.rho(w[0], w[1:])
        if not hold:
            fac = _curve_system(hmap, w[0], w[1:])
        z = _min_norm_step(fac, -r)
        w = w + z
        dz = float(np.linalg.norm(z))
        if it == 1:
            first_step = dz
        elif it == 2:
            contraction = dz / first_step
        rel = dz / residual_scale(w)
        if rel <= CORRECTOR_TOL:
            return Correction(w, it, first_step, contraction, fac)
        hold = rel <= _HOLD_TOL
    raise CorrectorError(f"no convergence in {CORRECTOR_MAXIT} corrector iterations")


def cross_lambda1(before: TrackPoint, after: TrackPoint, hmap) -> Tuple[Array, bool]:
    """Turn a lam = 1 crossing bracket into the solution estimate hsol.

    This is the one landing routine of both trackers.  It works in three
    steps:

    1. split the bracket along the curve by regula falsi: the point where
       the chord meets lam = 1 is corrected back onto the curve and replaces
       the upper end when it lies at lam >= 1 - CORRECTOR_TOL, the lower end
       otherwise, until the upper end lies within CORRECTOR_TOL of the
       hyperplane, for at most 80 corrections.  The cut reads each end's
       lam - 1, and when the same end is replaced twice in a row the other
       end's value is halved (the Illinois rule of Dowell & Jarratt, BIT 11,
       1971), so a bent curve cannot hold one end fixed while the other
       creeps toward lam = 1.  A failed correction halves the next cut's
       step from the lower end along the chord, and a successful one
       restores the full regula-falsi step.  Because the split points are
       on the curve, a bracket that jumped a steep or bent terminal segment,
       such as a whole RK step of the ode tracker, still lands on the right
       root;
    2. interpolate linearly from ``before`` to the refined upper end at
       lam = 1;
    3. run Newton on the target system in the lam = 1 hyperplane.

    Returns (hsol, flagged); flagged means the Newton correction failed and
    the raw interpolant was kept.
    """
    if not (before.lam < 1.0 <= after.lam):
        raise ValueError("cross_lambda1 requires lam(before) < 1 <= lam(after)")
    lo, hi = before.coords, after.coords
    # lam - 1 at each end as the cut reads it, and the end replaced last
    f_lo, f_hi = lo[0] - 1.0, hi[0] - 1.0
    replaced = None
    # fraction of the regula-falsi step from lo that the next cut takes
    shrink = 1.0
    for _ in range(80):
        if hi[0] - 1.0 <= CORRECTOR_TOL or vector_norm(hi - lo) <= 1e-12:
            break
        cut = lo + shrink * f_lo / (f_lo - f_hi) * (hi - lo)
        try:
            mid = normal_flow_correct(hmap, cut).w
        except (CorrectorError,) + _TRACK_ERRORS:
            shrink *= 0.5
            continue
        shrink = 1.0
        if mid[0] >= 1.0 - CORRECTOR_TOL:
            hi, f_hi = mid, mid[0] - 1.0
            if replaced == "hi":
                f_lo *= 0.5
            replaced = "hi"
        else:
            lo, f_lo = mid, mid[0] - 1.0
            if replaced == "lo":
                f_hi *= 0.5
            replaced = "lo"
    frac = (1.0 - before.lam) / (hi[0] - before.lam)
    x = before.x + frac * (hi[1:] - before.x)
    x0 = x.copy()
    for _ in range(CORRECTOR_MAXIT):
        try:
            step = np.linalg.solve(jacobian(hmap.problem, x), -eval_F(hmap.problem, x))
        except (np.linalg.LinAlgError, DomainError):
            return x0, True
        x = x + step
        if vector_norm(step) / residual_scale(x) <= CORRECTOR_TOL:
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


def _pc_track(hmap, cfg: TrackerConfig) -> CurveTrace:
    """Predictor-corrector tracking from (0, hmap.anchor) until lam crosses 1.

    Step control is the asymptotic adaptation of Allgower & Georg (1990),
    section 6.1.  The first step is H0.  A corrected point is checked, and
    then its deceleration factor f = max(sqrt(kappa / KAPPA_NOM),
    sqrt(delta / DELTA_NOM)) is read off the correction: kappa its
    contraction rate and delta its first step relative to residual_scale of
    the corrected point.  f >= 2, corrector failure (including an iterate
    outside F's domain) and a failed check each halve h and repredict; h
    underflow below H_MIN aborts the run.  An accepted step adds the angle
    alpha between its tangent and the last one, f = max(f, alpha /
    ALPHA_NOM), and the next step is h / f with f clamped to [1/2, 2].  The
    first prediction is linear, later ones Hermite cubic.  An accepted
    point's tangent is the null vector of the correction's last
    factorization (``Correction.fac``), made at most about sqrt(CORRECTOR_TOL)
    times the point's scale away, so accepting a point factorizes nothing.
    """
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
                                  hsol=cur.x.copy(), n_c=steps)
            if len(points) == 1:
                w_pred = cur.coords + h * cur.tangent
            else:
                w_pred = hermite_predict(points[-2], points[-1], h)
            # predicting deep past the target hyperplane wastes effort and risks
            # corrector capture by a foreign component of the zero set
            if w_pred[0] > 1.0 + _LAMBDA_OVERSHOOT and h > H_MIN:
                h *= 0.5
                continue
            try:
                cor = normal_flow_correct(hmap, w_pred)
                w_new, scale = cor.w, residual_scale(cor.w)
                accept = _path_residual(hmap, w_new[0], w_new[1:]) <= PC_PATH_TOL
                # a corrected point that collapsed onto the previous one is useless
                dist = float(np.linalg.norm(w_new - cur.coords))
                accept = accept and dist > 1e-12
                # a correction much larger than the step means the predictor left
                # the curve's neighborhood (risking a jump to another component)
                corr_dist = float(np.linalg.norm(w_new - w_pred))
                accept = accept and corr_dist <= max(0.25 * h, 1e3 * CORRECTOR_TOL * scale)
                # a correction far from the nominal one means the step was too long
                f = max(math.sqrt(cor.contraction / KAPPA_NOM),
                        math.sqrt(cor.first_step / (DELTA_NOM * scale)))
                accept = accept and f < 2.0
            except (CorrectorError, DomainError):
                accept = False
            if not accept:
                h *= 0.5
                if h < H_MIN:
                    return CurveTrace(points=points, status=STATUS_UNDERFLOW,
                                      hsol=cur.x.copy(), n_c=steps)
                continue

            steps += 1
            lam_new = float(w_new[0])
            if lam_new >= 1.0:
                after = TrackPoint(s=cur.s + dist, lam=lam_new, x=w_new[1:], tangent=cur.tangent)
                return _land(points, after, hmap, n_c=steps)
            t_new = _chain(cor.fac.t, cur.tangent)
            points.append(TrackPoint(s=cur.s + dist, lam=lam_new, x=w_new[1:], tangent=t_new))
            f = max(f, math.acos(min(1.0, float(t_new.dot(cur.tangent)))) / ALPHA_NOM)
            h /= min(max(f, 0.5), 2.0)
    except _TRACK_ERRORS as exc:
        return _failure(exc, points, points[-1].x.copy() if points else None, n_c=steps)


def checkpoint_scan(endpoint: Array, hmap) -> Optional[str]:
    """Classify the endpoint (lam, x) of a checkpoint interval.

    It is a ``"crossing"`` when it lies at lam >= 1, as a crossing RK step's
    end does and a drift correction can; a ``"residual"`` candidate when its
    scaled target residual is within CANDIDATE_TOL; and None otherwise.
    """
    if endpoint[0] >= 1.0:
        return "crossing"
    if np.max(np.abs(scaled_residual(hmap.problem, endpoint[1:]))) <= CANDIDATE_TOL:
        return "residual"
    return None


# The Dormand & Prince (1980) RK5(4) pair, as Hairer, Norsett & Wanner give it
# in *Solving Ordinary Differential Equations I* (2nd ed., 1993), II.4 and
# II.6: nodes, stage weights, the order-5 weights and the difference of the
# two embedded solutions' weights (FSAL stage last).  These are the arrays of
# scipy's RK45.
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

# step-size control: the safety factor, the bounds on the change of one step,
# and the exponent -1 / (q + 1) of the order q = 4 error estimate
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 5


class OdeRun(NamedTuple):
    """The outcome of ``solve_ivp``: the accepted step times ``t``, the start
    included, the state ``y`` at t[-1] where the run stopped (the span's end,
    the crossing step's end, or the last accepted state when the step size
    fell below the spacing of the floats and ``success`` is False), and the
    number of field evaluations."""

    t: Array
    y: Array
    nfev: int
    success: bool
    crossed: bool


# each stage after the first: its index, its node as a Python float and its
# row of _RK_A, read once instead of indexed on every stage
_RK_STAGES = tuple((s, float(_RK_C[s]), np.ascontiguousarray(_RK_A[s, :s])) for s in range(1, 6))


def _rms(x: Array) -> float:
    # np.linalg.norm's own formula for a 1-D array, as a Python float
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t: float, y: Array, f: Array, span: float):
    """First step size from the field at the start and at one probe point
    (Hairer, Norsett & Wanner II.4, "Starting Step Size")."""
    scale = ODE_ATOL + np.abs(y) * ODE_RTOL
    # a huge adjugate field overflows f / scale: d1 is then inf, so h0 is 0
    # and h1 is 0 whatever d2 is; d2 is then NaN, not a division by zero
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    diff = fun(t + h0, y + h0 * f) - f
    d2 = _rms(diff / scale) / h0 if h0 else math.nan
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span)


# a huge adjugate field, or an RK stage far off the curve, overflows; the inf
# is handled where it is read (_factor's finiteness check, _initial_step's
# rules), so numpy's warning would only repeat it
@np.errstate(over="ignore")
def solve_ivp(fun, t_span, y0, on_step) -> OdeRun:
    """Integrate y' = fun(s, y) from y(s0) = y0 over t_span = (s0, s1), s0 <=
    s1, with the Dormand-Prince pair at ODE_RTOL and ODE_ATOL, and stop after
    the first accepted step that starts at y[0] <= 1 and ends at y[0] >= 1:
    past it the curve no longer matters, and the adjugate field may blow up
    in finite parameter time.  That step's end is the run's last point;
    ``cross_lambda1`` places the crossing inside the step.

    ``on_step(s, y)`` gets the end of every accepted step that does not end
    the run, in order, right after the step's last stage evaluated ``fun``
    there (first same as last) and before the next step's first stage; the
    run's end comes back in the OdeRun, which keeps no other state.

    The steps are those of scipy's ``RK45(fun, s0, y0, s1, rtol=ODE_RTOL,
    atol=ODE_ATOL)`` (scipy 1.17), operation by operation: the same field
    evaluations in the same order, rejected attempts included, and the same
    floating-point arithmetic, so a stateful ``fun`` sees the same calls and
    every step point comes out bit-identical.  ``fun`` returns a float array
    of y's shape.
    """
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    if not all_finite(y):
        raise ValueError("All components of the initial state `y0` must be finite.")
    ts = [t]
    f = fun(t, y)
    if t == t_bound:  # a zero-length span takes no step
        ts.append(t)
        return OdeRun(np.array(ts), y, 1, True, bool(y[0] == 1.0))
    h_abs = _initial_step(fun, t, y, f, t_bound - t)
    nfev = 2
    K = np.empty((7, y.size))
    # each stage's row of K, the view of the rows before it and its node and
    # weights, and the views the two weightings read, bound once per call
    # instead of sliced on every stage
    stages = tuple((K[s], K[:s].T, c, a) for s, c, a in _RK_STAGES)
    k_first, k_last, k_sol, k_all = K[0], K[-1], K[:-1].T, K.T
    abs_y = np.abs(y)
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return OdeRun(np.array(ts), y, nfev, False, False)
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            k_first[...] = f
            # ndarray.dot is np.dot's matrix product without its dispatch layer
            for k, prior, c, a in stages:
                k[...] = fun(t + c * h, y + prior.dot(a) * h)
            y_new = y + h * k_sol.dot(_RK_B)
            k_last[...] = f_new = fun(t + h, y_new)
            nfev += 6
            abs_y_new = np.abs(y_new)
            scale = ODE_ATOL + np.maximum(abs_y, abs_y_new) * ODE_RTOL
            error_norm = _rms(k_all.dot(_RK_E) * h / scale)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        crossed = bool(y[0] <= 1.0 <= y_new[0])
        t, y, f, abs_y = t_new, y_new, f_new, abs_y_new
        ts.append(t)
        if crossed or t >= t_bound:
            return OdeRun(np.array(ts), y, nfev, True, crossed)
        on_step(t, y)


def _ode_track(hmap, cfg: TrackerConfig) -> CurveTrace:
    """Track the curve by integrating the tangent field, checking for a
    candidate after each of the C_n + 1 equal subintervals of [0, S_f].

    Every accepted RK step point is recorded as ``solve_ivp`` accepts it, so
    the trace resolves folds, and a run that fails inside an interval keeps
    that interval's accepted steps.  Each RK stage is oriented off the last
    recorded tangent; the field keeps no state between stages.  Integration
    stops at the end of the first step that crosses lam = 1 upward; that
    step's start and end are the bracket ``cross_lambda1`` lands from.  Every
    other interval end gets one normal-flow correction to pull the integrated
    path back onto the curve.  Each interval's end is scanned; the trace
    stops at the first candidate and records the interval index N_c.
    """
    a = np.asarray(hmap.anchor, dtype=float)
    adjugate = cfg.ode_field == "adjugate"
    points: List[TrackPoint] = []  # the last one's tangent orients every stage
    # the key (bytes of (lam, x)), Factorization and oriented tangent of the
    # last point factorized: the one point anything reads again.  record()
    # reads each accepted step point, and the checkpoint correction an
    # interval's end, right after solve_ivp's last stage of the step evaluated
    # the field there (first same as last); rhs reads an interval's start
    # right after the start seeded it or record() factorized it.  A kept
    # tangent stays oriented: only record() moves the reference, and onto
    # that tangent
    last = (None, None, None)

    def oriented(y):
        nonlocal last
        key = y.tobytes()
        if key != last[0]:
            # lam stays the numpy scalar y[0] (see the module docstring)
            fac = _curve_system(hmap, y[0], y[1:])
            t = fac.t
            if t.dot(points[-1].tangent) < 0.0:  # _chain's rule, inline
                t = -t
            last = key, fac, t
        return last

    def rhs(s, y):
        _, fac, t = oriented(y)
        if not adjugate:
            return t
        if not math.isfinite(fac.volume):
            raise FieldOverflowError(f"adjugate field magnitude overflows at lam = {y[0]:.6g}")
        return t * fac.volume

    def record(s, w):
        points.append(TrackPoint(s=float(s), lam=float(w[0]), x=w[1:].copy(),
                                 tangent=oriented(w)[2]))

    edges = np.linspace(0.0, cfg.s_max, cfg.checkpoints + 2)
    y = np.concatenate([[0.0], a])
    try:
        start = _curve_system(hmap, y[0], y[1:])
        t0 = _orient_signed(start) if adjugate else _orient_first(start.t)
        points.append(TrackPoint(s=0.0, lam=0.0, x=a.copy(), tangent=t0))
        last = y.tobytes(), start, t0
        for k in range(1, len(edges)):
            s0, s1 = float(edges[k - 1]), float(edges[k])
            sol = solve_ivp(rhs, (s0, s1), y, on_step=record)
            if not sol.success:
                return CurveTrace(points=points, status=STATUS_UNDERFLOW, hsol=y[1:].copy())
            endpoint = sol.y
            if not sol.crossed:  # a crossing step's end is landed from as it is
                try:
                    endpoint = normal_flow_correct(hmap, endpoint, fac=oriented(endpoint)[1]).w
                except (CorrectorError, RankDeficientError, DomainError):
                    pass  # keep the uncorrected endpoint; the next interval retries
            kind = checkpoint_scan(endpoint, hmap)
            if kind == "crossing":
                after = TrackPoint(s=float(sol.t[-1]), lam=float(endpoint[0]), x=endpoint[1:],
                                   tangent=points[-1].tangent)
                return _land(points, after, hmap, n_c=k)
            y = endpoint
            record(sol.t[-1], y)  # where the next interval starts
            if kind is not None:  # residual-based acceptance before lam reaches 1
                return CurveTrace(points=points, status=STATUS_RESIDUAL,
                                  hsol=y[1:].copy(), n_c=k)
    except _TRACK_ERRORS as exc:
        return _failure(exc, points, y[1:].copy() if points else None)
    return CurveTrace(points=points, status=STATUS_EXHAUSTED, hsol=y[1:].copy())


def track(hmap, cfg: TrackerConfig) -> CurveTrace:
    """Trace the zero curve of ``hmap`` from (0, hmap.anchor) toward lam = 1
    with the tracker ``cfg.strategy`` names, the one public tracker entry."""
    return (_pc_track if cfg.strategy == "pc" else _ode_track)(hmap, cfg)
