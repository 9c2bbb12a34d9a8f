"""Evolution of nilpotent brackets under the structure-constant flow.

Every flow here is mu' = delta_mu(Ric_mu) + r mu; only the rate r changes.
r = 0 is the unnormalized flow, the negative gradient flow of tr(Ric^2) on
V_n; r = tr(Ric^2), the rate "scalar", keeps ||mu|| = 2 (unit sphere of
scalar curvature -1); a finite constant gives the other rescaled flows.
One kernel, _shifted_ricci(mu0, r), checks r and forms X = Ric + r I for
the normalized frame flow and for the metric flow, from mu0 halved and r I
built once per flow (Der(mu0) is built once per bracket).  The rate alone
decides the normalization: tr(Ric^2) is homogeneous, so with the scalar
rate X is evaluated on the bracket rescaled to ||mu0||, and ||mu|| stays
fixed by itself.

The bracket flows integrate the frame, not the bracket: the state is h(t),
h(0) = I, with mu(t) = h(t).mu0, so mu(t) stays in the GL(n)-orbit of mu0,
and nilpotent, by construction.  With D the projection of h^{-1} X h onto
Der(mu0), h' = -(X - h D h^{-1}) h; h D h^{-1} is a derivation of mu(t), so
mu' is exactly the bracket flow, and at a soliton X - h D h^{-1} -> 0, so h
converges.  Every other rate is the normalized flow up to scale (Lauret's
scaling): mu(t) = a(t) nu(tau(t)), tau' = a^2, so its run integrates the
normalized frame F of nu with log a and the time t as a clock, in the
flow's own time, where the self-similar decay of the unnormalized flow
takes about a third of the evaluations it takes in t (_frame_generator);
the stored frame is h = F / (a / a0), so mu = h.mu0 still.  Each stored
frame is rescaled once onto the sphere.  Traces are arrays read by batched
kernels.  The step loop judges each stored frame, 32 at a time:
cond(h) > 1/sqrt(eps), or a skew part of h.mu0 above 1e-8 of its norm
(rounding damage), or a scale a past the float range, raises
NumericalFailure at that frame, whatever t_max.  The check keeps the
brackets h.mu0 it moved and the cond(h) it decided on, thinned with their
samples, and the trace reads them, so each stored frame is inverted, moved
and decomposed by SVD once.  Every flow runs one adaptive integrator (_integrate_adaptive):
explicit DOP853 steps (_rk_step, coefficients in _dop853) while the
solution moves, and L-stable ROS2 steps once it settles or turns stiff,
from t0 on a start at rest (a soliton of the normalized flow).  The two
step kinds differ only in their stages, their error estimates, the ceiling
on their step growth (x10 for DOP853, x1000 for ROS2) and the rows they
add to one continuous extension, Hairer's dense output from the cubic
Hermite rows, under one step-size rule.  A run builds the ROS2 Jacobian at
its first switch and at every settled one, and keeps it across a hand-back
to DOP853.  A stop is a sample of that extension, not a step end, and a
finite max_step adds a grid of stops instead of shortening the steps; a run
with a clock finds its stops, and its end, on that extension by Newton's
method on the clock's polynomial, and its steps are capped only so that,
at the clock's slope at a step's start, none ends further past the run's
end than the time left.
Every lookup of a sample time runs one rule, _index_of_time's binary search
on Python floats; an array of times maps through it element by element.
Every right side also takes a (B, N) stack of states and gives each lane
the bits of its 1-D call, so the Jacobian's N forward differences are one
call: the scalar rate's frame generator, which builds nearly every
Jacobian, in batched kernels, the clock frame generator and the metric
right side by one 1-D call per lane.
The paper's frame h' = -(Ric + r I) h is, at every rate, the gauged frame
F times an automorphism factor A' = -D A in Aut(mu0): cointegrate_h gives
h = F A, off the trace for every rate but the scalar one, whose run
carries A (its error relative to A, _scale), and for the scalar rate off
the r = None frame run read in its own time (_frame_generator says why
its trace has no A).
One check (_frame_check) judges every frame run, by one SVD per stored
frame, whose cond(h) is also the trace's max_cond_h.  The module also
integrates the inner-product (metric tensor) flow G' = -2 ric(G) - 2 r G,
and checks the structural identities of the r = 0 flow.
The metric flow's state is the factor of G = L L^T, as the strict lower part
of L and log diag L, so G stays positive definite by construction and its
right side needs no Cholesky factorization.  Every rate runs it with the
time t as a clock, in the flow's own time (_metric_flow), where the
unnormalized flow's decay takes about a third of the evaluations; the
scalar rate's own time is t.  It integrates its own equation, not the
frame's scaled form, so the equivalence report checks the paper's
theorem against it.
The right sides and the step loop run once per evaluation or step on arrays
of at most n^3 = 512 entries, so the call overhead of numpy counts: their
products of single 2-D or 1-D arrays call ndarray.dot, which goes straight
to BLAS and gives the bits of @ without the matmul gufunc's dispatch; the
GL action of one frame (_gl_action_frame) is three of them, on 2-D views.
Stacked products (the batched kernels, the stacked frame generator, the
step loop's check) keep @, as .dot does not broadcast over leading axes;
the GL action of a stack of frames is the same three products, each
batched over the frames, with the bits of the one-frame call.  The passes
over a trace's samples (_finish_trace's antisymmetrization, the Riemann
norms of type3_certificate) run on blocks of 2^15 entries, so a block and
its temporaries stay in the cache.  Every inverse is LAPACK's inverse
gufunc without numpy.linalg's Python wrapper, whose checks cost more than
the factorization at n <= 8.  The right sides call it bare
(algebra._lapack_inv): each run enters one error state, _RUN_ERRSTATE (over
and invalid raise), for its whole step loop, so a singular h still raises
NumericalFailure, and any other overflow in the loop fails the run with its
samples; the callers that run once per step, batch or call (ROS2's W, the
frame check, innerproduct_scal, equivalence_report) use algebra._inv, which
sets its own error mask and turns a singular matrix into LinAlgError.  The
dense output builds its weights by Python float products.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import _dop853
from .algebra import (
    _BLOCK,
    Bracket,
    _as_array,
    _delta_coeffs,
    _check_tol,
    _gl_action_coeffs,
    _gl_action_frame,
    _inv,
    _is_int,
    _is_real,
    _jacobiator_max,
    _lapack_inv,
    _norm,
    bracket_to_dict,
)
from .curvature import _ricci, _riemann, _scal, _tr_ric2
from .exceptions import (
    BadNormalization,
    BadRate,
    ConfigError,
    NumericalFailure,
    SingularMatrix,
    StepSizeUnderflow,
    TooFewSamples,
)
from .soliton import pre_einstein_derivation

# ---------------------------------------------------------------------------
# The integrator: DOP853 steps (coefficients in _dop853) and ROS2 steps.

# DOP853's stage times as floats, for the scalar time of each stage
_C = tuple(_dop853.C.tolist())

# every step sizes the next by h *= min(ceiling, max(_MIN_FACTOR, _SAFETY err^-e)),
# e = 1/2 and ceiling _ROS_MAX_FACTOR after a ROS2 step, e = 1/8 and ceiling
# _MAX_FACTOR after a DOP853 step
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# ROS2 keeps its order for any J, so its error estimate alone bounds a settled
# stretch: from h = 1e-4 a start at rest reaches t = 60 in 3 ROS2 steps, not 7
_ROS_MAX_FACTOR = 1000.0

# ROS2, the L-stable two-stage Rosenbrock-W method of Verwer, Spee, Blom &
# Hundsdorfer (SIAM J. Sci. Comput. 20, 1999): second order for any Jacobian
# approximation J, so one J serves a whole settled stretch
_ROS_GAMMA = 1.0 + 1.0 / math.sqrt(2.0)


# Past this many samples a trace is thinned (see FlowOpts).
_MAX_SAMPLES = 8192
_CHECK_EVERY = 32  # a check of the samples runs on batches of this many (see _integrate_adaptive)
# times within _SAME_TIME * max(1, |t|) of each other are one time: a stop
# relabels such a step end, _sample_grid adds no such grid time, and
# verify_flow_identities differentiates only the first such sample
_SAME_TIME = 1e-13
# the error state every run holds for its whole step loop: an overflow or an
# invalid operation raises, and the run turns it into NumericalFailure; the
# right sides' inverses rely on it to raise for a singular h
_RUN_ERRSTATE = {"over": "raise", "invalid": "raise"}
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FlowOpts:
    """Integrator options shared by all flows.  Each time in `stops` gets a
    sample of the continuous extension of the step holding it, not a step
    end.  Past 8192 samples the step samples are thinned to a doubling
    stride over the whole run; stops count against that cap but are never
    thinned, so a run with more stops than the cap returns them all.  Every
    stop must be a finite real number (else ConfigError); stops outside the
    run's open interval are ignored.  rtol, atol and max_step are real
    numbers > 0, rtol and atol finite, and none of them a bool.  A finite
    max_step is the longest time between two samples: it adds stops on the
    grid t0 + k dt, dt = max_step doubled until the grid holds at most 4096
    times, and never shortens a step (see _integrate_adaptive)."""

    rtol: float = 1e-9
    atol: float = 1e-9
    max_step: float = math.inf
    stops: tuple = ()

    def __post_init__(self):
        # atol = 0 zeroes the error scale of a zero component: a nan step, an endless loop
        _check_tol(self.rtol, "rtol")
        _check_tol(self.atol, "atol")
        # a nan max_step would give no grid, silently
        if not (_is_real(self.max_step) and self.max_step > 0.0):
            raise ConfigError(f"max_step must be a number > 0, got {self.max_step!r}")
        # a nan stop would be dropped silently; one array conversion, as
        # cointegrate_h passes a stop per trace sample
        try:
            stops = np.asarray(self.stops)
            ok = stops.ndim == 1 and stops.dtype.kind in "iuf" and np.isfinite(stops).all()
        except ValueError:  # a ragged sequence
            ok = False
        if not ok:
            raise ConfigError(f"stops must be finite real numbers, got {self.stops!r:.80}")


def _scale(y_old, y_new, rtol, atol, factor=None):
    """The error scale atol + rtol max(|y_old|, |y_new|), built in place.

    factor, if given, is the slice of a run's state that holds a k x k
    matrix A (see _integrate_adaptive), whose error counts relative: column j
    of A gets e / max_l |(A^{-1})_jl| (A of y_old), so a scaled error q
    bounds the right-relative error E = dA A^{-1} by |E_il| <= e sum_j
    |q_ij|, and E moves A.mu0 by about |E| ||mu0|| whatever cond(A).  e is
    rtol, or eps cond(A)^2 once that is larger: the rounding of A.mu0 at
    cond(A) (see _MAX_COND_H), below which no step can resolve it; cond(A)
    is read as max|A| max|A^{-1}|.  An A whose inverse leaves the float
    range counts no more (its scale is inf).  Inside a run's error state
    only."""
    scale = np.abs(y_old)
    np.maximum(scale, np.abs(y_new), out=scale)
    scale *= rtol
    scale += atol
    if factor is not None:
        k = math.isqrt(factor.stop - factor.start)
        a = y_old[factor].reshape(k, k)
        try:  # inside the run's error state, an A near the float range's end raises
            rows = np.abs(_lapack_inv(a)).max(axis=1)
            cond = float(np.abs(a).max() * rows.max())
        except FloatingPointError:
            cond = math.inf
        scale[factor] = math.inf if cond == math.inf else np.tile(max(rtol, _EPS * cond * cond) / rows, k)
    return scale


def _rms(q):
    """RMS norm of a scaled estimate q."""
    return math.sqrt(q.dot(q) / q.size)


def _dop853_error_norm(q):
    """Hairer's combined error estimate of a DOP853 step, q the (2, N) stack
    of its 5th- and 3rd-order error vectors e5 and e3 scaled by _scale (its
    |h| is in them): ||e5||^2 / sqrt((||e5||^2 + 0.01 ||e3||^2) N)."""
    e5, e3 = q
    s5 = e5.dot(e5)
    denom = s5 + 0.01 * e3.dot(e3)
    return 0.0 if denom == 0.0 else s5 / math.sqrt(denom * e5.size)


def _initial_step(f, t0, y0, f0, span, rtol, atol, part=slice(None), factor=None):
    """The first step from (t0, y0), f0 = f(t0, y0), at most span: Hairer's
    hinit, with one evaluation f(t0 + h0, y0 + h0 f0) for the second
    derivative, its norms read on the components in part.  Its exponent
    1/5 is DOPRI5's 1/(order + 1); dop853's own hinit takes 1/8, which on
    the bench flows of seeds 91-92 would save the decay T = 50 flows 2%
    (2,356 -> 2,309 evaluations, with 11 rejected steps) and the soliton
    workload's flows 2.4% (10,895 -> 10,633), and would change the steps
    of every run.  factor goes to _scale."""
    scale = _scale(y0, y0, rtol, atol, factor)[part]
    # a derivative past the float range reads as infinitely fast: d1 = inf
    # gives h0 = 0, which the caller's step floor rejects, also from y0 = 0
    with np.errstate(over="ignore"):
        d0 = float(np.sqrt(np.mean((y0[part] / scale) ** 2)))
        d1 = float(np.sqrt(np.mean((f0[part] / scale) ** 2)))
    if d1 == math.inf:
        return 0.0
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = f(t0 + h0, y0 + h0 * f0)
    d2 = float(np.sqrt(np.mean(((f1 - f0)[part] / scale) ** 2))) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _rk_step(f, t, y, h, K):
    """One DOP853 step from (t, y), K[0] = f(t, y): fills the stages K[1:12].
    Returns (y_new, err, y_last): y_new from row 12 of A (the weights B),
    err the (2, N) stack of the 5th- and 3rd-order error estimates, y_last
    the state of stage 11.  The caller evaluates K[12] = f(t + h, y_new) on
    acceptance."""
    ha = h * _dop853.A
    for i, c in enumerate(_C[1:12], 1):
        yi = y + ha[i, :i].dot(K[:i])
        K[i] = f(t + c * h, yi)
    return y + ha[12, :12].dot(K[:12]), (h * _dop853.E).dot(K[:12]), yi


def _hermite_rows(y, y_new, h, f0, f1, extra=0):
    """(3 + extra, N) rows for _dense: the cubic Hermite interpolant of (y,
    f0) and (y_new, f1) over a step h, and `extra` rows for the caller."""
    rows = np.empty((3 + extra, y.size))
    rows[0] = y_new - y
    rows[1] = h * f0 - rows[0]
    rows[2] = 2.0 * rows[0] - h * (f0 + f1)
    return rows


def _rk_extension(f, t, y, y_new, h, K):
    """The 7 rows of the 7th-order continuous extension of the DOP853 step
    (y, h, K) to y_new, K[12] = f(t + h, y_new): the cubic Hermite rows and
    h D K, after evaluating the extension stages K[13:16]."""
    ha = h * _dop853.A
    for i in range(13, 16):
        K[i] = f(t + _C[i] * h, y + ha[i, :i].dot(K[:i]))
    rows = _hermite_rows(y, y_new, h, K[0], K[12], 4)
    rows[3:] = (h * _dop853.D).dot(K)
    return rows


def _dense(y, rows, theta):
    """The continuous extension `rows` of a step from y at t + theta h, 0 <=
    theta <= 1 (Hairer's dense output): y + sum_k w_k rows[k], w_k the
    product of the first k + 1 factors of theta, 1 - theta, theta, ..."""
    ws, w = [], 1.0
    for k in range(len(rows)):
        w *= theta if k % 2 == 0 else 1.0 - theta
        ws.append(w)
    return y + np.array(ws).dot(rows)


def _monomials(k):
    """The (k, k + 1) matrix whose row j holds the coefficients of theta^0 ..
    theta^k in the weight w_j = theta^(j // 2 + 1) (1 - theta)^((j + 1) // 2)
    of _dense."""
    m = np.zeros((k, k + 1))
    for j in range(k):
        for i in range((j + 1) // 2 + 1):
            m[j, j // 2 + 1 + i] = math.comb((j + 1) // 2, i) * (-1) ** i
    return m


# the weights of the two continuous extensions, ROS2's cubic Hermite and DOP853's
_MONOMIALS = {k: _monomials(k) for k in (3, 7)}
# at most this many iterations locate a stop on a step's clock (see
# _clock_thetas): bisection alone halves [0, 1] to below one ulp in 53
_CLOCK_ITERATIONS = 60


def _clock_thetas(y, rows, times):
    """The points theta in [0, 1] of the continuous extension (y, rows) of a
    step at which its clock, the last component, reads each of the
    increasing times, which lie between its readings at 0 and 1.  The clock
    is a polynomial in theta, evaluated by Horner's rule on its monomial
    coefficients, and need not be monotone.  Each time is solved on its own
    in Python floats, cheaper than array steps for the few stops of a step:
    Newton's method from the linear guess, inside a bracket [lo, hi] on
    which the clock crosses the time, bisecting the bracket wherever the
    slope is not positive or a Newton step would leave it.  The first Newton
    correction below 1e-7, which quadratic convergence leaves about 1e-14
    off, ends the search, as does a bracket bisected to a point."""
    c0, coef = y.item(-1), rows[:, -1].dot(_MONOMIALS[len(rows)]).tolist()
    coef[0] += c0
    coef.reverse()
    span = rows.item(0, -1)  # rows[0] = y_new - y
    thetas = []
    for s in times:
        lo, hi = 0.0, 1.0  # the clock reads below s at lo, and s or more at hi
        theta = (s - c0) / span
        for _ in range(_CLOCK_ITERATIONS):
            clock, slope = coef[0], 0.0
            for c in coef[1:]:
                slope = slope * theta + clock
                clock = clock * theta + c
            if clock < s:
                lo = theta
            else:
                hi = theta
            move = (clock - s) / slope if slope > 0.0 else math.inf
            if lo <= theta - move <= hi:
                theta -= move
                if abs(move) <= 1e-7:
                    break
            else:
                theta = 0.5 * (lo + hi)
                if theta in (lo, hi):
                    break
        thetas.append(theta)
    return thetas


def _stiff(h, K, y_new, y_last):
    """Hairer's stiffness test of an accepted DOP853 step, K[12] = f(t + h,
    y_new) and K[11] = f(t + h, y_last), the FSAL row and the step's last
    stage: h ||K[12] - K[11]|| / ||y_new - y_last|| estimates |h lambda|, and
    past 6.1 the step sits at the edge of the method's stability region.
    Where a squared norm overflows, as on a clock past 1e154, both
    differences are first divided by their largest entry."""
    df, dy = K[12] - K[11], y_new - y_last
    try:
        return h * math.sqrt(df.dot(df)) > 6.1 * math.sqrt(dy.dot(dy))
    except FloatingPointError:
        big = max(np.abs(df).max(), np.abs(dy).max())
        df, dy = df / big, dy / big
        return h * math.sqrt(df.dot(df)) > 6.1 * math.sqrt(dy.dot(dy))


def _jacobian(f, t, y, f0):
    """Forward-difference Jacobian of f at (t, y), f0 = f(t, y), in y.size
    evaluations made by one call: f gets the C-ordered (N, N) stack whose
    row j is y with y_j moved by sqrt(eps max(|y_j|, 1e-5)), the increment
    of Hairer and Wanner's RADAU5, and column j of J is its difference
    quotient.  J is the transpose of a C-ordered array."""
    delta = np.sqrt(np.finfo(float).eps * np.maximum(np.abs(y), 1e-5))
    ys = np.tile(y, (y.size, 1))
    diag = np.diag_indices(y.size)
    ys[diag] += delta
    return ((f(t, ys) - f0) / (ys[diag] - y)[:, None]).T


def _ros2_step(f, t, y, h, f0, jac):
    """One ROS2 step from (t, y), f0 = f(t, y), with W = I - gamma h jac
    inverted once: W k1 = f0, W k2 = f(t + h, y + h k1) - 2 k1, y_new =
    y + h (3 k1 + k2) / 2.  Returns (y_new, err_vec), err_vec = h (k1 + k2) / 2
    the distance to the embedded first-order y + h k1, or None for a
    singular W."""
    w = (-_ROS_GAMMA * h) * jac
    w[np.diag_indices(y.size)] += 1.0  # whatever the memory layout of jac
    try:
        winv = _inv(w)
    except np.linalg.LinAlgError:
        return None
    k1 = winv.dot(f0)
    k2 = winv.dot(f(t + h, y + h * k1) - 2.0 * k1)
    return y + h * (1.5 * k1 + 0.5 * k2), (0.5 * h) * (k1 + k2)


def _thin(samples, steps, stride):
    """Keep the samples whose step index (0 for the start and the stops) is a
    multiple of stride."""
    keep = [i for i, s in enumerate(steps) if s % stride == 0]
    return [samples[i] for i in keep], [steps[i] for i in keep]


def _stacked(parts, keep=None):
    """One tuple of arrays from the tuples a check returned per batch, each
    array stacked over the batches' samples (the rows where keep is true, if
    given)."""
    cols = [col[0] if len(col) == 1 else np.concatenate(col) for col in zip(*parts)]
    return tuple(cols if keep is None else [col[keep] for col in cols])


def _check_end(t0, t_end):
    """ConfigError unless an integration from t0 ends at a finite t_end >= t0."""
    if not (_is_real(t_end) and math.isfinite(t_end) and t_end >= t0):
        raise ConfigError(f"the integration must end at a finite time >= {t0:g}, got {t_end!r}")


def _sample_grid(t0, t_end, max_step, stops):
    """The stops a finite max_step adds: the times t0 + k dt inside (t0,
    t_end), dt = max_step doubled until there are at most _MAX_SAMPLES // 2
    of them, less those within _SAME_TIME of t0 or of a time in stops (which
    holds t_end)."""
    span, dt = t_end - t0, max_step
    while span / dt > _MAX_SAMPLES // 2:  # inf for a subnormal max_step
        dt *= 2.0
    grid = t0 + dt * np.arange(1.0, math.ceil(span / dt))
    anchors = np.array(sorted(stops | {t0}))
    j = np.searchsorted(anchors, grid)
    gap = np.minimum(np.abs(grid - anchors[j - 1]), np.abs(anchors[np.minimum(j, len(anchors) - 1)] - grid))
    return set(grid[gap > _SAME_TIME * np.maximum(1.0, np.abs(grid))].tolist())


def _integrate_adaptive(f, t0, y0, t_end, opts, check=lambda samples, i: (), clock=False, factor=None):
    """Generic adaptive integrator with two step kinds.

    The explicit step is _rk_step, a step of DOP853, the 8th-order pair of
    Hairer's dop853 (12 stages, f(t + h, y_new) a 13th evaluation on
    acceptance, Hairer's combined 5th/3rd-order error estimate).  Every
    step, accepted or rejected, sizes the next by one elementary rule, h *=
    min(c, max(0.2, 0.9 err^-e)): e = 1/8 and c = 10 after a DOP853 step,
    e = 1/2 and c = 1000 after a ROS2 step, which keeps its order for any J,
    so its error estimate alone bounds a settled stretch.  No option
    shortens a step, and only the run's end ends one.  The loop scales each
    step once, by _scale(y, y_new): err is the step kind's norm (_rms for
    ROS2, _dop853_error_norm for DOP853) of the scaled estimate, and the
    increment _rms((y_new - y) / scale).  DOP853 steps run until an accepted
    step's increment is below 1 (the solution has settled, and an explicit
    step could only crawl at its stability limit) or until an accepted step
    meets Hairer's stiffness test (_stiff: the step is stability-limited, as
    on a stiff run that still moves).  The following steps are ROS2 steps,
    until a ROS2 step's increment reaches 1 or its W is singular; then
    DOP853 steps again, from K[0] = f(y).  A start at rest, whose first step
    h0 would move it by _rms(h0 f(y0) / _scale(y0, y0)) < 1, has settled
    before any step: a run longer than h0 takes ROS2 steps from t0.  Their forward-difference
    Jacobian J is built at the first switch (or at t0) and at every settled
    switch, and kept across a hand-back: a stiff switch reuses it, so a run
    that stays stiff while it moves builds J once, not at every switch.
    Runs whose steps all move by an increment of at least 1 and are not
    stiff never switch, and their steps are DOP853 steps alone.

    With clock, the last component of the state is the run's clock, and
    its values are the times: the loop steps in its own variable s from 0,
    and t0, t_end, the stops, the max_step grid, the samples' times and the
    failure messages' t are values of the clock, which must increase.  The
    stops inside a step are located on its continuous extension by
    _clock_thetas and sampled by _dense; no step is shortened to t_end,
    and the run ends at the step whose extension reaches it, with t_end its
    last sample.  But a step is capped at 2 (t_end - clock) / (the clock's
    slope at its start), never below the step floor: on a clock that runs
    linearly in s, such as a negative constant rate's, DOP853's steps grow
    x10 each, and an uncapped last step put a stage so far past t_end that
    the state overflowed.  The clock measures progress and always moves, so
    the first step and the settled tests read the other components.  The
    scalar rate's bracket run keeps the t mode: on a trivial clock the
    soliton flows took 3-12% longer, and a settled n = 6 dense start's
    interpolated end missed the soliton residual 1e-10 (4.4e-10).

    factor, if given, is the slice of the state that holds a k x k matrix
    A, the frame run's automorphism factor (see _frame_generator), whose
    error counts relative to A (see _scale and _initial_step).  J differences
    its columns as it does every other (see _jacobian).

    Returns (samples, stats, jac, verdicts): samples is a list of (t, y) at
    t0, at every accepted step (the last ends on t_end) and at every stop; past
    _MAX_SAMPLES only every stride-th step is kept, and the stride doubles
    whenever the samples pass the cap again.  The stops are opts.stops and,
    for a finite opts.max_step, the grid of _sample_grid, so no two samples
    lie more than max_step apart unless the grid would pass _MAX_SAMPLES //
    2 times.  stats counts accepted/rejected steps, the accepted ROS2 steps
    among them, and evaluations; jac is the J of the final ROS2 stretch,
    the last one built, None if the run ended on DOP853 steps.  A stop is a
    sample _dense(y, rows, theta) of the continuous extension of the step
    holding it, its rows built for the step's first stop: the cubic Hermite
    rows of (y, f(y), y_new, f(y_new)), alone for ROS2, and for DOP853 with
    its four rows of 7th order (_rk_extension), whose 3 evaluations a step
    pays once; within _SAME_TIME of a step end a stop relabels that sample.
    check(samples, i) judges the samples stored since its last call, from i
    on: every _CHECK_EVERY samples before any thinning, and at any run's end.
    What it returns, a tuple of arrays (maybe ()) with one row per sample it
    judged, the loop keeps beside the samples and thins with them: verdicts
    is that tuple stacked over the kept samples.
    The loop runs under one error state, _RUN_ERRSTATE (over and invalid
    raise), entered once per run, not once per evaluation.  Raises
    ConfigError unless t_end is finite and >= t0, and StepSizeUnderflow when
    the controller collapses or the step is nan; a FloatingPointError in the
    loop (from f, J, check or the step arithmetic) becomes a
    NumericalFailure "... at t=<the last accepted time>", and every
    NumericalFailure, one raised by f included, carries the samples accepted
    before it, which check judges first.
    """
    _check_end(t0, t_end)
    opts = opts or FlowOpts()
    # a run with a clock steps in its own variable, from 0
    t = 0.0 if clock else float(t0)
    y = np.array(y0, dtype=float)
    stats = {
        "accepted": 0,
        "rejected": 0,
        "rosenbrock_steps": 0,
        "nfev": 0,
        "t_final": float(t_end),
        # always 0: the normalized generator keeps ||mu|| fixed and mu = h.mu0
        # cannot leave the nilpotent cone, so nothing is renormalized or
        # projected; the keys stay for readers of these stats
        "renormalizations": 0,
        "cone_projections": 0,
    }

    stops = {float(s) for s in opts.stops if t0 < s < t_end} | {float(t_end)}
    if opts.max_step < math.inf:
        stops |= _sample_grid(t0, t_end, opts.max_step, stops)
    stops = sorted(stops, reverse=True)  # popped in time order
    samples = [(float(t0), y)]
    steps = [0]  # accepted-step index of each sample; 0 for the start and the stops
    stride, judged = 1, 0  # check has judged samples[:judged]
    if t_end <= t0:
        return samples, stats, None, _stacked([check(samples, judged)])
    verdicts = []  # what check returned for each batch of samples[:judged]

    try:
        with np.errstate(**_RUN_ERRSTATE):
            K = np.empty((16, y.size))  # row 12 holds f(t + h, y_new)
            K[0] = f(t, y)
            # a clock always moves, and its span in s is unknown: the first
            # step is Hairer's, read with the settled tests on the other components
            moves = slice(-1 if clock else None)
            h = _initial_step(f, t, y, K[0], math.inf if clock else t_end - t0, opts.rtol, opts.atol, moves, factor)
            stats["nfev"] += 2
            # the loop's settled test on the start: a start at rest takes ROS2
            # steps (implicit) from t0
            longer = h * K[0][-1] < t_end - t0 if clock else h < t_end - t
            implicit = longer and _rms((h * K[0] / _scale(y, y, opts.rtol, opts.atol, factor))[moves]) < 1.0
            # the J of the ROS2 steps, built at the first switch and at every
            # settled one, and kept while explicit steps run in between
            jac = None
            if implicit:
                jac = _jacobian(f, t, y, K[0])
                stats["nfev"] += y.size

            while stops:
                floor = 1e-14 * max(1.0, abs(t))
                if not clock:
                    h = min(h, t_end - t)
                elif K[0].item(-1) > 0.0:
                    # at the clock's slope at its start, a step moves the clock
                    # by at most twice the time left; never below the floor
                    h = min(h, max(2.0 * (t_end - y.item(-1)) / K[0].item(-1), floor))
                # not >=, so that a nan step (a nan derivative) underflows too;
                # the step that ends a run without a clock is taken however short it is
                if not (h >= floor or (not clock and h == t_end - t)):
                    at = y.item(-1) if clock else t
                    raise StepSizeUnderflow(f"step size underflow at t={at:.6g} (h={h:.3e})")
                ros = _ros2_step(f, t, y, h, K[0], jac) if implicit else None
                if ros is None:
                    implicit = False  # a singular W hands the step back to the explicit steps
                    y_new, err_vec, y_last = _rk_step(f, t, y, h, K)
                    stats["nfev"] += 11
                else:
                    y_new, err_vec = ros
                    stats["nfev"] += 1
                scale = _scale(y, y_new, opts.rtol, opts.atol, factor)
                err = (_rms if implicit else _dop853_error_norm)(err_vec / scale)
                increment = _rms(((y_new - y) / scale)[moves])

                if err <= 1.0:
                    K[12] = f(t + h, y_new)
                    stats["nfev"] += 1
                    if implicit:
                        stats["rosenbrock_steps"] += 1
                    # the step's end in the run's variable and its time
                    if clock:
                        t_new, time = t + h, y_new.item(-1)
                    else:
                        t_new = time = t_end if h >= t_end - t else t + h
                    near = _SAME_TIME * max(1.0, abs(time))
                    due = []  # the stops inside the step
                    while stops and stops[-1] < time - near:
                        due.append(stops.pop())
                    if due:
                        # the step's continuous extension
                        if implicit:
                            rows = _hermite_rows(y, y_new, h, K[0], K[12])
                        else:
                            rows = _rk_extension(f, t, y, y_new, h, K)
                            stats["nfev"] += 3
                        thetas = _clock_thetas(y, rows, due) if clock else [(s - t) / h for s in due]
                        states = [_dense(y, rows, theta) for theta in thetas]
                        samples.extend(zip(due, states))
                        steps.extend([0] * len(due))
                    at_stop = bool(stops) and stops[-1] <= time + near
                    if at_stop:
                        time = stops.pop()
                    # a clock's end may lie inside the step, whose end is then no sample
                    ended = not stops
                    # the tests read this step's h and stages, so they run before h changes
                    switch = not implicit and not ended and (
                        increment < 1.0 or _stiff(h, K, y_new, y_last)
                    )
                    t, y, K[0] = t_new if clock else time, y_new, K[12]
                    stats["accepted"] += 1
                    step = 0 if at_stop else stats["accepted"]
                    if (at_stop or not ended) and step % stride == 0:
                        samples.append((time, y))
                        steps.append(step)
                    # a stride past the step count would drop nothing more
                    thin = len(samples) > _MAX_SAMPLES and stride <= stats["accepted"]
                    if thin or ended or len(samples) - judged >= _CHECK_EVERY:
                        verdicts.append(check(samples, judged))
                        if thin:
                            stride *= 2
                            # the rows of the dropped samples go with them
                            verdicts = [_stacked(verdicts, np.array(steps) % stride == 0)]
                            samples, steps = _thin(samples, steps, stride)
                        judged = len(samples)
                    # a settled entry builds a fresh J; a stiff one reuses the kept J
                    if switch and (increment < 1.0 or jac is None):
                        jac = _jacobian(f, t, y, K[0])
                        stats["nfev"] += y.size
                    implicit = switch or (implicit and increment < 1.0)
                else:
                    stats["rejected"] += 1
                # on a rejection err > 1: the ceiling cannot bind
                e, ceiling = (0.5, _ROS_MAX_FACTOR) if ros is not None else (0.125, _MAX_FACTOR)
                h *= min(ceiling, max(_MIN_FACTOR, _SAFETY * (err + 1e-300) ** -e))
    except FloatingPointError as exc:
        at = y.item(-1) if clock else t  # the last accepted time
        failure = NumericalFailure(f"{exc} at t={at:.6g}", trace=samples)
        check(samples, judged)
        raise failure from None
    except NumericalFailure as exc:
        if exc.trace is None:  # not raised by check
            exc.trace = samples
            check(samples, judged)
        raise
    return samples, stats, jac if implicit else None, _stacked(verdicts)


# ---------------------------------------------------------------------------
# Bracket flow traces.

_TRACE_COLUMNS = ("t", "mu_norm", "scal", "tr_ric2", "grad_norm", "r", "jacobi_residual")


def _index_of_time(times, t):
    """Index of the sample at time t: the nearest of the increasing times, the
    earlier on a tie, by binary search on Python floats.  Another real scalar
    (an int, a numpy float, a 0-d array) is looked up as float(t), and an
    array element by element; a t that is not a sample raises KeyError."""
    if not isinstance(t, float):
        if np.ndim(t):
            return np.array([_index_of_time(times, s) for s in np.ravel(t).tolist()], int).reshape(np.shape(t))
        try:
            t = float(t)
        except OverflowError:  # an int past the float range
            raise KeyError(f"time {t} is not a sample of this trace") from None
    j = int(times.searchsorted(t))  # times[j - 1] < t <= times[j]
    i = max(j - 1, 0)
    if j < len(times) and not abs(times.item(i) - t) <= abs(times.item(j) - t):
        i = j
    # not >, so that a nan t fails too; an infinite t would pass the tolerance
    if not (math.isfinite(t) and abs(times.item(i) - t) <= 1e-9 * max(1.0, abs(t))):
        raise KeyError(f"time {t} is not a sample of this trace")
    return i


class _Samples:
    """The length of a trace and the lookup of its sample times."""

    def __len__(self):
        return len(self.times)

    def index_of_time(self, t: float) -> int:
        return int(_index_of_time(self.times, t))


@dataclass
class FlowTrace(_Samples):
    """Sampled solution of a bracket flow with per-sample diagnostics.

    `coeffs` (m, n, n, n) holds the structure constants of mu(times[i]) =
    frames[i].mu0, read-only and exactly skew, `frames` is (m, n, n), and
    each diagnostic is a length-m column.  `initial_bracket` is the start
    mu0 itself, so its cached derivations serve every reader.  For a rate
    other than the scalar one, `_automorphisms` (m, n, n) holds the factor A
    of the paper's frame h = frames[i] A[i] (see _frame_generator), which
    cointegrate_h reads; it is None for the scalar rate.  `brackets`, a
    list of `Bracket` on views of `coeffs`, `final_bracket`, on a copy of
    its end, and the columns `grad_norm` (||delta_mu(Ric_mu)||) and
    `jacobi_residual` (the max-norm of the Jacobiator) are computed from
    `coeffs` on first access.  `jacobian`, kept out of the JSON `stats`, is
    the integrator's J of the frame run (see _integrate_adaptive): at a
    settled normalized run, its linearization; for any other rate, of its
    state (F, beta, A, t) (see _frame_generator).
    """

    times: np.ndarray
    coeffs: np.ndarray
    frames: np.ndarray
    r_values: np.ndarray
    mu_norm: np.ndarray
    scal: np.ndarray
    tr_ric2: np.ndarray
    initial_bracket: Bracket = field(repr=False)
    stats: dict = field(default_factory=dict)
    rate: object = field(default=None, repr=False)  # the rate r as passed to the flow
    jacobian: np.ndarray | None = field(default=None, repr=False)
    _automorphisms: np.ndarray | None = field(default=None, repr=False)

    @property
    def kind(self) -> str:
        """"unnormalized" for r = None, "normalized" for "scalar", "r" for a constant."""
        return "unnormalized" if self.rate is None else "normalized" if isinstance(self.rate, str) else "r"

    @cached_property
    def brackets(self) -> list:
        return [Bracket._of_skew(c) for c in self.coeffs]

    @cached_property
    def grad_norm(self) -> np.ndarray:
        return _norm(_delta_coeffs(self.coeffs, _ricci(self.coeffs)))

    @cached_property
    def jacobi_residual(self) -> np.ndarray:
        return _by_blocks(_jacobiator_max, self.coeffs)

    # a copy, not a view: a bracket kept past its trace keeps n^3 floats, not the trace's m n^3
    @cached_property
    def final_bracket(self) -> Bracket:
        return Bracket._of_skew(self.coeffs[-1].copy())

    def to_csv(self, path) -> None:
        cols = (self.mu_norm, self.scal, self.tr_ric2, self.grad_norm, self.r_values, self.jacobi_residual)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_TRACE_COLUMNS)
            # csv writes a float as its repr, which round-trips exactly
            writer.writerows(np.column_stack((self.times, *cols)).tolist())

    def snapshots_to_json(self, path) -> None:
        """Sidecar document with the bracket coefficients per sample index."""
        doc = {
            "kind": self.kind,
            "snapshots": [
                {"index": i, "t": float(self.times[i]), "bracket": bracket_to_dict(self.brackets[i])}
                for i in range(len(self.times))
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")


def trace_from_csv(path) -> dict:
    """Parse a trace CSV back into column arrays (no bracket snapshots); ConfigError if malformed."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != _TRACE_COLUMNS:
            raise ConfigError(f"unexpected trace header {header}")
        rows = []
        for row in reader:
            if len(row) != len(_TRACE_COLUMNS):
                raise ConfigError(f"line {reader.line_num} of the trace has {len(row)} fields, not 7")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ConfigError(f"line {reader.line_num} of the trace: {exc}") from None
    cols = np.array(rows).T if rows else np.zeros((len(_TRACE_COLUMNS), 0))
    return dict(zip(_TRACE_COLUMNS, cols))


def _rate_value(r):
    """"scalar", or the value of a constant rate r (0.0 for None); BadRate
    for anything else, a bool, a callable or a non-finite number included."""
    if isinstance(r, str):
        if r != "scalar":
            raise BadRate(f"unknown rate {r!r}; the only string rate is 'scalar'")
        return r
    # True would run the constant rate 1.0
    if r is not None and not _is_real(r):
        raise BadRate(f"r must be None, a real number or 'scalar', got {r!r}")
    value = 0.0 if r is None else float(r)
    # a nan or infinite rate would make every step nan, and every step rejected
    if not math.isfinite(value):
        raise BadRate(f"a constant rate must be finite, got {r!r}")
    return value


def _shifted_ricci(b0, r):
    """Kernel (h, hinv) -> X = Ric + r I of mu = h.mu0 (hinv is h^{-1}) for
    the frame and the metric flows.  r is None (zero), a finite real number
    or "scalar", tr(Ric^2); anything else, a bool or a callable included,
    raises BadRate.  "scalar" needs ||mu0|| = 2 to 1e-10 (else
    BadNormalization) and reads Ric, and the rate, on mu rescaled onto
    ||mu0||.  Built once per flow: r I (nothing at r = None) and mu0 halved,
    an exact scaling, so that C^T C - 2 A A^T of the halved products is
    1/4 C^T C - 1/2 A A^T bit for bit.  One call is straight-line 2-D
    products, the same products in the same order as _gl_action_coeffs and
    _ricci, so X is bit-identical to theirs without the batch-axis handling
    of a stack: the GL action of _gl_action_frame, then Ricci's two products
    as ndarray.dot, a direct BLAS call with the bits of @ and less call
    overhead.  At the scalar rate alone, whose frame generator is the one
    right side that takes a stack whole, a (B, n, n) stack of h and hinv
    gives the stack of X from the batched kernels _gl_action_coeffs, _ricci
    and _tr_ric2 on the full mu0; halving is an exact scaling, so each lane
    has the bits of its 2-D call.  The kernel returns (X, aux): for the
    scalar rate aux is tr Ric^2, the rate it adds, which the frame run's
    scale reads (an array of them for a stack); for any other rate a^2 =
    ||mu||^2 / 4, the squared scale of the bracket it pushed, which the
    metric flow's clock reads."""
    value = _rate_value(r)
    if value == "scalar":
        drift = abs(b0.norm - 2.0)
        if drift > 1e-10:
            raise BadNormalization(
                f"the normalized flow needs ||mu|| = 2, got {b0.norm:.6g} (off by {drift:.3e}); "
                "rescale with rescale_to_norm, or pass --rescale 2"
            )
        norm_sq, shift = 0.25 * np.vdot(b0.coeffs, b0.coeffs), None
    else:
        norm_sq, shift = None, None if r is None else value * np.eye(b0.n)
    n = b0.n
    c0_rows = (0.5 * b0.coeffs).reshape(n, n * n)
    diag = np.arange(n)

    def stacked(h, hinv):
        c = _gl_action_coeffs(h, hinv, b0.coeffs)
        x = _ricci(c)
        flat = c.reshape(len(c), -1)
        # 4 norm_sq over <c, c> of the full c is the 2-D path's ratio of the
        # halved ones
        x *= ((4.0 * norm_sq) / np.vecdot(flat, flat))[:, None, None]
        rate = _tr_ric2(x)
        x[:, diag, diag] += rate[:, None]
        return x, rate

    def kernel(h, hinv):
        if h.ndim > 2:
            return stacked(h, hinv)
        c = _gl_action_frame(h, hinv, c0_rows)
        rows = c.reshape(n, n * n)
        x = rows.dot(rows.T)
        x *= -2.0
        x += c.T.dot(c)
        if norm_sq is not None:
            x *= norm_sq / np.vdot(c, c)
            rate = np.vdot(x, x)
            x.reshape(-1)[:: n + 1] += rate
            return x, rate
        if shift is not None:
            x += shift
        # c is the push of mu0 halved: <c, c> = ||mu||^2 / 4
        return x, np.vdot(c, c)

    return kernel


def _frame_generator(b0, r):
    """Right side rhs(t, y) of the frame run of rate r from mu0 = b0.

    The scalar rate integrates the frame itself: y = h flattened, mu = h.mu0.
    X is the _shifted_ricci kernel at (h, h^{-1}) and D is the projection of
    h^{-1} X h onto Der(mu0), whose basis B is orthonormal, so the projection
    is one product with the projector P = B^T B, its entries at rounding
    level zeroed for every rate; B is built once per bracket, and the
    kernel, which checks the rate r, and P once per flow.  Then
    h' = G(h) = -(X - h D h^{-1}) h = -X h + h D.  X is evaluated on the
    sphere ||mu|| = ||mu0||; then <mu', mu> = 0, and the flow of h commutes
    with rescaling h.  One call is a few plain matrix products: the GL
    action, the two of Ricci, the projection and h'.  The scalar state carries
    no automorphism factor: its ROS2 steps would resolve A = exp(-tD) of
    the soliton derivation, which never rests, and the 72 soliton flows of
    seeds 91-92 took 7.0x the evaluations with it (10,895 -> 76,441).

    Every other rate runs this normalized generator G in the flow's own
    time.  mu(t) = a(t) nu(tau(t)), nu the normalized flow on ||nu|| = 2
    from nu0 = mu0 / a0, a0 = ||mu0|| / 2, and tau' = a^2 (Lauret's
    scaling), so the state is y = (F, beta, A, t): F the frame of nu =
    F.nu0, beta = log(a / a0), the automorphism factor A and the clock t,
    whose values are the run's times (see _integrate_adaptive).  With w =
    a^2 + |r| and kappa = a0^2 + |r| the run's variable s has ds/dt = w /
    kappa, and

        F_s = (kappa a^2 / w) G(F),  beta_s = kappa (r - a^2 rho) / w,
        A_s = -(kappa a^2 / w) D A,  t_s = kappa / w,

    rho = tr Ric^2 of F.nu0, the rate the kernel forms, and D the gauge of
    G(F), one more n x n product per evaluation.  D lies in Der(mu0), so A
    stays in Aut(mu0), and H = F A solves the ungauged H_s = -(kappa a^2 /
    w) X H: h = F A / b is the paper's frame (cointegrate_h).  A starts at
    I, is the run's factor (see _integrate_adaptive: its error counts
    relative to A), and ends no run.
    kappa makes s start as t; r = None runs s = tau / a0^2 (F_s = a0^2
    G(F), A_s = -a0^2 D A): F A at s is the scalar rate's h at tau, which
    cointegrate_h reads.  The factors
    are Python floats of b^2 = exp(2 beta) and kappa / w = 1 / (p b^2 + q),
    p = a0^2 / kappa and q = |r| / kappa, so a bracket whose a0^2
    underflows is still, as its flow is to rounding, and a0 enters no other factor.  The frame h = F / b,
    b = a / a0, has h.mu0 = mu: _finish_trace stores it.  The zero bracket
    has no nu0 and stays at mu = 0 for every rate: its gauge takes up the
    whole rate, as Der(0) = gl(n), so only its clock moves, and its A is
    e^{-rt} I, which _finish_trace writes in closed form.  A kappa / w past
    the float range raises NumericalFailure "the scale of mu left the float
    range at t=<clock>".

    y may also be a (B, N) stack of states, which gives the (B, N) stack of
    y', each lane with the bits of its 1-D call: the scalar rate's by the
    batched kernels, every other rate's lane by lane, as the runs that
    build a Jacobian of its state are the few stiff ones.  The inverse is
    algebra._lapack_inv, without an error state of its own: the run's
    _RUN_ERRSTATE, held around every evaluation, makes a singular h or F in
    any lane, or an overflow, raise NumericalFailure "h is singular at
    t=..."; outside a run's error state a singular h gives nan and a warning.
    """
    n, nn = b0.n, b0.n * b0.n
    rate = _rate_value(r)
    clock = rate != "scalar"
    if clock and b0.norm == 0.0:

        def still(t, y):
            dy = np.zeros(y.shape)
            dy[..., -1] = 1.0
            return dy

        return still
    kernel = _shifted_ricci(b0.scaled(2.0 / b0.norm) if clock else b0, "scalar")
    basis = b0._derivations.reshape(-1, nn)  # Der(nu0) = Der(mu0)
    proj = basis.T @ basis
    # the entries of P at rounding level are zeros of the exact projector
    # where Der(mu0) has structural zeros (H3: the derivations' entries that
    # would move its center into e0, e1).  P moves the rate rho I of X into
    # the gauge, and its rounding there would push the frame of H3 off its
    # family: by about 2 eps by T = 5, and normalized H3 by 1e-13 by T = 60
    proj[np.abs(proj) <= 64.0 * _EPS * np.abs(proj).max()] = 0.0

    def generator(t, h, stack):
        """G(h), rho and D at the frame h, a (B, n, n) stack or one (n, n)
        frame."""
        try:
            hinv = _lapack_inv(h)
            x, rho = kernel(h, hinv)
            xh = x @ h if stack else x.dot(h)
        except FloatingPointError:
            raise NumericalFailure(f"h is singular at t={t:.6g}") from None
        if stack:
            d = (proj @ (hinv @ xh).reshape(-1, nn, 1)).reshape(-1, n, n)
            return h @ d - xh, rho, d
        d = proj.dot(hinv.dot(xh).reshape(-1)).reshape(n, n)
        return h.dot(d) - xh, rho, d

    if not clock:

        def rhs(t, y):
            stack = y.ndim > 1
            return generator(t, y.reshape(-1, n, n) if stack else y.reshape(n, n), stack)[0].reshape(y.shape)

        return rhs

    a2, r_abs = 0.25 * b0.norm * b0.norm, abs(rate)
    if rate == 0.0:
        p, q = 1.0, 0.0
    elif a2 >= r_abs:
        p = 1.0 / (1.0 + r_abs / a2)
        q = r_abs / a2 * p
    else:
        q = 1.0 / (1.0 + a2 / r_abs)
        p = a2 / r_abs * q

    def rhs(s, y):
        if y.ndim > 1:  # a stack of states, lane by lane
            return np.array([rhs(s, lane) for lane in y])
        t, beta = y.item(-1), y.item(nn)
        g, rho, d = generator(t, y[:nn].reshape(n, n), False)
        # kappa a^2 / w and t_s from exp(-2 |beta|), which cannot overflow
        try:
            if beta > 0.0:
                e = math.exp(-2.0 * beta)  # 1 / b^2
                fa = a2 / (p + q * e)
                ts = e / (p + q * e)
            else:
                b2 = math.exp(2.0 * beta)
                ts = 1.0 / (p * b2 + q)
                fa = a2 * (b2 * ts)
        except ZeroDivisionError:  # kappa / w past the float range
            raise NumericalFailure(f"the scale of mu left the float range at t={t:.6g}") from None
        dy = np.empty(y.size)
        np.multiply(g.reshape(-1), fa, out=dy[:nn])
        dy[nn], dy[-1] = rate * ts - fa * rho, ts
        np.multiply(d.dot(y[nn + 1 : -1].reshape(n, n)).reshape(-1), -fa, out=dy[nn + 1 : -1])
        return dy

    return rhs


# Beyond cond(h) = 1/sqrt(eps) the rounding of mu = h.mu0, about cond(h)^2 eps
# relative, reaches the size of mu itself.
_MAX_COND_H = 1.0 / math.sqrt(np.finfo(float).eps)
# h.mu0 is skew in exact arithmetic, so its skew part is rounding damage.  A
# normalized run rescales h, and then that damage outgrows the cond(h)^2 eps
# estimate: rotated Dixmier-Lister starts cross 1e-8 at t = 13.7-14.5 with
# cond(h) far under _MAX_COND_H; runs that keep their orbit stay near 1e-13.
_MAX_SKEW_DEFECT = 1e-8


def _skew_defect(coeffs, norms):
    """max|c + c^T| / ||c|| of each moved bracket c = h.mu0, norms its ||c||."""
    skew = np.abs(coeffs + coeffs.swapaxes(1, 2)).max(axis=(1, 2, 3))
    return skew / np.maximum(norms, np.finfo(float).tiny)


def _first_above(values, bound):
    """Index of the first value above bound (nan counts), else len(values)."""
    bad = np.flatnonzero(~(values <= bound))
    return int(bad[0]) if bad.size else len(values)


def _blocks(m, entries):
    """Slices of range(m) of _BLOCK // entries samples each (at least one), for
    a pass with that many entries per sample."""
    step = max(1, _BLOCK // entries)
    return [slice(i, i + step) for i in range(0, m, step)]


def _by_blocks(kernel, coeffs):
    """kernel(coeffs) for a kernel with n^4 entries per sample, on blocks of
    _BLOCK entries: a (m, n, n, n, n) array would take 268 MB at m = 8192,
    n = 8, and a block that stays in the cache is faster."""
    return np.concatenate([kernel(coeffs[s]) for s in _blocks(len(coeffs), coeffs.shape[-1] ** 4)])


def _cond_bound(frames, times):
    """(cond, k, msg): each frame's cond(h) by its SVD, the index of the first
    above 1/sqrt(eps) (nan counts; else len(frames)) and its failure message."""
    cond = np.linalg.cond(frames)
    k = _first_above(cond, _MAX_COND_H)
    msg = f"cond(h) = {cond[k]:.3e} at t={times[k]:.6g} exceeds 1/sqrt(eps)" if k < len(cond) else ""
    return cond, k, msg


def _frame_check(b0, clock=False):
    """check(samples, i) of a frame run from b0 (see _integrate_adaptive):
    NumericalFailure with the samples before it at the first stored frame
    with cond(h) > 1/sqrt(eps) or a skew defect of h.mu0 above
    _MAX_SKEW_DEFECT.  One SVD per stored frame gives its cond(h), which
    decides the bound and is the trace's max_cond_h.  A clock state (F,
    beta, A, t) of _frame_generator is judged by its frame F, whose cond is
    that of h = F / b, and fails too where log a = log a0 + beta, or the log
    of the largest entry of h, leaves [log tiny, -log tiny]: a = ||mu|| / 2
    and h must be floats; its A is not judged.  The check returns what it
    decided on and moved for the batch it judged, (F.mu0, ||F.mu0||, skew
    defect, cond(F)), one row per frame, which the step loop keeps beside
    the samples and _finish_trace builds the trace from, so each stored
    frame is inverted, moved and decomposed once.  cointegrate_h's h = F A
    degenerates like exp(-tD): _cond_bound alone judges it."""
    n = b0.n
    # the zero bracket has no scale: its frame's bound is the one that counts
    log_a0 = (math.log(0.5 * b0.norm) if b0.norm > 0.0 else 0.0) if clock else None

    def check(samples, i):
        states = np.array([y for _, y in samples[i:]]).reshape(-1, samples[0][1].size)
        frames = states[:, : n * n].reshape(-1, n, n)
        cond, k, msg = _cond_bound(frames, [t for t, _ in samples[i:]])
        if log_a0 is not None:
            # log a, and the log of the largest entry of h = F / b
            beta = states[:, n * n]
            logs = np.maximum(np.abs(log_a0 + beta), np.abs(np.log(np.abs(frames).max(axis=(1, 2))) - beta))
            m = _first_above(logs, -_LOG_TINY)
            if m < k:
                k, msg = m, f"the scale of mu left the float range at t={samples[i + m][0]:.6g}"
        # past the bound the inverse is noise
        coeffs = _gl_action_coeffs(frames[:k], _inv(frames[:k]), b0.coeffs)
        norms = _norm(coeffs)
        defect = _skew_defect(coeffs, norms)
        j = _first_above(defect, _MAX_SKEW_DEFECT)
        if j < k:
            msg = (f"skew defect {defect[j]:.3e} of h.mu0 at t={samples[i + j][0]:.6g} exceeds "
                   f"{_MAX_SKEW_DEFECT:g}: rounding has damaged mu")
            raise NumericalFailure(msg, trace=samples[: i + j])
        if k < len(frames):
            raise NumericalFailure(msg, trace=samples[: i + k])
        return coeffs, norms, defect, cond

    return check


def _finish_trace(samples, verdicts, stats, b0, r, jac):
    """FlowTrace of the frame samples of a flow of rate r from b0: array
    expressions over the stacked brackets h_i.mu0.  The step loop's check
    has judged the frames, so each is invertible, and moved them: verdicts
    holds its (F.mu0, ||F.mu0||, skew defect, cond(F)) of each kept frame F,
    the state's frame (see _frame_generator).  Each F is rescaled onto the
    sphere, F.mu0 onto ||mu0|| (for the zero bracket, which has none, F stays),
    and for a rate other than the scalar one divided by its scale b = a / a0,
    so h = lam F with lam = ||F.mu0|| / (||mu0|| b); the brackets h.mu0 =
    F.mu0 / lam are antisymmetrized exactly, block by block in the array
    of the check.  r_values is the tr_ric2 column for the scalar rate.  The
    trace builds grad_norm and jacobi_residual when they are first read,
    and keeps jac.  stats gain the max_cond_h and max_skew_defect of the
    kept frames, the check's numbers, before any rescaling.  A rate other
    than the scalar one keeps each sample's automorphism factor A of the
    state; the zero bracket's is e^{-rt} I, in closed form."""
    n, c0 = b0.n, b0.coeffs
    times = np.array([t for t, _ in samples])
    states = np.array([y for _, y in samples])
    frames = states[:, : n * n].reshape(-1, n, n)
    coeffs, norms, defect, cond = verdicts
    stats = stats | {"max_cond_h": float(cond.max()), "max_skew_defect": float(defect.max())}
    # (lam F).mu0 = F.mu0 / lam puts every sample back on ||F.mu0|| = ||mu0||
    nrm0 = _norm(c0)
    lams = norms / nrm0 if nrm0 > 0.0 else np.ones(len(norms))
    if not isinstance(r, str):
        lams *= np.exp(-states[:, n * n])
    lams = lams[:, None, None]
    frames = lams * frames
    for s in _blocks(len(coeffs), n**3):
        c = coeffs[s] / lams[s, None]
        np.multiply(c - c.swapaxes(1, 2), 0.5, out=coeffs[s])
    coeffs.flags.writeable = False  # the trace's brackets are views of it
    mu_norm = _norm(coeffs)
    tr_ric2 = _tr_ric2(_ricci(coeffs))
    rate = tr_ric2 if isinstance(r, str) else _rate_value(r)
    automorphisms = None
    if not isinstance(r, str):
        automorphisms = states[:, n * n + 1 : -1].reshape(-1, n, n)
        if nrm0 == 0.0:
            automorphisms = np.exp(-rate * times)[:, None, None] * np.eye(n)
    return FlowTrace(
        times=times,
        coeffs=coeffs,
        frames=frames,
        r_values=np.full(len(times), rate),
        mu_norm=mu_norm,
        scal=_scal(mu_norm),
        tr_ric2=tr_ric2,
        initial_bracket=b0,
        stats=stats,
        rate=r,
        jacobian=jac,
        _automorphisms=automorphisms,
    )


def _frame_start(n, clock):
    """(y0, factor) of a frame run (see _frame_generator): h = I, with no
    factor, for the scalar rate, else the clock state (I, 0, I, 0), whose
    factor is the slice of A."""
    eye = np.eye(n).reshape(-1)
    if clock:
        return np.concatenate((eye, [0.0], eye, [0.0])), slice(n * n + 1, 2 * n * n + 1)
    return eye, None


def integrate_bracket_flow(b0: Bracket, t_max: float, opts: FlowOpts | None = None, r=None) -> FlowTrace:
    """Flow mu' = delta_mu(Ric_mu) + r mu for any rate r.

    r is None for the unnormalized flow (r = 0: ||mu|| is nonincreasing and
    the solution exists for all positive time), a finite real number, or
    "scalar" for the normalized flow, r = tr(Ric^2), which requires
    ||mu_0|| = 2 to 1e-10 (else BadNormalization) and keeps every sample on
    that sphere to rounding.  Any other r, a callable included, raises
    BadRate.  The trace keeps r as `rate`, from which its `kind` follows,
    and the rate at each sample in `r_values`.  Every rate but the scalar
    one steps in the flow's own time, the normalized flow with a scale and a
    clock (see _frame_generator).  The step loop judges every stored frame,
    32 at a time, by _frame_check, whatever t_max; stats keep the largest
    cond(h) and skew defect of the kept frames (once a run thins past 8192
    samples, not of every frame judged).
    """
    clock = not isinstance(r, str)
    y0, factor = _frame_start(b0.n, clock)
    samples, stats, jac, verdicts = _integrate_adaptive(
        _frame_generator(b0, r), 0.0, y0, t_max, opts, _frame_check(b0, clock), clock, factor)
    return _finish_trace(samples, verdicts, stats, b0, r, jac)


def integrate_normalized_flow(b0: Bracket, t_max: float, opts: FlowOpts | None = None) -> FlowTrace:
    """Scalar-curvature normalized flow mu' = delta_mu(Ric_mu) + tr(Ric^2) mu,
    the same as `integrate_bracket_flow(b0, t_max, opts, r="scalar")`."""
    return integrate_bracket_flow(b0, t_max, opts, r="scalar")


# ---------------------------------------------------------------------------
# Companion frame h(t) and the equivalent inner-product flow.


def cointegrate_h(trace: FlowTrace) -> np.ndarray:
    """Frames h(t) of h' = -(Ric_{h.mu0} + r I) h, h(0) = I, at the trace's times.

    mu0 is the trace's start and r its rate.  At every rate h = F A, a
    gauged frame F times its automorphism factor A (see _frame_generator).
    Off the scalar rate they are the trace's frames and factor, with no
    integration: h follows the trace's tolerances, A's error relative to
    A.  The scalar rate's trace carries no A: its (F, A) come from one
    r = None frame run, stepped in its run variable s with the integrator
    blind to its clock, at s = t / a0^2, a0^2 = ||mu0||^2 / 4; unthinned,
    at rtol=1e-10, atol=1e-12 whatever options made the trace, and judged
    by _frame_check.  Returns the (m, n, n) array of h(t_i), judged by
    _cond_bound at the trace's times: cond(h) > 1/sqrt(eps), a singular F,
    or an overflow, the integrator's own included (the run holds
    _RUN_ERRSTATE), raises NumericalFailure "the companion frame h became
    singular: ...", with the samples before it: (t, h flattened), or the
    run's (s, state).
    """
    b0, times = trace.initial_bracket, trace.times
    n = b0.n
    try:
        if isinstance(trace.rate, str):
            stops = times / (0.25 * b0.norm * b0.norm)
            y0, factor = _frame_start(n, True)
            opts = FlowOpts(rtol=1e-10, atol=1e-12, stops=tuple(stops[1:-1]))
            at = dict(_integrate_adaptive(_frame_generator(b0, None), 0.0, y0, stops[-1], opts,
                                          _frame_check(b0, True), False, factor)[0])
            states = np.array([at[s] for s in stops.tolist()])
            hs = states[:, : n * n].reshape(-1, n, n) @ states[:, factor].reshape(-1, n, n)
        else:
            hs = trace.frames @ trace._automorphisms
        _, k, msg = _cond_bound(hs, times)
        if k < len(hs):
            raise NumericalFailure(msg, trace=list(zip(times[:k].tolist(), hs[:k].reshape(k, -1))))
        return hs
    except StepSizeUnderflow:
        raise
    except NumericalFailure as exc:  # from the right side, the check or the run's error state
        raise NumericalFailure("the companion frame h became singular: " + str(exc), trace=exc.trace) from None


@dataclass
class InnerProductTrace(_Samples):
    """Sampled solution of the metric-tensor flow G' = -2 ric(G) (+ -2 r G)."""

    times: np.ndarray
    metrics: np.ndarray  # (m, n, n) Gram matrices
    stats: dict = field(default_factory=dict)


def innerproduct_scal(b0: Bracket, g: np.ndarray):
    """Scalar curvature of the metric G paired with the fixed bracket b0; a
    stack of metrics (leading axes of G) gives an array of values.  A metric
    that is not positive definite, has a non-finite entry, or is not
    symmetric to rounding (|G - G^T| above n eps |G| in the max norm) raises
    SingularMatrix."""
    g = _as_array(g, np.shape(g)[:-2] + (b0.n, b0.n), "metric")
    # the Cholesky factorization passes nan entries through
    if not np.isfinite(g).all():
        raise SingularMatrix("metric has a non-finite entry")
    # and reads the lower triangle alone
    asym = np.abs(g - g.mT).max(axis=(-2, -1))
    if np.any(asym > b0.n * np.finfo(float).eps * np.abs(g).max(axis=(-2, -1))):
        raise SingularMatrix("metric is not symmetric")
    # (G, mu_0) is isometric to (I, (L^T).mu_0) for G = L L^T
    try:
        h = np.linalg.cholesky(g).mT
    except np.linalg.LinAlgError:
        raise SingularMatrix("metric is not positive definite") from None
    c_nu = _gl_action_coeffs(h, _inv(h), b0.coeffs)
    return _scal(_norm(c_nu))


# log of the smallest normal float: below it exp underflows and 1 / exp overflows
_LOG_TINY = math.log(np.finfo(float).tiny)


def _metric_flow(b0, r):
    """The metric flow G' = -2 ric(G) - 2 r G on the factor of G = L L^T.

    The state y holds the lower triangle of L row by row, with log L_ii in
    place of L_ii, so L(0) = I is y = 0 and G stays positive definite.
    The state ends in the clock t (see _integrate_adaptive).  Returns
    (rhs, factor): factor(y) is L, and rhs(s, y) is (kappa / w) y' and
    t_s = kappa / w in the run's variable s (below), for
    L' = L Phi(M), where M = -2 X, X = ric_nu + r I is the _shifted_ricci
    kernel at h = L^T, for the pushed bracket nu = (L^T).mu_0, and Phi keeps
    the strict lower part of M and half its diagonal; then
    (log L_ii)' = M_ii / 2.  rhs and factor also take a (B, n(n+1)/2 + 1)
    stack of states, rhs by one 1-D call per lane.  As
    L (Phi + Phi^T) L^T = L M L^T = -2 L ric_nu L^T - 2 r G, G follows the
    metric flow for every rate; the scalar rate keeps scal(G) fixed.

    s is the flow's own time: with a^2 = ||nu||^2 / 4, which the kernel
    hands back, w = a^2 + |r| and kappa = a0^2 + |r| (a0 = a at L = I),
    ds/dt = w / kappa; s starts as t, and on the unnormalized flow's
    self-similar decay, where a^2 ~ 1 / t, s grows like log t.  kappa = 0
    gives s = t, and y' bit for bit: the scalar rate, whose kernel hands
    back its rate, not a^2, and the zero bracket at r = 0 (or an a0^2
    below the float range), which is still.  A w of 0 with kappa > 0 would
    need a^2 to fall from a0^2 into the underflow, which at r = 0 takes a
    t past the float range.  This is no scaled form, as the frame's is:
    the run integrates the metric flow's own equation, which the
    equivalence report checks the bracket flow against.

    A factor with some L_ii = exp(y_i) below the normal range, where 1 / L_ii
    overflows, raises NumericalFailure.  The inverse of L^T is
    algebra._lapack_inv, under the error state of the run that evaluates rhs
    (_RUN_ERRSTATE), so an overflow there fails the run.
    """
    n = b0.n
    size = n * (n + 1) // 2
    lower = np.flatnonzero(np.tri(n, dtype=bool))  # flat positions of the state in L
    logdiag = np.flatnonzero(lower % (n + 1) == 0)  # state entries holding log L_ii
    # Phi(M) = X * weights: -2 below the diagonal, -1 on it
    weights = -2.0 * np.tri(n)
    weights.reshape(-1)[:: n + 1] = -1.0
    shifted_ricci = _shifted_ricci(b0, r)
    rate = _rate_value(r)
    r_abs = 0.0 if rate == "scalar" else abs(rate)
    # a^2 at L = I from the kernel itself, so that t_s(0) = 1 exactly; the
    # scalar kernel hands back its rate, not a^2, and kappa = 0 keeps s = t
    kappa = 0.0 if rate == "scalar" else float(shifted_ricci(np.eye(n), np.eye(n))[1]) + r_abs
    # L Phi lands in a flat buffer whose last slot holds t_s: one index
    # gathers y', its clock included
    flat = np.empty(n * n + 1)
    product = flat[: n * n].reshape(n, n)
    gather = np.append(lower, n * n)

    def factor(y):
        if y.ndim > 1:  # a stack of states gives the stack of factors
            lmat = np.zeros((len(y), n * n))
            lmat[:, lower] = y[:, :size]
            diag = lmat[:, :: n + 1]
            np.exp(diag, out=diag)
            return lmat.reshape(-1, n, n)
        lmat = np.zeros(n * n)
        lmat[lower] = y[:size]
        diag = lmat[:: n + 1]  # a view holding log L_ii
        np.exp(diag, out=diag)
        return lmat.reshape(n, n)

    def rhs(t, y):
        if y.ndim > 1:  # a stack of states, lane by lane
            return np.array([rhs(t, lane) for lane in y])
        t = y.item(-1)
        logs = y[logdiag]
        # numpy's min decides, after a cheaper screen by Python's min of the
        # same floats, which equals numpy's unless one is nan
        if min(logs.tolist()) < _LOG_TINY and logs.min() < _LOG_TINY:
            raise NumericalFailure(f"the metric factor became singular at t={t:.6g}")
        lmat = factor(y)
        h = lmat.mT
        phi, a_sq = shifted_ricci(h, _lapack_inv(h))
        flat[-1] = ts = kappa / (float(a_sq) + r_abs) if kappa else 1.0
        # the weights are 0, -1 and -2: one pass gives the bits of scaling by ts, then by them
        phi *= ts * weights
        lmat.dot(phi, out=product)
        dy = flat[gather]
        dy[logdiag] = phi.reshape(-1)[:: n + 1]
        return dy

    return rhs, factor


def integrate_innerproduct_flow(
    b0: Bracket, t_max: float, opts: FlowOpts | None = None, r=None
) -> InnerProductTrace:
    """Metric-tensor flow with the bracket held fixed at b0.

    G' = -2 ric(G) - 2 r G, where r takes the rates of the bracket flows:
    None for the unnormalized flow, "scalar" for tr(Ric^2), or a finite
    constant.  The rate reads the Ricci operator of the pushed bracket
    (L^T).mu_0, which is conjugate to that of (G, mu_0); "scalar" is the
    normalized flow, as in `integrate_bracket_flow`, so G keeps
    scal(G, mu_0) = -1.  The state is the factor L of G = L L^T, as its
    strict lower part and log diag L, so `rtol` and `atol` apply to those
    entries, and every G is positive definite; `metrics` holds the symmetric
    Gram matrices L L^T.  Every rate steps with the time t as a clock (see
    _metric_flow): every rate but the scalar one in the flow's own time, as
    the bracket flows do, and the scalar rate with s = t.  A factor that
    becomes numerically singular raises NumericalFailure with the partial
    trace attached.
    """
    n = b0.n
    rhs, factor = _metric_flow(b0, r)
    # L(0) = I is the state 0, and the clock starts at t = 0
    samples, stats, _, _ = _integrate_adaptive(rhs, 0.0, np.zeros(n * (n + 1) // 2 + 1), t_max, opts, clock=True)
    times = np.array([t for t, _ in samples])
    lmat = factor(np.array([y for _, y in samples]))
    g = lmat @ lmat.mT
    return InnerProductTrace(times=times, metrics=0.5 * (g + g.mT), stats=stats)


# ---------------------------------------------------------------------------
# Structural checks along traces.


@dataclass(frozen=True)
class IdentityReport:
    """Finite-difference check of d/dt scal = 2 tr Ric^2 and of the energy
    dissipation d/dt tr Ric^2 = -||delta_mu(Ric)||^2 at interior samples."""

    max_rel_err_scal: float
    max_rel_err_energy: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return max(self.max_rel_err_scal, self.max_rel_err_energy) < self.tolerance


def _interior_derivative(times, values):
    """Derivative at the interior nodes of a nonuniform grid.

    Interpolates the five nearest nodes by a quartic (the three nearest by a
    parabola when the grid is too short); windows are rescaled to O(1) to
    keep the Vandermonde solves well conditioned.
    """
    m = len(times)
    w = 5 if m >= 5 else 3
    window = np.clip(np.arange(1, m - 1) - w // 2, 0, m - w)[:, None] + np.arange(w)
    ts = times[window] - times[1:-1, None]
    s = ts[:, -1] - ts[:, 0]
    vander = (ts / s[:, None])[:, :, None] ** np.arange(w)
    return np.linalg.solve(vander, values[window][:, :, None])[:, 1, 0] / s


def verify_flow_identities(trace: FlowTrace, tolerance: float = 1e-4) -> IdentityReport:
    """Check the exact first-order identities of the unnormalized flow by
    differentiating the stored diagnostics; requires a dense enough trace.
    Each relative error divides by its rate, floored at 1e-12 of that rate's
    largest sample, so a bracket's small multiples are checked as strictly as
    the bracket.  Of samples within _SAME_TIME of each other only the first
    counts, also for TooFewSamples.  A trace with a nonzero rate anywhere, or
    a tolerance that is not finite and > 0, raises ConfigError."""
    _check_tol(tolerance, "tolerance")
    if np.any(trace.r_values):
        raise ConfigError("flow identities hold for the unnormalized flow (r = 0) only")
    keep = np.diff(trace.times, prepend=-np.inf) > _SAME_TIME * np.maximum(1.0, np.abs(trace.times))
    t, tr_ric2 = trace.times[keep], trace.tr_ric2[keep]
    if len(t) < 3:
        raise TooFewSamples(f"need at least 3 samples at distinct times, trace has {len(t)}")

    def rel_err(derivative, rate):
        # a floor relative to the rate's own column: an absolute one passed
        # any trace of a small bracket, whose rates all lie below it
        floor = max(1e-12 * rate.max(), np.finfo(float).tiny)
        return float((np.abs(derivative - rate) / np.maximum(rate, floor)).max())

    return IdentityReport(
        max_rel_err_scal=rel_err(_interior_derivative(t, trace.scal[keep]), 2.0 * tr_ric2[1:-1]),
        max_rel_err_energy=rel_err(-_interior_derivative(t, tr_ric2), trace.grad_norm[keep][1:-1] ** 2),
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class Type3Report:
    """Empirical type-III bounds along an unnormalized trace."""

    sup_t_riemann: float
    sup_t_ricci: float
    sup_norm_ratio: float  # sup of t ||mu||^2 / (2n); <= 1 is the proven bound
    ricci_bound_ratio: float  # sup of t ||Ric|| / (sqrt(3) n / 2)
    predicted_norm_constant: float  # 2 (n - tr phi): the limit of t ||mu||^2 where the orbit holds a nilsoliton

    @property
    def norm_bound_ok(self) -> bool:
        return self.sup_norm_ratio <= 1.0 + 1e-9

    @property
    def ricci_bound_ok(self) -> bool:
        return self.ricci_bound_ratio <= 1.0 + 1e-9

    def to_dict(self) -> dict:
        return {**asdict(self), "norm_bound_ok": self.norm_bound_ok, "ricci_bound_ok": self.ricci_bound_ok}


def type3_certificate(trace: FlowTrace) -> Type3Report:
    """Certificate that curvature decays like C/t along the unnormalized flow.

    sup t ||mu(t)||^2 <= 2n is a theorem; the Riemann constant is estimated
    empirically and reported, never asserted, and so is the sharp constant
    2 (n - tr phi), phi the pre-Einstein derivation of the start (see
    soliton.pre_einstein_derivation), the limit of t ||mu(t)||^2 where the
    start's orbit holds a nilsoliton.  A trace with a nonzero rate anywhere
    raises ConfigError.
    """
    if np.any(trace.r_values):
        raise ConfigError("type-III bounds apply to the unnormalized flow (r = 0) only")
    n = trace.coeffs.shape[-1]
    t = trace.times
    riemann_norm = _by_blocks(lambda c: _norm(_riemann(c), 4), trace.coeffs)
    sup_ric = float(np.max(t * np.sqrt(trace.tr_ric2)))
    return Type3Report(
        sup_t_riemann=float(np.max(t * riemann_norm)),
        sup_t_ricci=sup_ric,
        sup_norm_ratio=float(np.max(t * trace.mu_norm**2)) / (2.0 * n),
        ricci_bound_ratio=sup_ric / (math.sqrt(3.0) * n / 2.0),
        predicted_norm_constant=2.0 * (n - pre_einstein_derivation(trace.initial_bracket)[1]),
    )


# ---------------------------------------------------------------------------
# Equivalence of the three presentations of the same flow.


@dataclass(frozen=True)
class EquivalenceReport:
    """Residuals tying the bracket flow, the frame h(t), and the metric flow.

    max_pullback_residual: sup_t ||mu(t) - h(t).mu_0|| / ||mu(t)||
    max_gram_residual:     sup_t ||G(t) - h(t)^T h(t)|| / ||G(t)||
    max_scal_mismatch:     sup_t |scal(G(t), mu_0) - scal(mu(t))| (relative)

    h = F A is cointegrate_h's.  Off the scalar rate F is the trace's own
    frame, so the pullback residual checks that A stays in Aut(mu0); at the
    scalar rate it compares the trace with the r = None frame run in its
    own time.  The Gram residual compares h with the independent metric
    flow, the check of the paper's theorem.
    """

    max_pullback_residual: float
    max_gram_residual: float
    max_scal_mismatch: float

    def ok(self, tol: float) -> bool:
        """ConfigError unless tol is finite and > 0."""
        _check_tol(tol)
        return max(self.max_pullback_residual, self.max_gram_residual) < tol


def equivalence_report(
    b0: Bracket, t_max: float, opts: FlowOpts | None = None, r=None, checkpoints: int = 26
) -> EquivalenceReport:
    """Run the same geometry three ways and compare at shared checkpoints.

    The inner-product flow (bracket fixed) and the bracket flow run on
    their own, with the same rate r: any rate the bracket flows accept, None
    for the unnormalized flow, a finite constant, or "scalar" for the
    normalized flow on ||b0|| = 2; the companion frame h(t) is
    cointegrate_h's.  The checkpoints are an even grid of t = 0..t_max,
    whose interior replaces opts.stops in the inner-product and bracket
    runs.  opts' tolerances set those two runs, and with them h for every
    rate but the scalar one, where h is the bracket run's frame times its
    automorphism factor; the scalar rate's comes from the r = None frame
    run in its own time, at cointegrate_h's rtol=1e-10, atol=1e-12.  t_max
    must be finite and >= 0, and checkpoints an integer of at least 2 (else
    ConfigError).
    """
    if not _is_int(checkpoints, 2):
        raise ConfigError(f"checkpoints must be an int of at least 2, got {checkpoints!r}")
    _check_end(0.0, t_max)
    grid = np.linspace(0.0, t_max, checkpoints)
    opts = replace(opts or FlowOpts(), stops=tuple(grid[1:-1]))

    ip = integrate_innerproduct_flow(b0, t_max, opts, r=r)
    trace = integrate_bracket_flow(b0, t_max, opts, r=r)
    hs = cointegrate_h(trace)
    # cointegrate_h's check ends its run before any stored frame with cond(h) > 1/sqrt(eps)
    pulled = _gl_action_coeffs(hs, _inv(hs), b0.coeffs)
    pullback = _norm(trace.coeffs - pulled) / np.maximum(trace.mu_norm, 1e-300)

    i = _index_of_time(trace.times, grid)
    h, scal = hs[i], trace.scal[i]
    g = ip.metrics[_index_of_time(ip.times, grid)]
    gram = _norm(g - h.swapaxes(1, 2) @ h, 2) / np.maximum(_norm(g, 2), 1e-300)
    scal_mismatch = np.abs(innerproduct_scal(b0, g) - scal) / np.maximum(np.abs(scal), 1e-300)
    return EquivalenceReport(
        max_pullback_residual=float(pullback.max()),
        max_gram_residual=float(gram.max()),
        max_scal_mismatch=float(scal_mismatch.max()),
    )
