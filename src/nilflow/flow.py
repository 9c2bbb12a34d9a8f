"""Evolution of nilpotent brackets under the structure-constant flow.

Every flow here is mu' = delta_mu(Ric_mu) + r mu; only the rate r changes.
r = 0 is the unnormalized flow, the negative gradient flow of tr(Ric^2) on
V_n; r = tr(Ric^2) keeps ||mu|| = 2 (unit sphere of scalar curvature -1); a
constant or a callable Bracket -> float gives the other rescaled flows.

The bracket flows integrate the frame, not the bracket: the state is h(t),
h(0) = I, with mu(t) = h(t).mu0, so mu(t) stays in the GL(n)-orbit of mu0,
and nilpotent, by construction.  With X = Ric + r I and D the projection of
h^{-1} X h onto Der(mu0), h' = -(X - h D h^{-1}) h; h D h^{-1} is a
derivation of mu(t), so mu' is exactly the bracket flow, and at a soliton
X - h D h^{-1} -> 0, so h converges.  tr(Ric^2) is homogeneous, so the
normalized flow evaluates X on mu(t) rescaled to ||mu0||: its generator keeps
||mu|| fixed, and each stored frame is rescaled once onto the sphere.  The
module also recovers the frame of h' = -(Ric + r I) h along a trace,
integrates the equivalent inner-product (metric tensor) flow
G' = -2 ric(G) - 2 r G, and checks the structural identities of the r = 0
flow.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import (
    Bracket,
    _delta_coeffs,
    _gl_action_coeffs,
    bracket_to_dict,
    derivation_basis,
    jacobiator_residual,
)
from .curvature import _ricci, riemann_at_origin
from .exceptions import (
    BadNormalization,
    BadRate,
    ConfigError,
    LossOfPositivity,
    NumericalFailure,
    StepSizeUnderflow,
    TooFewSamples,
)

# ---------------------------------------------------------------------------
# Embedded Dormand-Prince 5(4) pair with a PI step-size controller.

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_BHAT = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_B - _DP_BHAT

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_KI = 0.7 / 5  # PI controller exponents for a 5th-order pair
_KP = 0.4 / 5


@dataclass(frozen=True)
class FlowOpts:
    """Integrator options shared by all flows."""

    rtol: float = 1e-9
    atol: float = 1e-9
    max_step: float = math.inf
    max_samples: int = 8192
    stops: tuple = ()

    def __post_init__(self):
        # atol = 0 zeroes the error scale of a zero component: a nan step, an endless loop
        if not all(math.isfinite(v) and v > 0.0 for v in (self.rtol, self.atol)):
            raise ConfigError(f"rtol and atol must be finite and > 0, got {self.rtol!r}, {self.atol!r}")


def _error_norm(err, y_old, y_new, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(f, t0, y0, f0, span, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = f(t0 + h0, y0 + h0 * f0)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _thin(samples, keep_head=64):
    """Halve the stored density past the head, preserving the final sample."""
    head = samples[:keep_head]
    tail = samples[keep_head:]
    kept = tail[::2]
    if tail and (len(tail) - 1) % 2 != 0:
        kept.append(tail[-1])
    return head + kept


def _integrate_adaptive(f, t0, y0, t_end, opts):
    """Generic adaptive integrator.

    Returns (samples, stats): samples is a list of (t, y) at every accepted
    step including t0, landing exactly on every stop in opts.stops (thinned
    once it exceeds opts.max_samples); stats counts accepted/rejected steps
    and evaluations.  Raises StepSizeUnderflow when the controller collapses.
    """
    rtol, atol = opts.rtol, opts.atol
    t = float(t0)
    y = np.array(y0, dtype=float)
    stats = {
        "accepted": 0,
        "rejected": 0,
        "nfev": 0,
        # always 0: the normalized generator keeps ||mu|| fixed and mu = h.mu0
        # cannot leave the nilpotent cone, so nothing is renormalized or
        # projected; the keys stay for readers of these stats
        "renormalizations": 0,
        "cone_projections": 0,
    }

    stops = sorted({float(s) for s in opts.stops if t0 < s < t_end} | {float(t_end)})
    samples = [(t, y.copy())]
    if t_end <= t0:
        return samples, stats

    k1 = f(t, y)
    stats["nfev"] += 1
    h = _initial_step(f, t, y, k1, t_end - t0, rtol, atol)
    stats["nfev"] += 1
    h = min(h, opts.max_step)
    err_prev = 1e-4
    stop_idx = 0

    while t < t_end:
        while stops[stop_idx] <= t:
            stop_idx += 1
        next_stop = stops[stop_idx]
        gap = next_stop - t
        if gap <= 1e-13 * max(1.0, abs(t)):
            # within roundoff of a checkpoint: relabel rather than step
            t = next_stop
            samples[-1] = (t, samples[-1][1])
            continue
        h = min(h, opts.max_step, gap)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflow(f"step size underflow at t={t:.6g} (h={h:.3e})", trace=samples)
        hitting_stop = h >= gap

        k = [k1]
        for i in range(1, 6):
            yi = y + h * sum(a * kk for a, kk in zip(_DP_A[i], k))
            k.append(f(t + _DP_C[i] * h, yi))
        y_new = y + h * sum(a * kk for a, kk in zip(_DP_A[6], k))
        t_new = next_stop if hitting_stop else t + h
        k.append(f(t_new, y_new))
        stats["nfev"] += 6
        err_vec = h * sum(e * kk for e, kk in zip(_DP_E, k))
        err = _error_norm(err_vec, y, y_new, rtol, atol)

        if err <= 1.0:
            t, y, k1 = t_new, y_new, k[6]
            stats["accepted"] += 1
            samples.append((t, y.copy()))
            if len(samples) > opts.max_samples:
                samples = _thin(samples)
            factor = _SAFETY * (err + 1e-300) ** (-_KI) * err_prev**_KP
            err_prev = max(err, 1e-4)
            h = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        else:
            stats["rejected"] += 1
            h = h * max(_MIN_FACTOR, _SAFETY * err**-0.2)
    return samples, stats


# ---------------------------------------------------------------------------
# Bracket flow traces.

_TRACE_COLUMNS = ("t", "mu_norm", "scal", "tr_ric2", "grad_norm", "r", "jacobi_residual")


@dataclass
class FlowTrace:
    """Sampled solution of a bracket flow with per-sample diagnostics."""

    kind: str  # "unnormalized" | "normalized" | "r"
    times: np.ndarray
    brackets: list
    r_values: np.ndarray
    mu_norm: np.ndarray
    scal: np.ndarray
    tr_ric2: np.ndarray
    grad_norm: np.ndarray
    jacobi_residual: np.ndarray
    stats: dict = field(default_factory=dict)
    frames: list = field(default_factory=list)  # h_i with brackets[i] = h_i.mu0
    rate: object = field(default=None, repr=False)  # the resolved rate (coeffs, Ric) -> r

    def __len__(self):
        return len(self.times)

    @property
    def initial_bracket(self) -> Bracket:
        return self.brackets[0]

    @property
    def final_bracket(self) -> Bracket:
        return self.brackets[-1]

    def index_of_time(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError(f"time {t} is not a sample of this trace")
        return i

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_TRACE_COLUMNS)
            for i in range(len(self.times)):
                writer.writerow(
                    [
                        repr(float(v))
                        for v in (
                            self.times[i],
                            self.mu_norm[i],
                            self.scal[i],
                            self.tr_ric2[i],
                            self.grad_norm[i],
                            self.r_values[i],
                            self.jacobi_residual[i],
                        )
                    ]
                )

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
    """Parse a trace CSV back into column arrays (no bracket snapshots)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != _TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header {header}")
        rows = [[float(v) for v in row] for row in reader]
    cols = np.array(rows).T if rows else np.zeros((len(_TRACE_COLUMNS), 0))
    return dict(zip(_TRACE_COLUMNS, cols))


def _rate(r, callable_ok=True):
    """Resolve a rate r into one function (coeffs, Ric) -> float.

    r is None (zero), a number, "scalar" (tr Ric^2) or, when callable_ok, a
    callable Bracket -> float; anything else raises BadRate.
    """
    if r is None:
        return lambda c, ric: 0.0
    if isinstance(r, str):
        if r != "scalar":
            raise BadRate(f"unknown rate {r!r}; the only string rate is 'scalar'")
        return lambda c, ric: float(np.sum(ric * ric))
    if isinstance(r, (int, float)):
        value = float(r)
        return lambda c, ric: value
    if not callable(r):
        raise BadRate("r must be None, a number, 'scalar' or a callable Bracket -> float")
    if not callable_ok:
        raise BadRate("a callable rate is not supported here; use None, a number or 'scalar'")
    return lambda c, ric: float(r(Bracket(c)))


def _frame_generator(b0, rate, normalized=False):
    """Generator of the frame flow for mu = h.mu0: returns h -> (h', D).

    X = Ric_mu + r I and D is the projection of h^{-1} X h onto Der(mu0),
    whose basis is orthonormal, so the projection is B^T B vec(.).  Then
    h' = -(X - h D h^{-1}) h = -X h + h D.  When normalized, X is evaluated
    on mu rescaled to ||mu0||; then <mu', mu> = 0 for the scalar rate, and
    the flow of h commutes with rescaling h.
    """
    n, c0 = b0.n, b0.coeffs
    basis = np.array(derivation_basis(b0)).reshape(-1, n * n)
    eye = np.eye(n)
    norm0 = np.linalg.norm(c0)

    def generator(h):
        hinv = np.linalg.inv(h)
        c = _gl_action_coeffs(h, hinv, c0)
        if normalized:
            c = c * (norm0 / np.linalg.norm(c))
        ric = _ricci(c)
        x = ric + rate(c, ric) * eye
        d = (basis.T @ (basis @ (hinv @ x @ h).reshape(-1))).reshape(n, n)
        return h @ d - x @ h, d

    return generator


def _finish_trace(kind, samples, stats, c0, rate):
    n = c0.shape[0]
    times = np.array([t for t, _ in samples])
    frames = [y.reshape(n, n) for _, y in samples]
    coeffs = [_gl_action_coeffs(h, np.linalg.inv(h), c0) for h in frames]
    if kind == "normalized":
        # (lambda h).mu0 = mu / lambda puts every sample back on ||mu|| = ||mu0||
        lams = [np.linalg.norm(c) / np.linalg.norm(c0) for c in coeffs]
        frames = [lam * h for lam, h in zip(lams, frames)]
        coeffs = [c / lam for lam, c in zip(lams, coeffs)]
    brackets = [Bracket(c) for c in coeffs]
    stats["max_cond_h"] = float(np.linalg.cond(np.array(frames)).max())
    m = len(brackets)
    mu_norm = np.empty(m)
    scal = np.empty(m)
    tr_ric2 = np.empty(m)
    grad_norm = np.empty(m)
    jac_res = np.empty(m)
    r_values = np.empty(m)
    for i, b in enumerate(brackets):
        c = b.coeffs
        ric = _ricci(c)
        mu_norm[i] = np.linalg.norm(c)
        scal[i] = -0.25 * mu_norm[i] ** 2
        tr_ric2[i] = np.sum(ric * ric)
        grad_norm[i] = np.linalg.norm(_delta_coeffs(c, ric))
        jac_res[i] = jacobiator_residual(b)
        r_values[i] = rate(c, ric)
    return FlowTrace(
        kind=kind,
        times=times,
        brackets=brackets,
        r_values=r_values,
        mu_norm=mu_norm,
        scal=scal,
        tr_ric2=tr_ric2,
        grad_norm=grad_norm,
        jacobi_residual=jac_res,
        stats=stats,
        frames=frames,
        rate=rate,
    )


def _run_bracket_flow(b0, t_max, opts, kind, r):
    """Integrate the frame of mu' = delta_mu(Ric_mu) + r mu; the generator
    is normalized to ||mu0|| exactly when kind is "normalized"."""
    rate = _rate(r)
    opts = opts or FlowOpts()
    n = b0.n
    generator = _frame_generator(b0, rate, kind == "normalized")

    def rhs(t, y):
        try:
            return generator(y.reshape(n, n))[0].reshape(-1)
        except np.linalg.LinAlgError:
            raise NumericalFailure(f"the frame h became singular at t={t:.6g}", trace=None) from None

    samples, stats = _integrate_adaptive(rhs, 0.0, np.eye(n).reshape(-1), t_max, opts)
    stats["t_final"] = samples[-1][0]
    return _finish_trace(kind, samples, stats, b0.coeffs, rate)


def integrate_bracket_flow(b0: Bracket, t_max: float, opts: FlowOpts | None = None) -> FlowTrace:
    """Unnormalized flow mu' = delta_mu(Ric_mu); ||mu|| is nonincreasing and
    the solution exists for all positive time."""
    return _run_bracket_flow(b0, t_max, opts, "unnormalized", None)


def integrate_normalized_flow(b0: Bracket, t_max: float, opts: FlowOpts | None = None) -> FlowTrace:
    """Scalar-curvature normalized flow mu' = delta_mu(Ric_mu) + tr(Ric^2) mu.

    Requires ||mu_0|| = 2 (scal = -1) to 1e-10.  Ric and the rate are
    evaluated on mu rescaled to ||mu_0||, so the flow itself keeps
    ||mu|| = ||mu_0||, and every sample lies on that sphere to rounding.
    """
    drift = abs(b0.norm - 2.0)
    if drift > 1e-10:
        raise BadNormalization(
            f"initial bracket is off the sphere ||mu|| = 2 by {drift:.3e}; rescale explicitly"
        )
    return _run_bracket_flow(b0, t_max, opts, "normalized", "scalar")


def integrate_r_normalized(b0: Bracket, r, t_max: float, opts: FlowOpts | None = None) -> FlowTrace:
    """Flow mu' = delta_mu(Ric_mu) + r mu for any normalization rate r.

    r may be None or 0 (reproducing the unnormalized flow exactly), a number,
    "scalar" (r = tr(Ric^2) of mu itself, so unlike
    `integrate_normalized_flow` the sphere ||mu|| = 2 repels: any drift off
    it grows), or a callable Bracket -> float.  Any other r raises BadRate.
    The rate at each sample is stored in `r_values`.
    """
    return _run_bracket_flow(b0, t_max, opts, "r", r)


# ---------------------------------------------------------------------------
# Companion frame h(t) and the equivalent inner-product flow.


def cointegrate_h(trace: FlowTrace) -> list:
    """Frames h(t) of h' = -(Ric_{mu(t)} + r(t) I) h, h(0) = I, along a trace.

    The trace's `frames` f already pull the initial bracket onto it
    (mu(t) = f(t).mu(0)), but solve f' = -(X - f D f^{-1}) f (see the module
    docstring).  The factor a' = -D a, a(0) = I, stays in Aut(mu(0)), and
    h = f a solves the equation above.  (f, a) is integrated from (I, I) in
    one unthinned run that stops at every sample time t_i.  Returns
    frames[i] @ a(t_i) for each sample; mu(t) = h(t).mu(0).
    """
    n = trace.initial_bracket.n
    nn = n * n
    times = trace.times
    generator = _frame_generator(trace.initial_bracket, trace.rate, trace.kind == "normalized")

    def rhs(t, y):
        df, d = generator(y[:nn].reshape(n, n))
        return np.concatenate([df.reshape(-1), (-d @ y[nn:].reshape(n, n)).reshape(-1)])

    opts = FlowOpts(rtol=1e-10, atol=1e-12, max_samples=math.inf, stops=tuple(times[1:-1]))
    y0 = np.concatenate([np.eye(n).reshape(-1), np.eye(n).reshape(-1)])
    samples, _ = _integrate_adaptive(rhs, times[0], y0, times[-1], opts)
    # each t_i is a stop of the run; a stop within rounding of the one before
    # relabels that sample, so take the first run sample at or after t_i
    at = np.searchsorted([t for t, _ in samples], times)
    return [f @ samples[j][1][nn:].reshape(n, n) for f, j in zip(trace.frames, at)]


@dataclass
class InnerProductTrace:
    """Sampled solution of the metric-tensor flow G' = -2 ric(G) (+ -2 r G)."""

    times: np.ndarray
    metrics: list
    stats: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)

    def index_of_time(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError(f"time {t} is not a sample of this trace")
        return i


def _ip_ricci_products(c0, g):
    """Cholesky change of basis for a fixed bracket and evolving metric G.

    Returns (L, ric_nu, c_nu) with G = L L^T and ric_nu the Ricci operator of
    the pushed bracket c_nu = (L^T).mu_0; the metric-flow right side is
    -2 L ric_nu L^T and the Ricci operator of (G, mu_0) in the original frame
    is L^{-T} ric_nu L^T.
    """
    lmat = np.linalg.cholesky(g)
    h = lmat.T
    hinv = np.linalg.inv(h)
    c_nu = _gl_action_coeffs(h, hinv, c0)
    return lmat, _ricci(c_nu), c_nu


def innerproduct_scal(b0: Bracket, g: np.ndarray) -> float:
    """Scalar curvature of the metric G paired with the fixed bracket b0."""
    _, _, c_nu = _ip_ricci_products(b0.coeffs, np.asarray(g, float))
    return -0.25 * float(np.sum(c_nu * c_nu))


def integrate_innerproduct_flow(
    b0: Bracket, t_max: float, opts: FlowOpts | None = None, r=None
) -> InnerProductTrace:
    """Metric-tensor flow with the bracket held fixed at b0.

    G' = -2 ric(G) - 2 r G, where r follows the bracket flows: None for the
    unnormalized flow, "scalar" for tr(Ric^2), or a constant.  A callable
    rate raises BadRate: the rate is evaluated on the pushed bracket
    (L^T).mu_0, which is only O(n)-equivalent to mu(t).  The states are Gram
    matrices; a failed Cholesky raises LossOfPositivity with the partial
    trace attached.
    """
    rate = _rate(r, callable_ok=False)
    opts = opts or FlowOpts()
    n = b0.n
    c0 = b0.coeffs

    def rhs(t, gflat):
        g = gflat.reshape(n, n)
        g = 0.5 * (g + g.T)
        try:
            lmat, ric_nu, c_nu = _ip_ricci_products(c0, g)
        except np.linalg.LinAlgError:
            raise LossOfPositivity(f"metric lost positivity at t={t:.6g}", trace=None) from None
        dg = -2.0 * lmat @ ric_nu @ lmat.T - 2.0 * rate(c_nu, ric_nu) * g
        return dg.reshape(-1)

    samples, stats = _integrate_adaptive(rhs, 0.0, np.eye(n).reshape(-1), t_max, opts)
    stats["t_final"] = samples[-1][0]
    times = np.array([t for t, _ in samples])
    metrics = [0.5 * (y.reshape(n, n) + y.reshape(n, n).T) for _, y in samples]
    return InnerProductTrace(times=times, metrics=metrics, stats=stats)


# ---------------------------------------------------------------------------
# Structural checks along traces.


@dataclass(frozen=True)
class IdentityReport:
    """Finite-difference check of d/dt scal = 2 tr Ric^2 and
    d/dt ||mu||^2 = -8 tr Ric^2 at interior samples."""

    max_rel_err_scal: float
    max_rel_err_norm: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return max(self.max_rel_err_scal, self.max_rel_err_norm) < self.tolerance


def _interior_derivative(times, values):
    """Derivative at the interior nodes of a nonuniform grid.

    Fits a quartic through the five nearest nodes (falling back to the
    three-point formula when the grid is too short); windows are rescaled to
    O(1) before the fit to keep the Vandermonde solve well conditioned.
    """
    m = len(times)
    if m < 5:
        t0, t1, t2 = times[:-2], times[1:-1], times[2:]
        f0, f1, f2 = values[:-2], values[1:-1], values[2:]
        d1 = t1 - t0
        d2 = t2 - t1
        return (
            -d2 / (d1 * (d1 + d2)) * f0
            + (d2 - d1) / (d1 * d2) * f1
            + d1 / (d2 * (d1 + d2)) * f2
        )
    out = np.empty(m - 2)
    for j in range(1, m - 1):
        lo = min(max(0, j - 2), m - 5)
        ts = times[lo : lo + 5] - times[j]
        s = ts[-1] - ts[0]
        coef = np.polyfit(ts / s, values[lo : lo + 5], deg=4)
        out[j - 1] = coef[-2] / s
    return out


def verify_flow_identities(trace: FlowTrace, tolerance: float = 1e-4) -> IdentityReport:
    """Check the exact first-order identities of the unnormalized flow by
    differentiating the stored diagnostics; requires a dense enough trace.
    A trace with a nonzero rate anywhere raises ConfigError."""
    if np.any(trace.r_values):
        raise ConfigError("flow identities hold for the unnormalized flow (r = 0) only")
    if len(trace) < 3:
        raise TooFewSamples(f"need at least 3 samples, trace has {len(trace)}")
    t = trace.times
    f_mid = trace.tr_ric2[1:-1]
    dscal = _interior_derivative(t, trace.scal)
    dnorm2 = _interior_derivative(t, trace.mu_norm**2)
    scale = np.maximum(2.0 * f_mid, 1e-12)
    rel_scal = np.abs(dscal - 2.0 * f_mid) / scale
    rel_norm = np.abs(dnorm2 + 8.0 * f_mid) / (4.0 * scale)
    return IdentityReport(
        max_rel_err_scal=float(rel_scal.max()),
        max_rel_err_norm=float(rel_norm.max()),
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class Type3Report:
    """Empirical type-III bounds along an unnormalized trace."""

    sup_t_riemann: float
    sup_t_ricci: float
    sup_norm_ratio: float  # sup of t ||mu||^2 / (2n); <= 1 is the proven bound
    ricci_bound_ratio: float  # sup of t ||Ric|| / (sqrt(3) n / 2)

    @property
    def norm_bound_ok(self) -> bool:
        return self.sup_norm_ratio <= 1.0 + 1e-9

    @property
    def ricci_bound_ok(self) -> bool:
        return self.ricci_bound_ratio <= 1.0 + 1e-9

    def to_dict(self) -> dict:
        return {
            "sup_t_riemann": self.sup_t_riemann,
            "sup_t_ricci": self.sup_t_ricci,
            "sup_norm_ratio": self.sup_norm_ratio,
            "ricci_bound_ratio": self.ricci_bound_ratio,
            "norm_bound_ok": self.norm_bound_ok,
            "ricci_bound_ok": self.ricci_bound_ok,
        }


def type3_certificate(trace: FlowTrace) -> Type3Report:
    """Certificate that curvature decays like C/t along the unnormalized flow.

    sup t ||mu(t)||^2 <= 2n is a theorem; the Riemann constant is estimated
    empirically and reported, never asserted.  A trace with a nonzero rate
    anywhere raises ConfigError.
    """
    if np.any(trace.r_values):
        raise ConfigError("type-III bounds apply to the unnormalized flow (r = 0) only")
    n = trace.brackets[0].n
    sup_riem = 0.0
    sup_ric = 0.0
    sup_norm = 0.0
    for i in range(len(trace)):
        t = float(trace.times[i])
        if t == 0.0:
            continue
        b = trace.brackets[i]
        sup_riem = max(sup_riem, t * riemann_at_origin(b).norm)
        sup_ric = max(sup_ric, t * math.sqrt(float(trace.tr_ric2[i])))
        sup_norm = max(sup_norm, t * float(trace.mu_norm[i]) ** 2)
    return Type3Report(
        sup_t_riemann=sup_riem,
        sup_t_ricci=sup_ric,
        sup_norm_ratio=sup_norm / (2.0 * n),
        ricci_bound_ratio=sup_ric / (math.sqrt(3.0) * n / 2.0),
    )


# ---------------------------------------------------------------------------
# Equivalence of the three presentations of the same flow.


@dataclass(frozen=True)
class EquivalenceReport:
    """Residuals tying the bracket flow, the frame h(t), and the metric flow.

    max_pullback_residual: sup_t ||mu(t) - h(t).mu_0|| / ||mu(t)||
    max_gram_residual:     sup_t ||G(t) - h(t)^T h(t)|| / ||G(t)||
    max_scal_mismatch:     sup_t |scal(G(t), mu_0) - scal(mu(t))| (relative)
    """

    max_pullback_residual: float
    max_gram_residual: float
    max_scal_mismatch: float
    times: np.ndarray

    def ok(self, tol: float) -> bool:
        return max(self.max_pullback_residual, self.max_gram_residual) < tol

    def to_dict(self) -> dict:
        return {
            "max_pullback_residual": self.max_pullback_residual,
            "max_gram_residual": self.max_gram_residual,
            "max_scal_mismatch": self.max_scal_mismatch,
        }


def equivalence_report(
    b0: Bracket,
    t_max: float,
    opts: FlowOpts | None = None,
    r=None,
    checkpoints: int = 26,
) -> EquivalenceReport:
    """Run the same geometry three ways and compare at shared checkpoints.

    The inner-product flow is integrated with the bracket fixed; the bracket
    flow is integrated with the same rate, and h(t) is co-integrated along
    it.  r is None for the unnormalized flow, a constant rate, or the string
    "scalar" for tr(Ric^2); a callable raises BadRate, as in the metric flow.
    """
    opts = opts or FlowOpts()
    grid = np.linspace(0.0, t_max, checkpoints)
    opts = replace(opts, stops=tuple(grid[1:-1]))

    ip = integrate_innerproduct_flow(b0, t_max, opts, r=r)
    trace = integrate_r_normalized(b0, r, t_max, opts)
    hs = cointegrate_h(trace)

    c0 = b0.coeffs
    max_pull = 0.0
    for i in range(len(trace)):
        h = hs[i]
        hinv = np.linalg.inv(h)
        pulled = _gl_action_coeffs(h, hinv, c0)
        num = np.linalg.norm(trace.brackets[i].coeffs - pulled)
        max_pull = max(max_pull, num / max(trace.mu_norm[i], 1e-300))

    max_gram = 0.0
    max_scal = 0.0
    for t in grid:
        i = trace.index_of_time(float(t))
        j = ip.index_of_time(float(t))
        g = ip.metrics[j]
        hth = hs[i].T @ hs[i]
        max_gram = max(max_gram, np.linalg.norm(g - hth) / max(np.linalg.norm(g), 1e-300))
        scal_ip = innerproduct_scal(b0, g)
        max_scal = max(max_scal, abs(scal_ip - trace.scal[i]) / max(abs(trace.scal[i]), 1e-300))
    return EquivalenceReport(
        max_pullback_residual=max_pull,
        max_gram_residual=max_gram,
        max_scal_mismatch=max_scal,
        times=grid,
    )
