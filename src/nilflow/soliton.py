"""Ricci-soliton certificates and convergence detection.

A nilpotent bracket mu is a soliton metric when Ric_mu = c I + D for a scalar
c and a derivation D of mu; those brackets are exactly the critical points of
tr(Ric^2) restricted to spheres, and the normalized flow converges to one from
every starting point.  The functions here project Ric onto span{I} + Der(mu),
measure the stationarity of the normalized flow, and summarize whether a
stored trace has settled onto such a limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Bracket,
    central_series_dims,
    delta,
    derivation_basis,
    nilpotency_degree,
    vn_inner,
)
from .curvature import ricci_energy, ricci_operator
from .exceptions import ZeroBracket

_TINY = 1e-300


@dataclass(frozen=True)
class SolitonCertificate:
    """Best decomposition Ric = c I + D with D a derivation.

    residual is ||Ric - c I - D||_F; is_soliton applies the relative
    tolerance the certificate was computed with.  derivation_residual
    re-checks that D actually satisfies the derivation identity.
    """

    c: float
    derivation: np.ndarray
    residual: float
    derivation_residual: float
    is_soliton: bool
    ricci_spectrum: np.ndarray

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "D": self.derivation.tolist(),
            "residual": self.residual,
            "derivation_residual": self.derivation_residual,
            "is_soliton": self.is_soliton,
            "ricci_spectrum": self.ricci_spectrum.tolist(),
        }


def soliton_residual(b: Bracket, tol: float = 1e-8) -> SolitonCertificate:
    """Project Ric_b onto span{I} + Der(b) and certify the remainder.

    The projection solves a joint least-squares problem, so the trace
    identity c n + tr D = scal holds automatically.
    """
    if b.norm == 0.0:
        raise ZeroBracket("the zero bracket has no soliton normalization")
    n = b.n
    ric = ricci_operator(b)
    ders = derivation_basis(b)
    cols = [np.eye(n).reshape(-1)] + [d.reshape(-1) for d in ders]
    a = np.stack(cols, axis=1)
    x, *_ = np.linalg.lstsq(a, ric.reshape(-1), rcond=None)
    c = float(x[0])
    d = sum((float(x[1 + i]) * ders[i] for i in range(len(ders))), np.zeros((n, n)))
    resid = float(np.linalg.norm(ric - c * np.eye(n) - d))
    der_resid = float(delta(b, d).norm)
    spectrum = np.sort(np.linalg.eigvalsh(ric))
    return SolitonCertificate(
        c=c,
        derivation=d,
        residual=resid,
        derivation_residual=der_resid,
        is_soliton=resid < tol * max(float(np.linalg.norm(ric)), _TINY),
        ricci_spectrum=spectrum,
    )


@dataclass(frozen=True)
class CriticalPointReport:
    """Stationarity of the normalized flow at a bracket on the sphere.

    stationarity = ||delta(Ric) + tr(Ric^2) mu||, the speed of the normalized
    flow; ratio divides by the unconstrained gradient norm so 0 means exactly
    critical and 1 means the motion is not constrained by the sphere at all.
    """

    stationarity: float
    gradient_norm: float
    ratio: float


def critical_point_check(b: Bracket) -> CriticalPointReport:
    ric = ricci_operator(b)
    grad = delta(b, ric).coeffs  # negative gradient of the energy
    rhs = grad + float(np.sum(ric * ric)) * b.coeffs
    gnorm = float(np.linalg.norm(grad))
    snorm = float(np.linalg.norm(rhs))
    return CriticalPointReport(
        stationarity=snorm,
        gradient_norm=gnorm,
        ratio=snorm / max(gnorm, _TINY),
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Verdict on whether a normalized trace has reached a soliton limit."""

    converged: bool
    reason: str
    certificate: SolitonCertificate
    stationarity: float
    r_limit: float
    decay_rate: float
    fit_r2: float
    window: int

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "reason": self.reason,
            "certificate": self.certificate.to_dict(),
            "stationarity": self.stationarity,
            "r_limit": self.r_limit,
            "decay_rate": self.decay_rate,
            "fit_r2": self.fit_r2,
            "window": self.window,
        }


def detect_convergence(trace, tol: float = 1e-8, stat_tol: float = 1e-6) -> ConvergenceReport:
    """Decide whether a normalized flow trace has settled onto a soliton.

    The candidate limit is the final bracket.  The report never raises on a
    non-converged trace: it carries the certificate, the final normalized-flow
    speed, and an exponential fit of the distance to the limit over the
    trailing window (rate and r^2 are nan when the tail has too few usable
    points, e.g. because the distances already sit at rounding level).
    """
    if trace.kind != "normalized":
        raise ValueError("convergence detection expects a normalized trace")
    limit = trace.final_bracket
    cert = soliton_residual(limit, tol=tol)
    stat = critical_point_check(limit).stationarity

    window = max(50, len(trace) // 10)
    window = min(window, len(trace) - 1)
    rate = math.nan
    r2 = math.nan
    if window >= 3:
        ts = trace.times[-1 - window : -1]
        ds = np.array(
            [np.linalg.norm(b.coeffs - limit.coeffs) for b in trace.brackets[-1 - window : -1]]
        )
        keep = ds > 1e-14
        # a fit is only informative when the tail actually spans some decay,
        # not when the distances sit at rounding level
        if keep.sum() >= 3 and ds[keep].max() > 100.0 * ds[keep].min():
            ts, logd = ts[keep], np.log(ds[keep])
            slope, intercept = np.polyfit(ts, logd, 1)
            pred = slope * ts + intercept
            ss_res = float(np.sum((logd - pred) ** 2))
            ss_tot = float(np.sum((logd - logd.mean()) ** 2))
            rate = float(slope)
            r2 = 1.0 - ss_res / max(ss_tot, _TINY)

    if not cert.is_soliton:
        verdict, reason = False, f"limit fails the soliton certificate (residual {cert.residual:.3e})"
    elif stat > stat_tol:
        verdict, reason = False, f"flow has not stalled (speed {stat:.3e} > {stat_tol:.1e})"
    else:
        verdict, reason = True, "soliton certificate holds and the flow is stationary"
    return ConvergenceReport(
        converged=verdict,
        reason=reason,
        certificate=cert,
        stationarity=stat,
        r_limit=float(trace.tr_ric2[-1]),
        decay_rate=rate,
        fit_r2=r2,
        window=int(window),
    )


def orbit_invariants(b: Bracket, tol: float = DEFAULT_TOL) -> dict:
    """Quantities constant on the orthogonal orbit of a bracket.

    Useful as a fingerprint for clustering flow limits: two brackets with
    different invariants cannot be isometric.
    """
    ric = ricci_operator(b)
    dims = central_series_dims(b, tol=tol)
    return {
        "ricci_spectrum": [float(v) for v in np.sort(np.linalg.eigvalsh(ric))],
        "mu_norm": float(b.norm),
        "energy": float(ricci_energy(b)),
        "degree": nilpotency_degree(b, tol=tol),
        "series_dims": [int(v) for v in dims],
    }


def soliton_rate_identity(b: Bracket) -> tuple:
    """For a certified soliton, c = -4 tr(Ric^2) / ||mu||^2.

    Returns (c_from_certificate, c_from_identity); callers compare them.
    """
    cert = soliton_residual(b)
    c_identity = -4.0 * ricci_energy(b) / float(vn_inner(b, b))
    return cert.c, c_identity
