"""Ricci-soliton certificates and convergence detection.

A nilpotent bracket mu is a soliton metric when Ric_mu = c I + D for a scalar
c and a derivation D of mu; those brackets are exactly the critical points of
tr(Ric^2) restricted to spheres, and the normalized flow converges to one from
every starting point.  Since tr(Ric D) = 0 for every derivation D, such a c
can only be -4 tr(Ric^2) / ||mu||^2 (Lauret, Math. Ann. 319, 2001), so the
certificate is one closed formula.  The functions here evaluate it and
summarize whether a stored trace has settled onto a soliton limit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .algebra import Bracket, _check_tol, _delta_coeffs, _norm, central_series_dims, nilpotency_degree
from .curvature import _ricci, _tr_ric2, curvature_pack
from .exceptions import ConfigError, ZeroBracket


@dataclass(frozen=True)
class SolitonCertificate:
    """The decomposition Ric = c I + D with c = -4 tr(Ric^2) / ||mu||^2.

    residual is ||delta_mu(D)||, zero exactly when D is a derivation; on
    ||mu|| = 2 it is the speed of the normalized flow.  is_soliton applies
    the tolerance the certificate was computed with, relative to
    ||mu|| ||Ric||, so the verdict does not depend on the scale of mu.
    """

    c: float
    derivation: np.ndarray
    residual: float
    is_soliton: bool

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "D": self.derivation.tolist(),
            "residual": self.residual,
            "is_soliton": self.is_soliton,
        }


def soliton_residual(b: Bracket, tol: float = 1e-8) -> SolitonCertificate:
    """Certify Ric_b = c I + D with c = -4 tr(Ric^2) / ||mu||^2 and D = Ric - c I.

    residual = ||delta_mu(D)|| = ||delta_mu(Ric) - c mu|| is continuous in mu;
    no derivation basis or rank decision is involved.  c and D are quadratic
    and the residual cubic in mu, so all three are computed on u = mu / ||mu||,
    where tr(Ric^2) neither under- nor overflows, and scaled back.
    ConfigError unless tol is finite and > 0.
    """
    _check_tol(tol)
    nrm = b.norm
    if nrm == 0.0:
        raise ZeroBracket("the zero bracket has no soliton normalization")
    u = b.coeffs / nrm
    ric = _ricci(u)
    ric_norm = math.sqrt(_tr_ric2(ric))
    c = -4.0 * ric_norm**2
    d = ric - c * np.eye(b.n)
    resid = float(_norm(_delta_coeffs(u, d)))
    scale = nrm * nrm
    return SolitonCertificate(
        c=c * scale,
        derivation=d * scale,
        # left to right: a zero residual stays 0 where nrm^3 overflows
        residual=resid * nrm * nrm * nrm,
        is_soliton=resid < tol * ric_norm,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Verdict on whether a normalized trace has reached a soliton limit."""

    converged: bool
    reason: str
    certificate: SolitonCertificate
    r_limit: float
    decay_rate: float
    fit_r2: float
    window: int

    def to_dict(self) -> dict:
        return {**asdict(self), "certificate": self.certificate.to_dict()}


def detect_convergence(trace, tol: float = 1e-8) -> ConvergenceReport:
    """Decide whether a normalized flow trace has settled onto a soliton.

    The candidate limit is the final bracket.  The report never raises on a
    non-converged trace: it carries the certificate and an exponential fit of
    the distance to the limit over the trailing window (rate and r^2 are nan
    when the tail has too few usable points, e.g. because the distances
    already sit at rounding level).  ConfigError unless tol is finite and > 0
    (soliton_residual checks it).
    """
    if trace.kind != "normalized":
        raise ConfigError("convergence detection expects a normalized trace")
    limit = trace.final_bracket
    cert = soliton_residual(limit, tol=tol)

    window = max(50, len(trace) // 10)
    window = min(window, len(trace) - 1)
    rate = math.nan
    r2 = math.nan
    if window >= 3:
        ts = trace.times[-1 - window : -1]
        ds = _norm(trace.coeffs[-1 - window : -1] - limit.coeffs)
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
            r2 = 1.0 - ss_res / max(ss_tot, 1e-300)

    if cert.is_soliton:
        reason = f"soliton certificate holds (residual {cert.residual:.3e})"
    else:
        reason = f"limit fails the soliton certificate (residual {cert.residual:.3e})"
    return ConvergenceReport(
        converged=cert.is_soliton,
        reason=reason,
        certificate=cert,
        r_limit=float(trace.tr_ric2[-1]),
        decay_rate=rate,
        fit_r2=r2,
        window=int(window),
    )


def orbit_invariants(b: Bracket) -> dict:
    """Quantities constant on the orthogonal orbit of a bracket.

    Useful as a fingerprint for clustering flow limits: two brackets with
    different invariants cannot be isometric; a non-nilpotent b raises NotNilpotentError.
    The curvature entries are curvature_pack's, which raises BadNormalization
    where tr(Ric^2) under- or overflows.
    """
    pack = curvature_pack(b)
    return {
        "ricci_spectrum": [float(v) for v in pack.spectrum],
        "mu_norm": float(b.norm),
        "energy": pack.energy,
        "degree": nilpotency_degree(b),
        "series_dims": central_series_dims(b),
    }
