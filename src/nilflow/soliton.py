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
from dataclasses import dataclass, field
from functools import cached_property

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


def pre_einstein_derivation(b: Bracket):
    """(phi, tr phi, residual): Nikolayevsky's pre-Einstein derivation phi of
    mu, the derivation with tr(phi psi) = tr psi for every psi in Der(mu)
    (Trans. AMS 363, 2011).

    In the basis B_a of derivation_basis(b), phi = sum_a x_a B_a with
    G x = t, G_ab = tr(B_a B_b) and t_a = tr B_a; x is lstsq's.  G may be
    singular, but each nu in its kernel has tr nu = tr(nu phi) = 0, so
    tr phi = t . x is the same for every solution; residual = ||G x - t||
    says how well the system was solved.  Where the orbit of mu holds a
    nilsoliton, the normalized flow on ||mu|| = 2 reaches tr(Ric^2) =
    1 / (n - tr phi).
    """
    basis = b._derivations  # the (k, n, n) stack of derivation_basis(b)
    gram = np.einsum("aij,bji->ab", basis, basis)
    t = np.einsum("aii->a", basis)
    x = np.linalg.lstsq(gram, t)[0]
    phi = np.tensordot(x, basis, axes=1)
    return phi, float(t @ x), float(np.linalg.norm(gram @ x - t))


# relative distance of r_limit from 1 / (n - tr phi) up to which the limit is
# the soliton of the start's orbit: on the benchmark's soliton starts it is at
# most 4.6e-14, and DL8 in its own basis, whose orbit holds no soliton, reads
# 0.682 against 1/8 at T = 27
_IN_ORBIT_RTOL = 1e-9


@dataclass(frozen=True)
class ConvergenceReport:
    """Verdict on whether a normalized trace has reached a soliton limit,
    with the tail's decay rate and its gap (see detect_convergence), and the
    limit that the pre-Einstein derivation phi of the trace's start predicts,
    computed on first read: predicted_r_limit = 1 / (n - tr phi),
    pre_einstein_residual, the residual of phi's system (see
    pre_einstein_derivation), and limit_in_orbit, whether r_limit is within
    1e-9 of the prediction, relative, as it is where the start's orbit holds
    a nilsoliton."""

    converged: bool
    reason: str
    certificate: SolitonCertificate
    r_limit: float
    decay_rate: float
    rate_gap: float
    initial_bracket: Bracket = field(repr=False, compare=False)

    @cached_property
    def _pre_einstein(self):
        _, tr_phi, residual = pre_einstein_derivation(self.initial_bracket)
        return 1.0 / (self.initial_bracket.n - tr_phi), residual

    @property
    def predicted_r_limit(self) -> float:
        return self._pre_einstein[0]

    @property
    def pre_einstein_residual(self) -> float:
        return self._pre_einstein[1]

    @property
    def limit_in_orbit(self) -> bool:
        return abs(self.r_limit - self.predicted_r_limit) <= _IN_ORBIT_RTOL * self.predicted_r_limit

    def to_dict(self) -> dict:
        names = ("converged", "reason", "r_limit", "decay_rate", "rate_gap", "predicted_r_limit",
                 "pre_einstein_residual", "limit_in_orbit")
        return {name: getattr(self, name) for name in names} | {"certificate": self.certificate.to_dict()}


def detect_convergence(trace, tol: float = 1e-8) -> ConvergenceReport:
    """Decide whether a normalized flow trace has settled onto a soliton.

    The candidate limit is the final bracket.  decay_rate, the rate at which
    the tail approaches it, is the slowest nonzero Re lambda of
    trace.jacobian, the flow's linearization once settled: the sorted |Re
    lambda|, floored at eps ||J||_F (an own-basis soliton has exact zeros),
    split at their largest ratio, rate_gap, whose upper value is at least
    1e-3 tr(Ric^2).  Both are nan without such a ratio, the rate also when
    the gap is <= 1e3, as on a soliton orbit, where every bracket on the
    sphere is a limit.  The report keeps trace.initial_bracket for its
    pre-Einstein fields.  It never raises on a non-converged trace.
    ConfigError unless tol is finite and > 0 (soliton_residual checks it).
    """
    if trace.kind != "normalized":
        raise ConfigError("convergence detection expects a normalized trace")
    cert = soliton_residual(trace.final_bracket, tol=tol)
    r_limit = float(trace.tr_ric2[-1])
    rate = gap = math.nan
    if trace.jacobian is not None:
        lam = np.linalg.eigvals(trace.jacobian).real
        lam = lam[np.argsort(np.abs(lam))]
        mags = np.maximum(np.abs(lam), np.finfo(float).eps * np.linalg.norm(trace.jacobian))
        ratios = mags[1:] / mags[:-1]
        upper = np.flatnonzero(mags[1:] >= 1e-3 * r_limit)
        if upper.size:
            i = upper[np.argmax(ratios[upper])]
            gap = float(ratios[i])
            rate = float(lam[i + 1]) if gap > 1e3 else math.nan

    if cert.is_soliton:
        reason = f"soliton certificate holds (residual {cert.residual:.3e})"
    else:
        reason = f"limit fails the soliton certificate (residual {cert.residual:.3e})"
    return ConvergenceReport(
        converged=cert.is_soliton,
        reason=reason,
        certificate=cert,
        r_limit=r_limit,
        decay_rate=rate,
        rate_gap=gap,
        initial_bracket=trace.initial_bracket,
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
