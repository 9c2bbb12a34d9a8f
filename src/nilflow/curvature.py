"""Curvature of the left-invariant metric attached to a nilpotent bracket.

All quantities are evaluated at the identity in the canonical orthonormal
basis: the Ricci operator, scalar curvature, the full Riemann tensor, the
energy tr(Ric^2) with its gradient on V_n, the flow Laplacian, and the
scale-invariant moment map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Operator, VTangent, _as_array, _delta_coeffs, _delta_matrix, _norm
from .exceptions import BadNormalization, ZeroBracket


def _ricci(c: np.ndarray) -> np.ndarray:
    """Ricci operator as an array; leading axes of c are batch axes.

    Two products of 2-D views, 1/4 C^T C - 1/2 A A^T, with C[(i, j), a] = c_ija
    and A[a, (i, k)] = c_iak.  As c_iak = -c_aik, A is minus the plain
    (n, n^2) view of c, and A A^T reads that view without a copy.
    """
    n = c.shape[-1]
    cols = c.reshape(*c.shape[:-3], n * n, n)
    rows = c.reshape(*c.shape[:-3], n, n * n)
    ric = rows @ rows.mT
    ric *= -0.5
    ric += 0.25 * (cols.mT @ cols)
    return ric


def _tr_ric2(ric: np.ndarray) -> np.ndarray:
    """tr(Ric^2) = ||Ric||^2 of each Ricci operator; leading axes of ric are batch axes."""
    flat = ric.reshape(*ric.shape[:-2], -1)
    return np.vecdot(flat, flat)


def ricci_operator(b: VTangent) -> Operator:
    """Ricci operator -1/2 sum_i (ad e_i)^t ad e_i + 1/4 sum_i ad e_i (ad e_i)^t.

    Defined for every skew bracket; symmetric by construction.
    """
    return _ricci(b.coeffs)


def ricci_form(b: VTangent) -> Operator:
    """Ricci as a bilinear form on basis pairs; independent contraction path
    used as a cross-check of ricci_operator."""
    c = b.coeffs
    t1 = np.einsum("xij,yij->xy", c, c)
    t2 = np.einsum("ijx,ijy->xy", c, c)
    return -0.5 * t1 + 0.25 * t2


def _scal(nrm):
    """scal = -nrm^2 / 4 of a bracket of norm nrm (of each, for an array); +0.0 at 0.
    nrm * nrm, as numpy squares an array: a float's **2 (libm pow) can be an ulp apart."""
    return 0.0 - 0.25 * (nrm * nrm)


def scalar_curvature(b: VTangent) -> float:
    """scal = -||mu||^2 / 4 (equals tr of the Ricci operator); +0.0 at mu = 0."""
    return _scal(b.norm)


def ricci_sign_check(b: VTangent) -> tuple:
    """(has_negative_direction, has_positive_direction) from the Ricci spectrum.

    An eigenvalue counts beyond 1e-12 of the largest |eigenvalue|; every nonzero nilpotent bracket has both.
    Ric is quadratic in mu, so the signs are read on mu / ||mu||, where no eigenvalue underflows.
    """
    nrm = b.norm
    if nrm == 0.0:
        return False, False
    eigs = np.linalg.eigvalsh(_ricci(b.coeffs / nrm))
    tol = 1e-12 * float(np.abs(eigs).max())
    return bool(eigs.min() < -tol), bool(eigs.max() > tol)


def _connection(c: np.ndarray) -> np.ndarray:
    """connection_operators as an array; leading axes of c are batch axes."""
    return 0.5 * (
        np.einsum("...ijk->...ikj", c) - np.einsum("...ijk->...kji", c) + np.einsum("...ijk->...jik", c)
    )


def connection_operators(b: VTangent) -> np.ndarray:
    """Left-invariant connection: gamma[r][i, j] = <nabla_{e_r} e_j, e_i>.

    Each gamma[r] is skew (metric connection in an orthonormal frame).
    """
    return _connection(b.coeffs)


@dataclass(frozen=True, eq=False)
class RiemannTensor:
    """Curvature tensor at the identity; entries[i, j, k, l] = R_ijkl with the
    index convention fixed so that sum_k R_ikjk is the Ricci form."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def norm(self) -> float:
        return float(_norm(self.entries, 4))

    def sectional(self, i: int, j: int) -> float:
        return float(self.entries[i, j, i, j])

    def ricci_contraction(self) -> Operator:
        return np.einsum("ikjk->ij", self.entries)


def _riemann(c: np.ndarray) -> np.ndarray:
    """Entries of riemann_at_origin; leading axes of c are batch axes.

    Two (n^2, n) @ (n, n^2) products: one gives every product gam_i gam_j of
    the connection operators, the other sum_a c_ija gam_a = nabla_{mu(e_i, e_j)}.
    """
    n = c.shape[-1]
    lead = c.shape[:-3]
    gam = _connection(c)
    rows = gam.reshape(*lead, n * n, n)  # [(i, a), b]
    cols = gam.swapaxes(-3, -2).reshape(*lead, n, n * n)  # [b, (j, d)]
    prod = (rows @ cols).reshape(*lead, n, n, n, n).swapaxes(-3, -2)  # [i, j, a, d] = (gam_i gam_j)_ad
    adterm = (c.reshape(*lead, n * n, n) @ gam.reshape(*lead, n, n * n)).reshape(*lead, n, n, n, n)
    # entry [i, j, k, l] = <R(e_i, e_j) e_l, e_k>
    out = prod - prod.swapaxes(-4, -3)
    out -= adterm
    return out


def riemann_at_origin(b: VTangent) -> RiemannTensor:
    """Riemann tensor R(x,y) = [nabla_x, nabla_y] - nabla_{mu(x,y)}, lowered
    so that the Ricci contraction sum_k R_ikjk reproduces ricci_operator."""
    return RiemannTensor(_riemann(b.coeffs))


def ricci_energy(b: VTangent) -> float:
    """tr(Ric^2) — the functional whose negative gradient drives the flow.

    Raises BadNormalization when tr(Ric^2), quartic in mu, underflows or
    overflows for a nonzero bracket: tr Ric = -||mu||^2 / 4 makes it at least
    ||mu||^4 / (16 n), never zero.
    """
    with np.errstate(over="ignore"):
        energy = float(_tr_ric2(_ricci(b.coeffs)))
    if not np.finfo(float).tiny <= energy < np.inf and b.norm > 0.0:
        fault = "underflows" if energy < 1.0 else "overflows"
        raise BadNormalization(f"tr Ric^2 {fault} at ||mu|| = {b.norm:.3e}; rescale explicitly")
    return energy


def ricci_energy_gradient(b: VTangent) -> VTangent:
    """Gradient of tr(Ric^2) on V_n: -delta_mu(Ric_mu)."""
    c = b.coeffs
    return VTangent(-_delta_coeffs(c, _ricci(c)))


def laplacian_delta(b: VTangent, alpha: Operator) -> Operator:
    """Flow Laplacian: symmetrized delta^t(delta(alpha)).

    Along the unnormalized flow, d/dt Ric = -1/2 laplacian_delta(b, Ric).
    """
    c, n = b.coeffs, b.n
    v = _delta_coeffs(c, _as_array(alpha, (n, n), "operator"))
    out = (_delta_matrix(c).T @ v.reshape(-1)).reshape(n, n)
    return 0.5 * (out + out.T)


def moment_map(b: VTangent) -> Operator:
    """Scale-invariant moment map 4 Ric_mu / ||mu||^2; trace is identically -1.

    Ric is quadratic in mu, so this is 4 Ric(mu / ||mu||), where nothing under- or overflows.
    """
    nrm = b.norm
    if nrm == 0.0:
        raise ZeroBracket("moment map undefined at the zero bracket")
    return 4.0 * _ricci(b.coeffs / nrm)


@dataclass(frozen=True, eq=False)
class CurvaturePack:
    """Bundle of pointwise curvature data for reports."""

    ricci: Operator
    spectrum: np.ndarray
    scal: float
    ricci_norm: float
    energy: float

    def to_dict(self) -> dict:
        return {
            "ricci": [[float(v) for v in row] for row in self.ricci],
            "ricci_spectrum": [float(v) for v in self.spectrum],
            "scal": float(self.scal),
            "ricci_norm": float(self.ricci_norm),
            "energy": float(self.energy),
        }


def curvature_pack(b: VTangent) -> CurvaturePack:
    """Raises BadNormalization where ricci_energy does."""
    energy = ricci_energy(b)
    ric = ricci_operator(b)
    return CurvaturePack(
        ricci=ric,
        spectrum=np.linalg.eigvalsh(ric),
        scal=scalar_curvature(b),
        ricci_norm=float(np.sqrt(energy)),
        energy=energy,
    )
