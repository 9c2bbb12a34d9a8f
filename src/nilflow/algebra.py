"""Nilpotent Lie brackets on R^n as structure-constant arrays.

A bracket mu is stored as the dense cube C with C[i, j, k] = <mu(e_i, e_j), e_k>,
skew-symmetric in (i, j).  This module provides validation (skewness, Jacobi,
nilpotency), the GL(n) change-of-basis action, its linearization delta and the
adjoint delta^t, and derivation algebras.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (
    BracketFormatError,
    DimensionMismatch,
    NotNilpotentError,
    SingularMatrix,
)

logger = logging.getLogger(__name__)

#: Linear maps R^n -> R^n are plain (n, n) arrays throughout.
Operator = np.ndarray

DEFAULT_TOL = 1e-10
_SKEW_ATOL = 1e-8


@dataclass(frozen=True, eq=False)
class VTangent:
    """Skew-symmetric bilinear map R^n x R^n -> R^n (a point of V_n).

    Skewness in (i, j) is enforced exactly at construction: the input must be
    skew up to a small tolerance and is then exactly antisymmetrized.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 3 or not (c.shape[0] == c.shape[1] == c.shape[2]):
            raise DimensionMismatch(f"expected an (n, n, n) array, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise BracketFormatError("structure constants must be finite")
        swapped = c.transpose(1, 0, 2)
        scale = max(1.0, float(np.abs(c).max()))
        worst = float(np.abs(c + swapped).max())
        if worst > _SKEW_ATOL * scale:
            raise BracketFormatError(
                f"coefficients are not skew-symmetric in (i, j): residual {worst:.3e}"
            )
        c = 0.5 * (c - swapped)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_entries(cls, n, entries):
        """Build from a dict {(i, j, k): value} with 0-based indices, i < j."""
        c = np.zeros((n, n, n))
        for (i, j, k), v in entries.items():
            if not 0 <= i < j < n or not 0 <= k < n:
                raise BracketFormatError(f"bad index triple {(i, j, k)} for n={n}")
            c[i, j, k] = v
            c[j, i, k] = -v
        return cls(c)

    @classmethod
    def zero(cls, n):
        return cls(np.zeros((n, n, n)))

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def norm(self) -> float:
        """Norm induced by the full-array inner product (all ordered pairs)."""
        return float(np.linalg.norm(self.coeffs))

    def apply(self, x, y) -> np.ndarray:
        """Evaluate the bilinear map on a pair of vectors."""
        return np.einsum("ijk,i,j->k", self.coeffs, np.asarray(x, float), np.asarray(y, float))

    def ad(self, x) -> Operator:
        """Matrix of y -> value on (x, y)."""
        return np.einsum("ijk,i->kj", self.coeffs, np.asarray(x, float))

    def scaled(self, factor) -> "VTangent":
        return type(self)(factor * self.coeffs)


@dataclass(frozen=True, eq=False)
class Bracket(VTangent):
    """Structure constants of a (candidate) nilpotent Lie bracket."""

    @cached_property
    def degree(self) -> int:
        """`nilpotency_degree` at the default tolerance, computed once per
        bracket; the coefficients are frozen, so it cannot go stale."""
        return nilpotency_degree(self)


@dataclass(frozen=True)
class ValidationReport:
    skew_ok: bool
    jacobi_residual: float
    nilpotent: bool
    degree: int | None
    messages: tuple


def _require_same_n(a, b):
    if a.n != b.n:
        raise DimensionMismatch(f"dimension mismatch: {a.n} vs {b.n}")


def vn_inner(a: VTangent, b: VTangent) -> float:
    """Inner product on V_n: sum of products over all ordered index triples."""
    _require_same_n(a, b)
    return float(np.tensordot(a.coeffs, b.coeffs, axes=3))


def jacobiator_residual(b: VTangent) -> float:
    """Max-norm of the cyclic Jacobiator over all basis triples."""
    c = b.coeffs
    jac = (
        np.einsum("ija,akm->ijkm", c, c)
        + np.einsum("jka,aim->ijkm", c, c)
        + np.einsum("kia,ajm->ijkm", c, c)
    )
    return float(np.abs(jac).max()) if jac.size else 0.0


def _central_series(c: np.ndarray, tol: float):
    """Descending central series dimensions [dim C^0, dim C^1, ...].

    Returns (dims, degree) where degree is the first m with C^m = 0,
    or (dims, None) if the series stabilizes at a nonzero subspace.
    """
    n = c.shape[0]
    if c.size == 0 or np.abs(c).max() == 0.0:
        # convention: the zero bracket has degree 0
        return [n, 0], 0
    # Genuine singular values of every step scale linearly with ||mu|| (the
    # spanning basis is re-orthonormalized each time), so one scale-invariant
    # threshold works at all depths.
    thresh = tol * float(np.linalg.norm(c))
    dims = [n]
    basis = np.eye(n)
    for step in range(1, n + 2):
        img = np.einsum("ijk,jm->kim", c, basis).reshape(n, -1)
        u, s, _ = np.linalg.svd(img, full_matrices=False)
        rank = int(np.sum(s > thresh))
        dims.append(rank)
        if rank == 0:
            return dims, step
        if rank >= dims[-2]:
            return dims, None
        basis = u[:, :rank]
    return dims, None


def nilpotency_degree(b: VTangent, tol: float = DEFAULT_TOL) -> int:
    """Degree of nilpotency via the descending central series.

    C^0 = R^n, C^{m+1} = mu(R^n, C^m); the degree is the first m with
    C^m = 0 (0 for the zero bracket by convention).  Raises
    NotNilpotentError if the series stabilizes at a nonzero subspace.
    """
    _, degree = _central_series(b.coeffs, tol)
    if degree is None:
        raise NotNilpotentError("descending central series stabilizes at a nonzero subspace")
    return degree


def central_series_dims(b: VTangent, tol: float = DEFAULT_TOL) -> list:
    dims, _ = _central_series(b.coeffs, tol)
    return dims


def validate_bracket(b: Bracket, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check skewness, the Jacobi identity, and nilpotency.

    The Jacobi threshold is tol on the unit-norm-scaled bracket, i.e. the raw
    residual is compared against tol * max(1, ||mu||^2).
    """
    c = b.coeffs
    skew_res = float(np.abs(c + c.transpose(1, 0, 2)).max())
    skew_ok = skew_res <= tol
    jac = jacobiator_residual(b)
    scale = max(1.0, b.norm**2)
    jacobi_ok = jac <= tol * scale
    messages = []
    if not skew_ok:
        messages.append(f"skew residual {skew_res:.3e} exceeds {tol:.1e}")
    if not jacobi_ok:
        messages.append(f"jacobi residual {jac:.3e} exceeds {tol * scale:.1e}")
    dims, degree = _central_series(c, tol)
    nilpotent = degree is not None
    if not nilpotent:
        messages.append(f"central series stabilizes at dimension {dims[-1]}")
    if jacobi_ok and nilpotent and skew_ok:
        messages.append(f"valid nilpotent bracket of degree {degree}")
    return ValidationReport(
        skew_ok=skew_ok,
        jacobi_residual=jac,
        nilpotent=nilpotent and jacobi_ok,
        degree=degree if jacobi_ok else None,
        messages=tuple(messages),
    )


def _gl_action_coeffs(g: np.ndarray, ginv: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(g.mu)_ijk = sum ginv_ai ginv_bj g_kc c_abc, as two batched matrix products."""
    n = c.shape[0]
    t = (ginv.T @ c.reshape(n, -1)).reshape(c.shape)
    return ginv.T @ t @ g.T


def gl_action(g: Operator, b: VTangent) -> VTangent:
    """Change-of-basis action (g.mu)(x, y) = g mu(g^{-1} x, g^{-1} y).

    Raises SingularMatrix for non-invertible g; warns when the condition
    number exceeds 1e12.
    """
    g = np.asarray(g, dtype=float)
    n = b.n
    if g.shape != (n, n):
        raise DimensionMismatch(f"operator shape {g.shape} does not match n={n}")
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > 1e15:
        raise SingularMatrix(f"change of basis is singular (cond={cond:.3e})")
    if cond > 1e12:
        logger.warning("ill-conditioned change of basis: cond=%.3e", cond)
    c = _gl_action_coeffs(g, np.linalg.inv(g), b.coeffs)
    # the products round (i, j) and (j, i) differently, by up to ~cond(g)^2 eps
    return type(b)(0.5 * (c - c.transpose(1, 0, 2)))


def _delta_coeffs(c: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    t1 = np.einsum("ai,ajk->ijk", alpha, c)
    t2 = np.einsum("aj,iak->ijk", alpha, c)
    t3 = np.einsum("ka,ija->ijk", alpha, c)
    return t1 + t2 - t3


def delta(b: VTangent, alpha: Operator) -> VTangent:
    """Linearized action: delta_mu(alpha) = mu(alpha., .) + mu(., alpha.) - alpha mu(., .).

    Its kernel is the derivation algebra; delta_mu(I) = mu.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (b.n, b.n):
        raise DimensionMismatch(f"operator shape {alpha.shape} does not match n={b.n}")
    return VTangent(_delta_coeffs(b.coeffs, alpha))


def _delta_transpose_coeffs(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    t1 = np.einsum("pjk,qjk->pq", c, v)
    t2 = np.einsum("ipk,iqk->pq", c, v)
    t3 = np.einsum("ijq,ijp->pq", c, v)
    return t1 + t2 - t3


def delta_transpose(b: VTangent, v: VTangent) -> Operator:
    """Adjoint of delta_mu with respect to the V_n and trace inner products."""
    _require_same_n(b, v)
    return _delta_transpose_coeffs(b.coeffs, v.coeffs)


def _delta_matrix(c: np.ndarray) -> np.ndarray:
    """Matrix of alpha -> delta_mu(alpha): shape (n^3, n^2), columns indexed by vec(alpha)."""
    n = c.shape[0]
    eye = np.eye(n)
    a = (
        np.einsum("ib,ajk->ijkab", eye, c)
        + np.einsum("jb,iak->ijkab", eye, c)
        - np.einsum("ka,ijb->ijkab", eye, c)
    )
    return a.reshape(n**3, n**2)


def derivation_basis(b: VTangent, tol: float = DEFAULT_TOL) -> list:
    """Orthonormal basis (trace inner product) of Der(mu) = ker delta_mu.

    Nullspace via SVD with relative singular-value threshold tol.
    """
    n = b.n
    a = _delta_matrix(b.coeffs)
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > s[0] * tol))
    return [row.reshape(n, n) for row in vt[rank:]]


# ---------------------------------------------------------------------------
# JSON interchange: {"n": n, "entries": [{"i", "j", "k", "value"}]} (1-based, i < j)


def bracket_to_dict(b: VTangent) -> dict:
    n = b.n
    entries = []
    c = b.coeffs
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                v = c[i, j, k]
                if v != 0.0:
                    entries.append({"i": i + 1, "j": j + 1, "k": k + 1, "value": float(v)})
    return {"n": n, "entries": entries}


def bracket_from_dict(obj: dict) -> Bracket:
    """Parse the JSON schema; rejects i >= j, duplicate triples, bad indices."""
    if not isinstance(obj, dict):
        raise BracketFormatError("bracket document must be a JSON object")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise BracketFormatError(f"'n' must be a positive integer, got {n!r}")
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise BracketFormatError("'entries' must be a list")
    c = np.zeros((n, n, n))
    seen = set()
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise BracketFormatError(f"entry {idx} is not an object")
        try:
            i, j, k = entry["i"], entry["j"], entry["k"]
            value = entry["value"]
        except KeyError as exc:
            raise BracketFormatError(f"entry {idx} is missing key {exc}") from None
        for name, v in (("i", i), ("j", j), ("k", k)):
            if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= n:
                raise BracketFormatError(f"entry {idx}: index {name}={v!r} out of range 1..{n}")
        if i >= j:
            raise BracketFormatError(f"entry {idx}: requires i < j, got i={i}, j={j}")
        if (i, j, k) in seen:
            raise BracketFormatError(f"entry {idx}: duplicate triple (i={i}, j={j}, k={k})")
        seen.add((i, j, k))
        value = float(value)
        if not np.isfinite(value):
            raise BracketFormatError(f"entry {idx}: value must be finite")
        c[i - 1, j - 1, k - 1] = value
        c[j - 1, i - 1, k - 1] = -value
    return Bracket(c)


def save_bracket(path, b: VTangent) -> None:
    with open(path, "w") as fh:
        json.dump(bracket_to_dict(b), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bracket(path) -> Bracket:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BracketFormatError(f"invalid JSON in {path}: {exc}") from None
    return bracket_from_dict(obj)
