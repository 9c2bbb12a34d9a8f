"""Nilpotent Lie brackets on R^n as structure-constant arrays.

A bracket mu is stored as the dense cube C with C[i, j, k] = <mu(e_i, e_j), e_k>,
skew-symmetric in (i, j) by construction.  This module provides validation
(Jacobi, nilpotency), the GL(n) change-of-basis action, its linearization
delta and the adjoint delta^t, and derivation algebras.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import (
    BracketFormatError,
    ConfigError,
    DimensionMismatch,
    NotNilpotentError,
    SingularMatrix,
)

logger = logging.getLogger(__name__)

#: Linear maps R^n -> R^n are plain (n, n) arrays throughout.
Operator = np.ndarray

DEFAULT_TOL = 1e-10
_SKEW_ATOL = 1e-8
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # smallest norm whose square is normal
_FLOAT_MAX = float(np.finfo(float).max)
# entries of a block of flow's passes over a trace's samples and of bch's
# derivative orders of the metric distance: 256 KB of floats, which stay in the
# cache.  A T = 50 decay trace's Riemann norms take half as long as with 2^16
# at n = 7, 8 (2^14: slower there, faster at n = 6); 2^20, 2^13 slow the distance
_BLOCK = 2**15


def _is_bool(v):
    """A bool is a number to Python: True would pass as 1.0."""
    return isinstance(v, (bool, np.bool_))


def _is_real(v):
    """A real number that is not a bool: a str would make math.isfinite raise
    TypeError."""
    return isinstance(v, numbers.Real) and not _is_bool(v)


def _check_tol(tol, name="tol"):
    """ConfigError unless tol is a real number, finite and > 0 (and not a
    bool): a nan or negative tolerance fails every comparison, and 0 is never
    met, so the check it sets would read as failed."""
    if not (_is_real(tol) and math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"{name} must be finite and > 0, got {tol!r}")


def _norm(a: np.ndarray, ndim: int = 3):
    """Frobenius norm over the last ndim axes of a (leading axes are batch axes), as
    sqrt(vecdot) like np.linalg.norm; where the square underflows, m ||a / m||, m = max|a|."""
    flat = a.reshape(*a.shape[: a.ndim - ndim], math.prod(a.shape[a.ndim - ndim :]))  # also with no samples
    nrm = np.sqrt(np.vecdot(flat, flat))
    if (nrm < _SQRT_TINY).any():
        m = np.abs(flat).max(axis=-1, keepdims=True, initial=np.finfo(float).smallest_subnormal)
        nrm = np.where(nrm < _SQRT_TINY, m[..., 0] * np.sqrt(np.vecdot(flat / m, flat / m)), nrm)
    return nrm


def _check_finite(c: np.ndarray) -> None:
    """BracketFormatError unless c is finite and so is ||c||^2: every
    curvature and rank threshold scales with ||mu||^2, and past the float
    range it is inf, and so is each of them.  One vdot clears both checks
    wherever ||c||^2 is finite."""
    if not math.isfinite(np.vdot(c, c)):
        if not np.isfinite(c).all():
            raise BracketFormatError("structure constants must be finite")
        raise BracketFormatError("||mu||^2 of the structure constants overflows")


@dataclass(frozen=True, eq=False)
class VTangent:
    """Skew-symmetric bilinear map R^n x R^n -> R^n (a point of V_n).

    Skewness in (i, j) is enforced exactly at construction: the input must be
    skew up to a small tolerance and is then exactly antisymmetrized.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 3 or not (c.shape[0] == c.shape[1] == c.shape[2]) or c.size == 0:
            raise DimensionMismatch(f"expected an (n, n, n) array with n >= 1, got shape {c.shape}")
        _check_finite(c)
        scale = float(np.abs(c).max(initial=1.0))
        swapped = c.transpose(1, 0, 2)
        worst = float(np.abs(c + swapped).max())
        if worst > _SKEW_ATOL * scale:
            raise BracketFormatError(
                f"coefficients are not skew-symmetric in (i, j): residual {worst:.3e}"
            )
        c = 0.5 * (c - swapped)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _of_skew(cls, c: np.ndarray):
        """An instance on an (n, n, n) array that the library has made
        exactly skew in (i, j): the constructor's finiteness and ||mu||^2
        checks, without its skew residual and antisymmetrization.  c is kept,
        not copied, and made read-only, so it must be a fresh array or a view
        of a read-only one."""
        _check_finite(c)
        c.flags.writeable = False
        b = object.__new__(cls)
        object.__setattr__(b, "coeffs", c)
        return b

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
        return float(_norm(self.coeffs))

    def apply(self, x, y) -> np.ndarray:
        """Evaluate the bilinear map on a pair of vectors."""
        return np.einsum("ijk,i,j->k", self.coeffs, np.asarray(x, float), np.asarray(y, float))

    def ad(self, x) -> Operator:
        """Matrix of y -> value on (x, y), from one (n, n^2) product."""
        n = self.n
        return (np.asarray(x, float) @ self.coeffs.reshape(n, n * n)).reshape(n, n).T

    def scaled(self, factor) -> "VTangent":
        return type(self)(factor * self.coeffs)

    @cached_property
    def _series(self):
        """_central_series at DEFAULT_TOL, computed once; the coefficients are
        frozen, so it cannot go stale."""
        return _central_series(self.coeffs, DEFAULT_TOL)

    @cached_property
    def _derivations(self) -> np.ndarray:
        """Read-only (k, n, n) stack of derivation_basis, from one SVD per
        bracket; the coefficients are frozen, so it cannot go stale."""
        _, s, vt = np.linalg.svd(_delta_matrix(self.coeffs), full_matrices=False)
        rank = 0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s > s[0] * DEFAULT_TOL))
        basis = np.array(vt[rank:].reshape(-1, self.n, self.n))
        basis.flags.writeable = False
        return basis


@dataclass(frozen=True, eq=False)
class Bracket(VTangent):
    """Structure constants of a (candidate) nilpotent Lie bracket."""

    @cached_property
    def degree(self) -> int:
        """`nilpotency_degree`, read from the bracket's cached central series."""
        return nilpotency_degree(self)


@dataclass(frozen=True)
class ValidationReport:
    jacobi_residual: float
    nilpotent: bool
    degree: int | None
    series_dims: list  # [dim C^0, dim C^1, ...], as in central_series_dims
    messages: tuple


def _require_same_n(a, b):
    if a.n != b.n:
        raise DimensionMismatch(f"dimension mismatch: {a.n} vs {b.n}")


def _as_array(a, shape, what) -> np.ndarray:
    """a as a float array of the given shape; DimensionMismatch names it `what`."""
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise DimensionMismatch(f"{what} shape {a.shape} does not match {shape}")
    return a


def vn_inner(a: VTangent, b: VTangent) -> float:
    """Inner product on V_n: sum of products over all ordered index triples."""
    _require_same_n(a, b)
    return float(np.tensordot(a.coeffs, b.coeffs, axes=3))


@lru_cache(maxsize=None)
def _cyclic_triples(n):
    """Flat indices into (n, n, n) of (i, j, k), (j, k, i) and (k, i, j) over
    the triples i < j < k."""
    i, j, k = np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    return (i * n + j) * n + k, (j * n + k) * n + i, (k * n + i) * n + j


def _jacobiator_max(c: np.ndarray) -> np.ndarray:
    """Max-norm of the cyclic Jacobiator; leading axes of c are batch axes.

    T[i, j, k, m] = sum_a c[i, j, a] c[a, k, m] is one (n^2, n) @ (n, n^2)
    product; the Jacobiator is T[i, j, k] + T[j, k, i] + T[k, i, j].  c must
    be exactly skew in (i, j): the Jacobiator is then alternating in
    (i, j, k), so only the triples i < j < k are read.
    """
    n = c.shape[-1]
    lead = c.shape[:-3]
    t = (c.reshape(*lead, n * n, n) @ c.reshape(*lead, n, n * n)).reshape(*lead, n**3, n)
    ijk, jki, kij = _cyclic_triples(n)
    jac = np.take(t, ijk, axis=-2) + np.take(t, jki, axis=-2) + np.take(t, kij, axis=-2)
    return np.abs(jac).max(axis=(-2, -1), initial=0.0)


def jacobiator_residual(b: VTangent) -> float:
    """Max-norm of the cyclic Jacobiator over all basis triples."""
    return float(_jacobiator_max(b.coeffs))


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
    thresh = tol * float(_norm(c))
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


def nilpotency_degree(b: VTangent) -> int:
    """Degree of nilpotency via the descending central series.

    C^0 = R^n, C^{m+1} = mu(R^n, C^m); the degree is the first m with
    C^m = 0 (0 for the zero bracket by convention), ranks at DEFAULT_TOL.
    Raises NotNilpotentError if the series stabilizes at a nonzero subspace.
    The series is computed once per bracket.
    """
    degree = b._series[1]
    if degree is None:
        raise NotNilpotentError("descending central series stabilizes at a nonzero subspace")
    return degree


def central_series_dims(b: VTangent) -> list:
    return list(b._series[0])


def validate_bracket(b: Bracket, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the Jacobi identity and nilpotency.

    The Jacobi threshold is tol on the unit bracket mu / ||mu||; the report
    keeps the raw residual of mu.  ConfigError unless tol is finite and > 0.
    """
    _check_tol(tol)
    jac = jacobiator_residual(b)
    nrm = b.norm
    # the Jacobiator is quadratic in mu: read on mu / ||mu||, it neither under- nor overflows
    u = b.coeffs / nrm if nrm > 0.0 else b.coeffs
    jac_unit = float(_jacobiator_max(u))
    jacobi_ok = jac_unit <= tol
    messages = []
    if not jacobi_ok:
        messages.append(f"jacobi residual {jac_unit:.3e} of mu / ||mu|| exceeds {tol:.1e}")
    dims, degree = _central_series(u, tol)
    nilpotent = degree is not None
    if not nilpotent:
        messages.append(f"central series stabilizes at dimension {dims[-1]}")
    if jacobi_ok and nilpotent:
        messages.append(f"valid nilpotent bracket of degree {degree}")
    return ValidationReport(
        jacobi_residual=jac,
        nilpotent=nilpotent and jacobi_ok,
        degree=degree if jacobi_ok else None,
        series_dims=dims,
        messages=tuple(messages),
    )


# LAPACK's inverse gufunc, the one numpy.linalg.inv calls, without its wrapper:
# under invalid="raise" a singular matrix raises FloatingPointError, under the
# default state it gives nan and a warning.  The flow's right sides call it
# inside an integration run, which holds one raising error state for its whole
# loop; every other caller goes through _inv.
_lapack_inv = partial(_umath_linalg.inv, signature="d->d")


def _inv(a: np.ndarray) -> np.ndarray:
    """The inverse of an (n, n) float array or of a stack of them, with the
    bits of numpy.linalg's inv but without its Python wrapper, whose checks
    and casts cost more than the LU factorization at n <= 8: the LAPACK
    gufunc that wrapper calls, under its error mask with invalid="raise" in
    place of its callback.  The gufunc flags a singular matrix as invalid,
    so one raises LinAlgError("Singular matrix") as there, whatever the
    caller's error state; a nan matrix gives nan, as there.  The gufunc is
    private numpy API: tests/test_algebra.py pins it to the public inv.
    Entering the error mask costs about a third of the call, so the callers
    that run once per batch, step or call use it (ROS2's W, the frame check,
    gl_action, innerproduct_scal, equivalence_report), and the right sides,
    evaluated inside a run's error state, call _lapack_inv."""
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            return _lapack_inv(a)
    except FloatingPointError:
        raise np.linalg.LinAlgError("Singular matrix") from None


def _gl_action_coeffs(g: np.ndarray, ginv: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(g.mu)_ijk = sum ginv_ai ginv_bj g_kc c_abc of one bracket c (n, n, n)
    for g and ginv (..., n, n): _gl_action_frame's three products, one per
    index, each one matmul batched over the frames with their leading axes
    flattened, so each frame has the bits of its own _gl_action_frame call."""
    n = c.shape[-1]
    rows = c.reshape(n, n * n)
    lead = g.shape[:-2]
    t = (rows.T @ ginv.reshape(-1, n, n)).reshape(-1, n, n * n)
    t = (t.mT @ ginv.reshape(-1, n, n)).reshape(-1, n, n * n)
    return (t.mT @ g.reshape(-1, n, n).mT).reshape(*lead, n, n, n)


def _gl_action_frame(g: np.ndarray, ginv: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(g.mu) of one (n, n) frame as the (n^2, n) view of its coefficients,
    rows the (n, n^2) view of mu's: _gl_action_coeffs's products in its order,
    so with its bits, but each is one ndarray.dot of two 2-D arrays, a direct
    BLAS call without the matmul gufunc's dispatch.  Each product contracts
    the leading index of a 2-D view and moves it last, so the next index to
    contract leads: (b c, i) after ginv, (c i, j) after the second, and the
    (i j, c) transpose meets g^T."""
    n = g.shape[0]
    t = rows.T.dot(ginv).reshape(n, n * n)
    return t.T.dot(ginv).reshape(n, n * n).T.dot(g.T)


def gl_action(g: Operator, b: VTangent) -> VTangent:
    """Change-of-basis action (g.mu)(x, y) = g mu(g^{-1} x, g^{-1} y).

    Raises SingularMatrix for non-invertible g, or one with a non-finite
    entry; warns when the condition number exceeds 1e12.  g^{-1} comes from
    one LU factorization, and ||g||_F ||g^{-1}||_F >= cond(g) screens it:
    only where that bound passes 1e12, is not finite, or the factorization
    fails does an SVD g = U S V^T decide, from the condition number it
    gives, and give g^{-1} = V S^{-1} U^T.
    """
    n = b.n
    g = _as_array(g, (n, n), "operator")
    norm_sq = float(np.vdot(g, g))
    # LAPACK's SVD does not return on some matrices with an inf entry; a
    # finite ||g||^2 clears them all
    if not math.isfinite(norm_sq) and not np.isfinite(g).all():
        raise SingularMatrix("change of basis has a non-finite entry")
    try:
        ginv = _inv(g)
        # a Python product: an overflow reads inf, inf * 0 nan, and both fail the screen
        screen = math.sqrt(norm_sq * float(np.vdot(ginv, ginv)))
    except np.linalg.LinAlgError:
        screen = math.inf
    if not screen <= 1e12:
        u, s, vt = np.linalg.svd(g)
        smin = float(s[-1])
        cond = float(s[0]) / smin if smin > 0.0 else math.inf
        if not cond <= 1e15:
            raise SingularMatrix(f"change of basis is singular (cond={cond:.3e})")
        if cond > 1e12:
            logger.warning("ill-conditioned change of basis: cond=%.3e", cond)
        ginv = (vt.T / s).dot(u.T)
    c = _gl_action_frame(g, ginv, b.coeffs.reshape(n, n * n)).reshape(n, n, n)
    # the products round (i, j) and (j, i) differently, by up to ~cond(g)^2 eps
    return type(b)._of_skew(0.5 * (c - c.transpose(1, 0, 2)))


def _delta_coeffs(c: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """delta_mu(alpha) as an array; leading axes of c and alpha are batch axes.

    Three matrix products, one per index of c that alpha acts on: alpha^T
    times the (n, n^2) view of c, alpha^T times each c_i, and the (n^2, n)
    view times alpha^T.  The terms are summed in place, so a stack of
    samples holds two at a time."""
    n = c.shape[-1]
    at = alpha.mT
    t = at @ c.reshape(*c.shape[:-3], n, n * n)
    out = t.reshape(*t.shape[:-1], n, n)
    out += at[..., None, :, :] @ c
    t = c.reshape(*c.shape[:-3], n * n, n) @ at
    out -= t.reshape(*t.shape[:-2], n, n, n)
    return out


def delta(b: VTangent, alpha: Operator) -> VTangent:
    """Linearized action: delta_mu(alpha) = mu(alpha., .) + mu(., alpha.) - alpha mu(., .).

    Its kernel is the derivation algebra; delta_mu(I) = mu.
    """
    return VTangent(_delta_coeffs(b.coeffs, _as_array(alpha, (b.n, b.n), "operator")))


def _delta_matrix(c: np.ndarray) -> np.ndarray:
    """Matrix of alpha -> delta_mu(alpha): shape (n^3, n^2), column p n + q is
    _delta_coeffs on the unit matrix E_pq, all n^2 of them in one batch."""
    n = c.shape[0]
    units = np.eye(n * n).reshape(n * n, n, n)
    return _delta_coeffs(c, units).reshape(n * n, n**3).T


def delta_transpose(b: VTangent, v: VTangent) -> Operator:
    """Adjoint of delta_mu with respect to the V_n and trace inner products:
    the transpose of _delta_matrix applied to vec(v)."""
    _require_same_n(b, v)
    return (_delta_matrix(b.coeffs).T @ v.coeffs.reshape(-1)).reshape(b.n, b.n)


def derivation_basis(b: VTangent) -> list:
    """Orthonormal basis (trace inner product) of Der(mu) = ker delta_mu.

    Nullspace via SVD with relative singular-value threshold DEFAULT_TOL,
    computed once per bracket; a new list of read-only arrays each call.
    """
    return list(b._derivations)


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


def _is_int(v, lo, hi=math.inf) -> bool:
    """Whether v is an integer in lo..hi, a numpy one too: 1.9, "2" and True are not."""
    return isinstance(v, numbers.Integral) and not _is_bool(v) and lo <= v <= hi


def _is_finite_number(v) -> bool:
    """Whether a JSON value is a finite number: not a bool (an int subclass), a
    string, or an int past the float range."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= _FLOAT_MAX


def bracket_from_dict(obj: dict) -> Bracket:
    """Parse the JSON schema; rejects i >= j, duplicate triples, bad indices."""
    if not isinstance(obj, dict):
        raise BracketFormatError("bracket document must be a JSON object")
    n = obj.get("n")
    if not _is_int(n, 1):
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
            if not _is_int(v, 1, n):
                raise BracketFormatError(f"entry {idx}: index {name}={v!r} out of range 1..{n}")
        if i >= j:
            raise BracketFormatError(f"entry {idx}: requires i < j, got i={i}, j={j}")
        if (i, j, k) in seen:
            raise BracketFormatError(f"entry {idx}: duplicate triple (i={i}, j={j}, k={k})")
        seen.add((i, j, k))
        if not _is_finite_number(value):
            raise BracketFormatError(f"entry {idx}: value must be a finite number")
        c[i - 1, j - 1, k - 1] = value
        c[j - 1, i - 1, k - 1] = -value
    return Bracket(c)


def save_bracket(path, b: VTangent) -> None:
    with open(path, "w") as fh:
        json.dump(bracket_to_dict(b), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bracket(path) -> Bracket:
    """Read a bracket file; text that does not decode or parse (not UTF-8, or
    nested too deep for the decoder) is a BracketFormatError."""
    with open(path, "rb") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise BracketFormatError(f"invalid JSON in {path}: {exc}") from None
    return bracket_from_dict(obj)
