"""Group law in exponential coordinates and the induced left-invariant metric.

For a nilpotent bracket of degree k the product is the integral form of the
Baker-Campbell-Hausdorff formula (Hall, Lie Groups, Lie Algebras, and
Representations, Thm. 5.3), x . y = log(e^x e^y) =
x + int_0^1 psi(e^{ad x} e^{t ad y}) y dt with psi(w) = w log w / (w - 1).
Both series stop at ad^k = 0, so the integrand is a polynomial of degree < k
in t, and ceil(k/2) Gauss-Legendre nodes give the product exactly.
Differentials of left translations come from the closed-form dexp series
(the left-trivialized differential of exp)

    A(x) = sum_{j<k} (-1)^j ad_x^j / (j + 1)!,

never from finite differences.  The metric is g(x) = A(x)^T A(x); since ad_x
is linear in x, its coefficient tables are an exact expansion of polynomial
products, of degree at most 2(k - 1); like monomials are collected on one
integer key per exponent row.  A `MetricField` is evaluated as one product
of its stacked monomials x^alpha against its stacked coefficient matrices.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import Bracket, _as_array, _require_same_n
from .exceptions import BracketFormatError, ConfigError, DegreeTooHigh, DimensionMismatch

# ---------------------------------------------------------------------------
# Truncated matrix series and the product log(exp x exp y) in integral form.


def _series(m, coefs):
    """sum_j coefs[j] m^j by Horner; leading axes of m are batch axes."""
    eye = np.eye(m.shape[-1])
    if len(coefs) == 1:
        return coefs[0] * eye + 0.0 * m  # a constant, in the batch shape of m
    out = coefs[-1] * m + coefs[-2] * eye
    for a in coefs[-3::-1]:
        out = out @ m + a * eye
    return out


@lru_cache(maxsize=None)
def _rule(k):
    """Gauss-Legendre nodes and weights on [0, 1] with ceil(k/2) nodes, exact
    for polynomials of degree < k, and the Taylor coefficients up to N^(k-1)
    of exp(N) and of psi(1 + N) = (1 + N) log(1 + N) / N."""
    nodes, weights = np.polynomial.legendre.leggauss((k + 1) // 2)
    exp_coefs = [1.0 / math.factorial(j) for j in range(k)]
    psi_coefs = [1.0] + [(-1.0) ** (m + 1) / (m * (m + 1)) for m in range(1, k)]
    return 0.5 * (nodes + 1.0), 0.5 * weights, exp_coefs, psi_coefs


def _product(b, k, x, y):
    """x . y = log(e^x e^y) on a bracket of nilpotency degree k, by the
    integral formula of the module docstring on the exact Gauss rule of _rule(k)."""
    t, w, exp_coefs, psi_coefs = _rule(k)
    ex = _series(b.ad(x), exp_coefs)
    ey = _series(t[:, None, None] * b.ad(y), exp_coefs)
    m = ex @ ey - np.eye(len(x))  # N = e^{ad x} e^{t ad y} - I at every node t
    return x + w @ (_series(m, psi_coefs) @ y)


def bch_product(b: Bracket, x, y) -> np.ndarray:
    """Group product in exponential coordinates; exact for nilpotent brackets.

    0 is the identity and -x the inverse.
    """
    x, y = _as_array(x, (b.n,), "vector"), _as_array(y, (b.n,), "vector")
    return _product(b, max(1, b.degree), x, y)


def _dexp(b, x, terms):
    """The dexp series A(x) = sum_{j<terms} (-1)^j ad_x^j / (j + 1)!."""
    return _series(b.ad(x), [(-1.0) ** j / math.factorial(j + 1) for j in range(terms)])


def translation_jacobian(b: Bracket, z, x) -> np.ndarray:
    """Differential at x of the left translation w -> z . w.

    Left translation commutes with the left-trivialized differential of exp,
    so this is A(z . x)^{-1} A(x) with the closed-form dexp series A; A is
    unipotent, so the solve is exact to rounding.
    """
    z, x = _as_array(z, (b.n,), "vector"), _as_array(x, (b.n,), "vector")
    k = max(1, b.degree)
    zx = _product(b, k, z, x)
    return np.linalg.solve(_dexp(b, zx, k), _dexp(b, x, k))


def left_translation_differential(b: Bracket, x) -> np.ndarray:
    """Differential at x of translation by the inverse of x.

    Columns are the coordinate expressions of the left-invariant frame at x
    pulled back to the identity; this is the closed-form dexp series A(x).
    """
    x = _as_array(x, (b.n,), "vector")
    return _dexp(b, x, max(1, b.degree))


def metric_at(b: Bracket, x) -> np.ndarray:
    """Left-invariant metric in coordinates: Gram matrix A(x)^T A(x)."""
    j = left_translation_differential(b, x)
    return j.T @ j


# ---------------------------------------------------------------------------
# Polynomial coefficient tables for the metric entries.


def _multiindices(n, degree):
    out = [idx for idx in itertools.product(range(degree + 1), repeat=n) if sum(idx) <= degree]
    out.sort(key=lambda a: (sum(a), a))
    return out


@dataclass(frozen=True, eq=False)
class MetricField:
    """Polynomial metric g_ij(x) = sum_alpha coefficients[alpha][i, j] x^alpha.

    coefficients maps multi-indices (tuples of n nonnegative ints) to
    symmetric (n, n) matrices.  A call evaluates every monomial x^alpha at
    once and takes one product with the stacked matrices; the stacks are
    built on the first call, so the coefficients must not change after it.
    """

    n: int
    degree: int
    coefficients: dict

    @cached_property
    def _table(self):
        """Exponents (m, n) and coefficient matrices (m, n^2), in key order."""
        n = self.n
        exps = np.array(list(self.coefficients), dtype=int).reshape(-1, n)
        mats = np.array(list(self.coefficients.values()), dtype=float).reshape(-1, n * n)
        return exps, mats

    def __call__(self, x) -> np.ndarray:
        x = _as_array(x, (self.n,), "vector")
        exps, mats = self._table
        return (np.prod(x**exps, axis=1) @ mats).reshape(self.n, self.n)

    def derivative(self, beta) -> "MetricField":
        """Partial derivative field d^beta g (coefficient-exact)."""
        beta = tuple(int(v) for v in beta)
        if len(beta) != self.n or any(v < 0 for v in beta):
            raise DimensionMismatch(f"bad derivative multi-index {beta}")
        exps, mats = self._table
        keep = np.all(exps >= beta, axis=1)
        coeffs = {}
        # alpha -> alpha - beta is one to one on the kept rows: nothing to merge
        for alpha, mat in zip(exps[keep].tolist(), mats[keep]):
            key = tuple(a - bta for a, bta in zip(alpha, beta))
            coeffs[key] = math.prod(map(math.perm, alpha, beta)) * mat.reshape(self.n, self.n)
        return MetricField(self.n, max(0, self.degree - sum(beta)), coeffs)

    def to_dict(self) -> dict:
        entries = []
        for alpha in sorted(self.coefficients, key=lambda a: (sum(a), a)):
            mat = self.coefficients[alpha]
            for i in range(self.n):
                for j in range(i, self.n):
                    v = mat[i, j]
                    if v != 0.0:
                        entries.append(
                            {"i": i + 1, "j": j + 1, "alpha": list(alpha), "value": float(v)}
                        )
        return {"n": self.n, "degree": self.degree, "coefficients": entries}

    @classmethod
    def from_dict(cls, obj: dict) -> "MetricField":
        try:
            n = int(obj["n"])
            degree = int(obj["degree"])
            raw = obj["coefficients"]
        except (KeyError, TypeError, ValueError) as exc:
            raise BracketFormatError(f"malformed metric-field document: {exc}") from None
        if degree < 0:
            raise BracketFormatError(f"metric-field 'degree' must be >= 0, got {degree}")
        if not isinstance(raw, list):
            raise BracketFormatError("metric-field 'coefficients' must be a list")
        coeffs = {}
        for entry in raw:
            try:
                i, j = int(entry["i"]) - 1, int(entry["j"]) - 1
                alpha = tuple(int(v) for v in entry["alpha"])
                v = float(entry["value"])
            except (KeyError, TypeError, ValueError) as exc:
                raise BracketFormatError(f"malformed metric-field entry {entry!r}: {exc}") from None
            if not (0 <= i <= j < n) or len(alpha) != n or min(alpha) < 0 or not math.isfinite(v):
                raise BracketFormatError(f"bad metric-field entry {entry}")
            mat = coeffs.setdefault(alpha, np.zeros((n, n)))
            mat[i, j] = v
            mat[j, i] = v
        return cls(n, degree, coeffs)


def metric_field_2step(b: Bracket) -> MetricField:
    """Closed-form metric coefficients, valid for nilpotency degree <= 2:

        g_ij(x) = delta_ij - 1/2 (mu_kj^i + mu_ki^j) x_k
                  + 1/4 (sum_r mu_ki^r mu_lj^r) x_k x_l
    """
    k = b.degree
    if k > 2:
        raise DegreeTooHigh(f"closed form requires degree <= 2, bracket has degree {k}")
    n = b.n
    c = b.coeffs
    coeffs = {(0,) * n: np.eye(n)}
    for r in range(n):
        mat = -0.5 * (c[r].T + c[r])
        if np.any(mat != 0.0):
            alpha = tuple(1 if t == r else 0 for t in range(n))
            coeffs[alpha] = mat
    for p in range(n):
        for q in range(p, n):
            if p == q:
                mat = 0.25 * (c[p] @ c[p].T)
            else:
                mat = 0.25 * (c[p] @ c[q].T + c[q] @ c[p].T)
            if np.any(mat != 0.0):
                alpha = tuple((2 if t == p else 0) if p == q else (1 if t in (p, q) else 0) for t in range(n))
                coeffs[alpha] = mat
    return MetricField(n, 2 if k == 2 else 0, coeffs)


def _matpoly_mul(p, q):
    """Product of matrix polynomials given as (exponents (m, n), coefficients
    (m, r, s)); like monomials are collected, in lexicographic order of their
    exponents, and exact zeros dropped."""
    (ep, cp), (eq, cq) = p, q
    exps = (ep[:, None] + eq[None, :]).reshape(-1, ep.shape[1])
    prods = (cp[:, None] @ cq[None, :]).reshape(len(exps), cp.shape[1], cq.shape[2])
    # C-order keys sort as the rows do; ravel_multi_index raises, not wraps,
    # when the key space overflows
    keys = np.ravel_multi_index(exps.T, (int(exps.max(initial=0)) + 1,) * exps.shape[1])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    exps = exps[first]
    coeffs = np.zeros((len(exps),) + prods.shape[1:])
    np.add.at(coeffs, inverse, prods)
    nonzero = np.any(coeffs != 0.0, axis=(1, 2))
    return exps[nonzero], coeffs[nonzero]


def metric_field_fit(b: Bracket) -> MetricField:
    """Exact polynomial coefficients of the metric entries.

    ad_x = sum_i x_i ad_{e_i} is linear in x, so the closed-form dexp series
    A(x) and g(x) = A(x)^T A(x) are expanded as polynomial products: an exact
    expansion, with no sampling and only nonzero coefficients stored.
    """
    k = b.degree
    n = b.n
    ad_x = (np.eye(n, dtype=int), np.swapaxes(b.coeffs, 1, 2))  # ad_{e_i}[k, j] = mu_ij^k
    terms = [(np.zeros((1, n), dtype=int), np.eye(n)[None])]
    for j in range(1, k):
        exps, coeffs = _matpoly_mul(ad_x, terms[-1])
        terms.append((exps, coeffs * (-1.0 / (j + 1))))
    # the terms are homogeneous of distinct degrees, so stacking them sums A
    a = tuple(np.concatenate(part) for part in zip(*terms))
    exps, g = _matpoly_mul((a[0], np.swapaxes(a[1], 1, 2)), a)
    table = dict(zip(map(tuple, exps.tolist()), 0.5 * (g + g.swapaxes(1, 2))))
    return MetricField(n, max(0, 2 * (k - 1)), table)


def metric_convergence_distance(b1: Bracket, b2: Bracket, radius: float, p: int = 2) -> float:
    """Sup over a ball of |d^beta (g_1 - g_2)_ij| for all |beta| <= p.

    Evaluated from the exact expansions of both metrics on 3^n lattice points
    scaled to the ball plus 100 random interior points drawn from
    default_rng(0), so the result is deterministic.  Each derivative field is
    one matrix product against a Vandermonde block taken from a table of
    coordinate powers.  ConfigError unless the radius is finite and >= 0 and
    p is a nonnegative int.
    """
    # a nan or infinite radius puts nan on every point, and the max ignores it
    if not (math.isfinite(radius) and radius >= 0.0):
        raise ConfigError(f"radius must be finite and >= 0, got {radius!r}")
    if not (isinstance(p, numbers.Integral) and p >= 0):
        raise ConfigError(f"p must be a nonnegative int, got {p!r}")
    _require_same_n(b1, b2)
    n = b1.n
    f1 = metric_field_fit(b1)
    f2 = metric_field_fit(b2)
    alphas = sorted(set(f1.coefficients) | set(f2.coefficients))
    zero = np.zeros((n, n))
    exps = np.array(alphas)
    diff = np.array([f1.coefficients.get(a, zero) - f2.coefficients.get(a, zero) for a in alphas])

    lattice = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n))) * (radius / math.sqrt(n))
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((100, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.random(100) ** (1.0 / n)
    points = np.vstack([lattice, dirs * radii[:, None]])

    degree = max(f1.degree, f2.degree)
    # powers[t, a] = x_t^a on every point; factorial[a] = a!
    powers = np.moveaxis(points[:, :, None] ** np.arange(degree + 1), 0, -1)
    factorial = np.cumprod(np.r_[1.0, np.arange(1.0, degree + 1)])
    worst = 0.0
    for beta in _multiindices(n, p):
        keep = np.all(exps >= beta, axis=1)
        if not keep.any():
            continue
        shifted = exps[keep] - beta
        factor = np.prod(factorial[exps[keep]] / factorial[shifted], axis=1)
        vand = powers[0, shifted[:, 0]]
        for t in range(1, n):
            vand = vand * powers[t, shifted[:, t]]
        values = (factor[:, None] * diff[keep].reshape(-1, n * n)).T @ vand
        worst = max(worst, float(np.abs(values).max()))
    return worst
