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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import _BLOCK, Bracket, _as_array, _is_finite_number, _is_int, _is_real, _require_same_n
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


@lru_cache(maxsize=256)
def _compositions(total, parts):
    """The tuples of `parts` entries that sum to `total`, lexicographically."""
    if parts == 1:
        return ((total,),)
    return tuple((a,) + rest for a in range(total + 1) for rest in _compositions(total - a, parts - 1))


def _multiindices(n, degree):
    """The C(n + degree, n) exponent tuples of n variables with sum <= degree,
    by sum and then lexicographically, built directly; a new list per call."""
    return [idx for total in range(degree + 1) for idx in _compositions(total, n)]


@dataclass(frozen=True, eq=False)
class MetricField:
    """Polynomial metric g_ij(x) = sum_r matrices[r, i, j] x^exponents[r].

    The field is its table, two read-only arrays: exponents (m, n), one
    distinct multi-index alpha per row, and symmetric matrices (m, n, n).
    A call evaluates every monomial x^alpha at once and takes one product
    with the stacked matrices.  `coefficients` is a new {alpha: matrix} dict
    of read-only views on each read: an edit to it changes nothing here.
    """

    n: int
    degree: int
    exponents: np.ndarray
    matrices: np.ndarray

    def __post_init__(self):
        for name in ("exponents", "matrices"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)).view())
            getattr(self, name).flags.writeable = False

    @classmethod
    def _of_dict(cls, n, degree, coeffs):
        """The field of a {alpha: (n, n) matrix} dict, one row per key in key order."""
        exps = np.array(list(coeffs), dtype=int).reshape(-1, n)
        return cls(n, degree, exps, np.array(list(coeffs.values()), dtype=float).reshape(-1, n, n))

    @property
    def coefficients(self) -> dict:
        return dict(zip(map(tuple, self.exponents.tolist()), self.matrices))

    def __call__(self, x) -> np.ndarray:
        x = _as_array(x, (self.n,), "vector")
        monomials = np.prod(x**self.exponents, axis=1)
        return (monomials @ self.matrices.reshape(-1, self.n * self.n)).reshape(self.n, self.n)

    def derivative(self, beta) -> "MetricField":
        """Partial derivative field d^beta g (coefficient-exact).  beta holds n
        integer orders >= 0; a bool or a fraction, which int() would truncate,
        raises DimensionMismatch like any other bad multi-index."""
        beta = tuple(beta)
        if len(beta) != self.n or not all(_is_int(v, 0) for v in beta):
            raise DimensionMismatch(f"bad derivative multi-index {beta}")
        beta = tuple(map(int, beta))
        keep = np.all(self.exponents >= beta, axis=1)
        exps, mats = self.exponents[keep], self.matrices[keep]
        # alpha -> alpha - beta is one to one on the kept rows: nothing to merge
        factors = np.array([math.prod(map(math.perm, a, beta)) for a in exps.tolist()], dtype=float)
        return MetricField(self.n, max(0, self.degree - sum(beta)), exps - beta, factors[:, None, None] * mats)

    def to_dict(self) -> dict:
        entries = []
        for alpha, mat in sorted(self.coefficients.items(), key=lambda item: (sum(item[0]), item[0])):
            for i, j in zip(*(part.tolist() for part in np.triu_indices(self.n))):
                if mat[i, j] != 0.0:
                    entries.append({"i": i + 1, "j": j + 1, "alpha": list(alpha), "value": float(mat[i, j])})
        return {"n": self.n, "degree": self.degree, "coefficients": entries}

    @classmethod
    def from_dict(cls, obj: dict) -> "MetricField":
        """Parse to_dict's document as strictly as bracket_from_dict: integer
        n >= 1, degree >= 0, indices 1 <= i <= j <= n and exponents, finite
        numbers as values, no repeated (alpha, i, j) and no monomial above
        the degree; anything else raises BracketFormatError."""
        if not isinstance(obj, dict):
            raise BracketFormatError("metric-field document must be a JSON object")
        n, degree, raw = obj.get("n"), obj.get("degree"), obj.get("coefficients")
        if not _is_int(n, 1):
            raise BracketFormatError(f"metric-field 'n' must be a positive integer, got {n!r}")
        if not _is_int(degree, 0):
            raise BracketFormatError(f"metric-field 'degree' must be an integer >= 0, got {degree!r}")
        if not isinstance(raw, list):
            raise BracketFormatError("metric-field 'coefficients' must be a list")
        coeffs = {}
        seen = set()
        for idx, entry in enumerate(raw):
            where = f"metric-field entry {idx}"
            if not isinstance(entry, dict):
                raise BracketFormatError(f"{where} is not an object")
            try:
                i, j, alpha, value = entry["i"], entry["j"], entry["alpha"], entry["value"]
            except KeyError as exc:
                raise BracketFormatError(f"{where} is missing key {exc}") from None
            if not (_is_int(i, 1, n) and _is_int(j, i, n)):
                raise BracketFormatError(f"{where}: needs 1 <= i <= j <= {n}, got i={i!r}, j={j!r}")
            if not (isinstance(alpha, list) and len(alpha) == n and all(_is_int(a, 0) for a in alpha)):
                raise BracketFormatError(f"{where}: alpha must be {n} integers >= 0, got {alpha!r}")
            if sum(alpha) > degree:
                raise BracketFormatError(f"{where}: monomial {alpha} is above the degree {degree}")
            if (tuple(alpha), i, j) in seen:
                raise BracketFormatError(f"{where}: repeats alpha={alpha}, i={i}, j={j}")
            seen.add((tuple(alpha), i, j))
            if not _is_finite_number(value):
                raise BracketFormatError(f"{where}: value must be a finite number")
            mat = coeffs.setdefault(tuple(alpha), np.zeros((n, n)))
            mat[i - 1, j - 1] = mat[j - 1, i - 1] = value
        return cls._of_dict(n, degree, coeffs)


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
    return MetricField._of_dict(n, 2 if k == 2 else 0, coeffs)


def _unique_rows(exps):
    """The distinct rows of a nonnegative int array (m, n) in lexicographic
    order, and the index of each row among them."""
    # C-order keys sort as the rows do; ravel_multi_index raises, not wraps,
    # when the key space overflows
    keys = np.ravel_multi_index(exps.T, (int(exps.max(initial=0)) + 1,) * exps.shape[1])
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return exps[first], inverse


def _matpoly_mul(p, q):
    """Product of matrix polynomials given as (exponents (m, n), coefficients
    (m, r, s)); like monomials are collected, in lexicographic order of their
    exponents, and exact zeros dropped."""
    (ep, cp), (eq, cq) = p, q
    exps = (ep[:, None] + eq[None, :]).reshape(-1, ep.shape[1])
    prods = (cp[:, None] @ cq[None, :]).reshape(len(exps), cp.shape[1], cq.shape[2])
    exps, inverse = _unique_rows(exps)
    coeffs = np.zeros((len(exps),) + prods.shape[1:])
    np.add.at(coeffs, inverse, prods)
    nonzero = np.any(coeffs != 0.0, axis=(1, 2))
    return exps[nonzero], coeffs[nonzero]


def _expand_metric(b):
    """Exponents (m, n) and symmetric coefficient matrices (m, n, n) of the
    expansion that metric_field_fit describes, in lexicographic order of the
    exponents."""
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
    return exps, 0.5 * (g + g.swapaxes(1, 2))


def _metric_table(b):
    """_expand_metric(b), built once per bracket and kept on it read-only, as
    the bracket keeps its central series (its coefficients are frozen, so the
    table cannot go stale)."""
    table = vars(b).get("_metric_table")
    if table is None:
        table = _expand_metric(b)
        for part in table:
            part.flags.writeable = False
        vars(b)["_metric_table"] = table
    return table


def metric_field_fit(b: Bracket) -> MetricField:
    """Exact polynomial coefficients of the metric entries.

    ad_x = sum_i x_i ad_{e_i} is linear in x, so the closed-form dexp series
    A(x) and g(x) = A(x)^T A(x) are expanded as polynomial products: an exact
    expansion, with no sampling and only nonzero coefficients stored.  The
    expansion is made once per bracket; each call returns a new field whose
    exponent and matrix arrays are read-only views of it, with no dict built.
    """
    return MetricField(b.n, max(0, 2 * (b.degree - 1)), *_metric_table(b))


@lru_cache(maxsize=16)
def _sample_points(n, radius):
    """The 3^n lattice points of {-1, 0, 1}^n scaled to the ball (in the order
    of itertools.product), then 100 interior points drawn from default_rng(0);
    built once per (n, radius) and read-only."""
    lattice = np.indices((3,) * n).reshape(n, -1).T - 1.0
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((100, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.random(100) ** (1.0 / n)
    points = np.vstack([lattice * (radius / math.sqrt(n)), dirs * radii[:, None]])
    points.flags.writeable = False
    return points


def metric_convergence_distance(b1: Bracket, b2: Bracket, radius: float, p: int = 2) -> float:
    """Sup over a ball of |d^beta (g_1 - g_2)_ij| for all |beta| <= p.

    Evaluated from the exact expansions of both metrics on 3^n lattice points
    scaled to the ball plus 100 random interior points drawn from
    default_rng(0), so the result is deterministic.  With D the table of
    coefficient differences, d^beta of the term D_alpha x^alpha is
    alpha! / (alpha - beta)! D_alpha x^(alpha - beta), so every derivative
    on every point is one product C^T V: V holds each monomial x^gamma,
    gamma = alpha - beta, once, and C the factors times D.  The orders beta
    run in blocks that keep C and the values under 2^15 entries.  Each
    bracket's expansion is made once (see metric_field_fit), and the sample
    points once per dimension and radius.  ConfigError unless the radius is
    a finite real number >= 0 and p is a nonnegative int, neither of them a
    bool.
    """
    # a nan or infinite radius puts nan on every point, and the max ignores it
    if not (_is_real(radius) and math.isfinite(radius) and radius >= 0.0):
        raise ConfigError(f"radius must be finite and >= 0, got {radius!r}")
    if not _is_int(p, 0):
        raise ConfigError(f"p must be a nonnegative int, got {p!r}")
    _require_same_n(b1, b2)
    n = b1.n
    (e1, c1), (e2, c2) = _metric_table(b1), _metric_table(b2)
    exps, row = _unique_rows(np.concatenate([e1, e2]))
    # both tables are symmetric: the upper triangle holds every entry
    upper = np.triu_indices(n)
    diff = np.zeros((len(exps), len(upper[0])))
    diff[row[: len(e1)]] = c1[:, upper[0], upper[1]]
    diff[row[len(e1) :]] -= c2[:, upper[0], upper[1]]
    nonzero = diff.any(axis=1)
    if not nonzero.any():  # equal expansions: every derivative of g_1 - g_2 vanishes
        return 0.0
    exps, diff = exps[nonzero], diff[nonzero]

    # a derivative of order above the degree of the difference vanishes
    degree = int(exps.sum(axis=1).max())
    betas = np.array(_multiindices(n, min(p, degree)))
    # every pair (beta, alpha >= beta), in order of beta
    pair_beta, pair_alpha = np.nonzero(np.all(exps >= betas[:, None], axis=2))
    gamma = exps[pair_alpha] - betas[pair_beta]
    factorial = np.cumprod(np.r_[1.0, np.arange(1.0, degree + 1)])
    terms = np.prod(factorial[exps[pair_alpha]] / factorial[gamma], axis=1)[:, None] * diff[pair_alpha]
    gamma, pair_gamma = _unique_rows(gamma)

    # powers[t, a] = x_t^a on every point, by repeated products (np.power with
    # an array of exponents takes about 50 ns an entry); vand[g] = x^gamma_g
    coords = _sample_points(n, radius).T
    powers = np.ones((n, degree + 1, coords.shape[1]))
    powers[:, 1:] = coords[:, None]
    powers = np.cumprod(powers, axis=1)
    vand = powers[0, gamma[:, 0]]
    for t in range(1, n):
        vand = vand * powers[t, gamma[:, t]]

    # a block of orders holds C (gammas, orders, cols) and values (orders * cols, points)
    cols = diff.shape[1]
    step = max(1, _BLOCK // (cols * max(vand.shape)))
    worst = 0.0
    for lo in range(0, len(betas), step):
        block = slice(*np.searchsorted(pair_beta, [lo, lo + step]))
        coeffs = np.zeros((len(gamma), min(step, len(betas) - lo), cols))
        coeffs[pair_gamma[block], pair_beta[block] - lo] = terms[block]
        values = coeffs.reshape(len(gamma), -1).T @ vand
        worst = max(worst, float(values.max()), -float(values.min()))
    return worst
