"""Group law in exponential coordinates and the induced metric coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow import algebra, bch
from nilflow.algebra import gl_action
from nilflow.bch import (
    MetricField,
    bch_product,
    left_translation_differential,
    metric_at,
    metric_convergence_distance,
    metric_field_2step,
    metric_field_fit,
    translation_jacobian,
)
from nilflow.exceptions import BracketFormatError, ConfigError, DegreeTooHigh, DimensionMismatch
from nilflow.generators import filiform, heisenberg, random_nilpotent, random_two_step, sphere_perturbation

from conftest import random_sphere_bracket


def _ad_matrix(b, x):
    return np.einsum("i,ijk->kj", x, b.coeffs)


# ---------------------------------------------------------------------------
# the product itself


def test_two_step_product_is_three_terms(heis):
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    expected = x + y + 0.5 * heis.apply(x, y)
    assert np.allclose(bch_product(heis, x, y), expected, atol=1e-14)


def test_heisenberg_closed_form():
    b = heisenberg(2.5)
    x = np.array([0.3, -1.1, 0.7])
    y = np.array([-0.4, 0.9, 2.0])
    z = x + y
    z[2] += 0.5 * 2.5 * (x[0] * y[1] - x[1] * y[0])
    assert np.allclose(bch_product(b, x, y), z, atol=1e-13)


def test_three_step_product_matches_dynkin_terms(fil4):
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    br = fil4.apply
    expected = (
        x + y + 0.5 * br(x, y) + br(x, br(x, y)) / 12.0 - br(y, br(x, y)) / 12.0
    )
    assert np.allclose(bch_product(fil4, x, y), expected, atol=1e-12)


def test_four_step_product_matches_dynkin_terms():
    b = filiform(5)
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal(5), rng.standard_normal(5)
    br = b.apply
    xy = br(x, y)
    expected = (
        x
        + y
        + 0.5 * xy
        + br(x, xy) / 12.0
        - br(y, xy) / 12.0
        - br(y, br(x, xy)) / 24.0
    )
    assert np.allclose(bch_product(b, x, y), expected, atol=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_group_axioms(seed):
    rng = np.random.default_rng(seed)
    # filiform(7) has degree 6, so its product takes three Gauss nodes
    for b in (filiform(5), filiform(7)):
        n = b.n
        x, y, z = rng.standard_normal((3, n))
        assert np.allclose(bch_product(b, x, np.zeros(n)), x, atol=1e-12)
        assert np.allclose(bch_product(b, np.zeros(n), x), x, atol=1e-12)
        assert np.allclose(bch_product(b, x, -x), np.zeros(n), atol=1e-12)
        lhs = bch_product(b, bch_product(b, x, y), z)
        rhs = bch_product(b, x, bch_product(b, y, z))
        assert np.allclose(lhs, rhs, atol=1e-11), f"associativity off by {np.abs(lhs - rhs).max():.2e}"


def test_zero_bracket_product_is_the_sum():
    x = np.array([1.0, 0.5, -0.25, 2.0])
    y = np.array([0.1, -0.2, 0.3, -0.4])
    # the zero bracket has degree 0, resolved to k = 1: the product is exactly x + y
    zero = algebra.Bracket.zero(4)
    assert np.array_equal(bch_product(zero, x, y), x + y)


def test_product_rejects_wrong_length(heis):
    with pytest.raises(DimensionMismatch):
        bch_product(heis, np.zeros(4), np.zeros(3))


# ---------------------------------------------------------------------------
# translations and the left-invariant metric


def test_two_step_frame_differential(heis):
    # at degree 2 the differential of translation by -x is exactly I - ad_x/2
    x = np.array([0.7, -0.3, 1.9])
    expected = np.eye(3) - 0.5 * _ad_matrix(heis, x)
    assert np.allclose(left_translation_differential(heis, x), expected, atol=1e-13)


@pytest.mark.parametrize("seed", range(4))
def test_translations_are_volume_preserving(seed):
    b = filiform(5)
    rng = np.random.default_rng(seed)
    z, x = rng.standard_normal((2, 5))
    assert np.linalg.det(translation_jacobian(b, z, x)) == pytest.approx(1.0, rel=1e-10)


def _central_difference_jacobian(b, z, x, h=1e-5):
    cols = [(bch_product(b, z, x + h * e) - bch_product(b, z, x - h * e)) / (2 * h) for e in np.eye(b.n)]
    return np.column_stack(cols)


@pytest.mark.parametrize(
    "b",
    [filiform(5), random_nilpotent(5, np.random.default_rng(3)), filiform(7)],
    ids=["filiform5", "rotated5", "filiform7"],
)
def test_translation_differentials_match_central_differences(b):
    # the dexp series checked against differences of the integral-form product
    rng = np.random.default_rng(11)
    for z, x in rng.standard_normal((3, 2, b.n)):
        fd = _central_difference_jacobian(b, z, x)
        assert np.allclose(translation_jacobian(b, z, x), fd, atol=1e-7)
        fd = _central_difference_jacobian(b, -x, x)
        assert np.allclose(left_translation_differential(b, x), fd, atol=1e-7)


def test_heisenberg_metric_closed_form(heis):
    x1, x2 = 0.8, -1.3
    g = metric_at(heis, np.array([x1, x2, 0.4]))
    expected = np.array(
        [
            [1 + x2**2 / 4, -x1 * x2 / 4, x2 / 2],
            [-x1 * x2 / 4, 1 + x1**2 / 4, -x1 / 2],
            [x2 / 2, -x1 / 2, 1.0],
        ]
    )
    assert np.allclose(g, expected, atol=1e-13)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_metric_left_invariance(seed):
    b = filiform(4)
    rng = np.random.default_rng(seed)
    z, x = rng.standard_normal((2, 4))
    a = translation_jacobian(b, z, x)
    pulled = a.T @ metric_at(b, bch_product(b, z, x)) @ a
    assert np.allclose(pulled, metric_at(b, x), atol=1e-11)


def test_metric_at_identity_is_euclidean(fil4):
    assert np.allclose(metric_at(fil4, np.zeros(4)), np.eye(4), atol=1e-14)


def test_degree_is_computed_once_per_bracket(monkeypatch):
    calls = []
    original = algebra._central_series

    def counting(c, tol):
        calls.append(tol)
        return original(c, tol)

    monkeypatch.setattr(algebra, "_central_series", counting)
    b = filiform(5)
    rng = np.random.default_rng(4)
    for x, y in rng.standard_normal((3, 2, 5)):
        metric_at(b, x)
        bch_product(b, x, y)
        translation_jacobian(b, x, y)
    assert len(calls) == 1
    assert b.degree == 4


# ---------------------------------------------------------------------------
# polynomial coefficient tables


@pytest.mark.parametrize("seed", range(4))
def test_2step_field_matches_pointwise_metric(seed):
    b = random_two_step(4, np.random.default_rng(seed))
    field = metric_field_2step(b)
    rng = np.random.default_rng(100 + seed)
    for _ in range(5):
        x = rng.standard_normal(4)
        assert np.allclose(field(x), metric_at(b, x), atol=1e-12)


def test_2step_field_rejects_higher_degree(fil4):
    with pytest.raises(DegreeTooHigh):
        metric_field_2step(fil4)


@pytest.mark.parametrize("n", range(3, 7))
def test_exact_table_matches_2step_closed_form(n):
    # the expansion stores exactly the monomials the closed form has
    b = random_two_step(n, np.random.default_rng(1))
    exact = metric_field_fit(b).coefficients
    closed = metric_field_2step(b).coefficients
    assert set(exact) == set(closed)
    for alpha, mat in closed.items():
        assert np.abs(exact[alpha] - mat).max() <= 1e-14, f"coefficient {alpha}"


def test_exact_table_at_degree_5():
    b = filiform(6)
    field = metric_field_fit(b)
    assert field.degree == 8
    assert max(sum(alpha) for alpha in field.coefficients) == 8
    rng = np.random.default_rng(6)
    for x in rng.standard_normal((5, 6)):
        g = metric_at(b, x)
        assert np.abs(field(x) - g).max() <= 1e-12 * np.abs(g).max()
    near = gl_action(np.eye(6) + 0.05 * rng.standard_normal((6, 6)) / math.sqrt(6), b)
    d = metric_convergence_distance(b, near, radius=2.0)
    assert math.isfinite(d) and d > 0.0


def test_fitted_field_matches_pointwise_metric(fil4):
    field = metric_field_fit(fil4)
    assert field.degree == 4
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal(4) * 0.8
        assert np.abs(field(x) - metric_at(fil4, x)).max() < 1e-9


def test_fitted_field_linear_terms(fil4):
    # the degree-1 coefficients of g are -(mu(e_r, .) + transpose)/2
    field = metric_field_fit(fil4)
    c = fil4.coeffs
    for r in range(4):
        alpha = tuple(1 if t == r else 0 for t in range(4))
        expected = -0.5 * (c[r].T + c[r])
        got = field.coefficients.get(alpha, np.zeros((4, 4)))
        assert np.allclose(got, expected, atol=1e-10), f"x_{r + 1} coefficient wrong"


def test_field_derivative_matches_finite_differences(fil4):
    # a degree-3 bracket and a degree-4 one (a metric fit of degree 6)
    for b in (fil4, sphere_perturbation(filiform(5), np.random.default_rng(3))):
        field = metric_field_fit(b)
        x = np.array([0.3, -0.2, 0.5, 0.1, -0.4])[: b.n]
        eps = 1e-6
        for t in range(b.n):
            beta = tuple(int(i == t) for i in range(b.n))
            step = eps * np.array(beta, dtype=float)
            fd = (field(x + step) - field(x - step)) / (2 * eps)
            assert np.allclose(field.derivative(beta)(x), fd, atol=1e-7)


def test_field_serialization_round_trip(fil4):
    field = metric_field_fit(fil4)
    again = MetricField.from_dict(field.to_dict())
    assert again.n == field.n and again.degree == field.degree
    x = np.array([0.4, 0.1, -0.7, 0.2])
    assert np.allclose(again(x), field(x), atol=1e-15)


def _per_monomial_call(field, x):
    # the reference evaluation: one product of powers per monomial
    out = np.zeros((field.n, field.n))
    for alpha, mat in field.coefficients.items():
        out += mat * np.prod(x ** np.asarray(alpha))
    return out


def _reference_fields():
    fields = [metric_field_fit(filiform(n)) for n in (4, 5, 6)]
    for n in (5, 8):
        rng = np.random.default_rng(n)
        fields.append(metric_field_fit(random_two_step(n, rng)))
        fields.append(metric_field_fit(random_nilpotent(n, rng)))
    fields.append(MetricField.from_dict(fields[1].to_dict()))
    return fields


@pytest.mark.parametrize("field", _reference_fields(), ids=lambda f: f"n{f.n}-m{len(f.coefficients)}")
def test_field_call_matches_per_monomial_sum(field):
    rng = np.random.default_rng(field.n)
    for x in rng.standard_normal((4, field.n)) * 1.5:
        g = _per_monomial_call(field, x)
        assert np.abs(field(x) - g).max() <= 1e-13 * max(1.0, np.abs(g).max())


@pytest.mark.parametrize(
    "call",
    [
        lambda field: field(np.zeros(3)),
        lambda field: field(np.zeros((4, 1))),
        lambda field: field.derivative((1, 0, 0)),
        lambda field: field.derivative((1, 0, -1, 0)),
    ],
    ids=["call_short", "call_column", "derivative_short", "derivative_negative"],
)
def test_field_rejects_wrong_shapes(call, fil4):
    with pytest.raises(DimensionMismatch):
        call(metric_field_fit(fil4))


def test_derivative_past_the_degree_is_zero(fil4):
    field = metric_field_fit(fil4)
    assert field.degree == 4
    dfield = field.derivative((3, 2, 0, 0))
    assert dfield.coefficients == {}
    got = dfield(np.array([0.4, -1.0, 0.3, 2.0]))
    assert got.shape == (4, 4) and not got.any()


def _unique_rows_matpoly_mul(p, q):
    # the reference collection: like monomials found by np.unique on the rows
    (ep, cp), (eq, cq) = p, q
    exps = (ep[:, None] + eq[None, :]).reshape(-1, ep.shape[1])
    prods = (cp[:, None] @ cq[None, :]).reshape(len(exps), cp.shape[1], cq.shape[2])
    exps, inverse = np.unique(exps, axis=0, return_inverse=True)
    coeffs = np.zeros((len(exps),) + prods.shape[1:])
    np.add.at(coeffs, inverse.reshape(-1), prods)
    nonzero = np.any(coeffs != 0.0, axis=(1, 2))
    return exps[nonzero], coeffs[nonzero]


@pytest.mark.parametrize(
    "b",
    [filiform(n) for n in range(4, 8)] + [sphere_perturbation(filiform(5), np.random.default_rng(5))],
    ids=["filiform4", "filiform5", "filiform6", "filiform7", "dense5"],
)
def test_collection_matches_unique_rows(b, monkeypatch):
    # the dense start has 462 monomials, every one collected from many products
    got = metric_field_fit(b).coefficients
    monkeypatch.setattr(bch, "_matpoly_mul", _unique_rows_matpoly_mul)
    ref = metric_field_fit(b).coefficients
    assert list(got) == list(ref)
    assert all(np.array_equal(got[alpha], ref[alpha]) for alpha in ref)


def test_field_from_dict_rejects_garbage():
    with pytest.raises(BracketFormatError):
        MetricField.from_dict({"n": 2})
    entry = {"i": 1, "j": 2, "alpha": [0, 0], "value": 1.0}
    bad_entries = [
        dict(entry, j=3),
        {"i": 1, "alpha": [0, 0], "value": 1.0},
        dict(entry, alpha=["x", 0]),
        dict(entry, alpha=0),
        dict(entry, value=float("nan")),
        "entry",
    ]
    for bad in bad_entries:
        with pytest.raises(BracketFormatError):
            MetricField.from_dict({"n": 2, "degree": 1, "coefficients": [bad]})
    with pytest.raises(BracketFormatError, match="list"):
        MetricField.from_dict({"n": 2, "degree": 1, "coefficients": 5})
    with pytest.raises(BracketFormatError, match="degree"):
        MetricField.from_dict({"n": 1, "degree": -3, "coefficients": []})


# ---------------------------------------------------------------------------
# coefficient-table distance between two structures


def test_distance_to_self_is_zero(heis):
    assert metric_convergence_distance(heis, heis, radius=1.0) == 0.0


def test_distance_scales_linearly_in_perturbation(heis):
    d1 = metric_convergence_distance(heis, heisenberg(1.0 + 1e-4), radius=1.0)
    d2 = metric_convergence_distance(heis, heisenberg(1.0 + 1e-5), radius=1.0)
    assert d1 > 0 and d2 > 0
    assert d1 / d2 == pytest.approx(10.0, rel=1e-2)


def test_distance_rejects_dimension_mismatch(heis, fil4):
    with pytest.raises(DimensionMismatch):
        metric_convergence_distance(heis, fil4, radius=1.0)


@pytest.mark.parametrize(
    "radius, p",
    [(math.nan, 2), (math.inf, 2), (-1.0, 2), (1.0, -1), (1.0, 2.5)],
    ids=["nan-radius", "inf-radius", "negative-radius", "negative-p", "fractional-p"],
)
def test_distance_rejects_bad_radius_and_order(heis, radius, p):
    # a nan or infinite radius and p = -1 read 0.0, "the metrics agree"; p = 2.5 was a TypeError
    with pytest.raises(ConfigError):
        metric_convergence_distance(heis, heisenberg(1.1), radius=radius, p=p)
