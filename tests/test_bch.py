"""Group law in exponential coordinates and the induced metric coefficients."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow import algebra, bch
from nilflow.algebra import Bracket, gl_action
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
from nilflow.soliton import orbit_invariants

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
    # every reader of the central series shares the bracket's one evaluation
    assert b.degree == algebra.nilpotency_degree(b) == orbit_invariants(b)["degree"] == 4
    assert algebra.central_series_dims(b) == orbit_invariants(b)["series_dims"] == [5, 3, 2, 1, 0]
    assert len(calls) == 1


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
        # int() truncated these to the orders 0, 1 and 1
        lambda field: field.derivative((0.5, 0, 0, 0)),
        lambda field: field.derivative((1.9, 0, 0, 0)),
        lambda field: field.derivative((True, 0, 0, 0)),
    ],
    ids=["call_short", "call_column", "derivative_short", "derivative_negative",
         "derivative_half", "derivative_fraction", "derivative_bool"],
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
    # a new bracket with the same coefficients: b keeps its first expansion
    ref = metric_field_fit(Bracket(b.coeffs)).coefficients
    assert list(got) == list(ref)
    assert all(np.array_equal(got[alpha], ref[alpha]) for alpha in ref)


def test_each_bracket_is_expanded_once(monkeypatch, fil4):
    calls = []
    original = bch._expand_metric

    def counting(b):
        calls.append(b)
        return original(b)

    monkeypatch.setattr(bch, "_expand_metric", counting)
    near = filiform(4, [1.1, 1.0])
    metric_field_fit(fil4)
    metric_convergence_distance(fil4, near, 2.0)
    metric_convergence_distance(fil4, fil4, 2.0, p=0)
    assert calls == [fil4, near]


def test_fitted_fields_share_no_mutable_state(fil4):
    field = metric_field_fit(fil4)
    first = dict(field.coefficients)
    alpha = next(iter(first))
    field.coefficients.pop(alpha)
    field.coefficients[(9, 9, 9, 9)] = np.eye(4)
    with pytest.raises(ValueError):
        first[alpha][0, 0] = 2.0
    again = metric_field_fit(fil4).coefficients
    assert list(again) == list(first)
    assert all(np.array_equal(again[a], first[a]) for a in first)


@pytest.mark.parametrize("called_first", [False, True], ids=["edit_before_call", "edit_after_call"])
def test_an_edit_to_the_coefficients_dict_changes_nothing_the_field_computes(fil4, called_first):
    # the dict is a view built on each read; the field evaluates its arrays
    x, beta = np.array([0.4, -0.3, 0.7, 0.2]), (1, 0, 1, 0)
    fitted = metric_field_fit(Bracket(fil4.coeffs))
    want = fitted(x), fitted.derivative(beta)(x), fitted.to_dict()
    field = metric_field_fit(fil4)
    if called_first:
        field(x)
        field.derivative(beta)(x)
    coefficients = field.coefficients
    coefficients.pop((0, 0, 0, 0))
    coefficients[(1, 0, 1, 0)] = np.eye(4)
    got = field(x), field.derivative(beta)(x), field.to_dict()
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert len(field.coefficients) == len(fitted.coefficients)
    with pytest.raises(ValueError):
        field.coefficients[(0, 0, 0, 0)][0, 0] = 2.0


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
        # read as i = 1, as i = 1, and as 1000.0
        dict(entry, i=1.9),
        dict(entry, i=True),
        dict(entry, value="1e3"),
        # a degree-2 monomial in a degree-1 field
        dict(entry, alpha=[1, 1]),
    ]
    for bad in bad_entries:
        with pytest.raises(BracketFormatError):
            MetricField.from_dict({"n": 2, "degree": 1, "coefficients": [bad]})
    with pytest.raises(BracketFormatError, match="list"):
        MetricField.from_dict({"n": 2, "degree": 1, "coefficients": 5})
    with pytest.raises(BracketFormatError, match="degree"):
        MetricField.from_dict({"n": 1, "degree": -3, "coefficients": []})
    for n, degree in (("2", 1), (2, 1.5), (2, "1")):
        with pytest.raises(BracketFormatError):
            MetricField.from_dict({"n": n, "degree": degree, "coefficients": [entry]})
    # the last of two entries for one (alpha, i, j) won
    with pytest.raises(BracketFormatError, match="repeats"):
        MetricField.from_dict({"n": 2, "degree": 1, "coefficients": [entry, dict(entry, value=2.0)]})
    # a degree-3 monomial in a degree-0 field
    with pytest.raises(BracketFormatError, match="degree"):
        MetricField.from_dict({"n": 2, "degree": 0, "coefficients": [dict(entry, alpha=[2, 1])]})


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
    [(math.nan, 2), (math.inf, 2), (-1.0, 2), (1.0, -1), (1.0, 2.5), (True, 2), (False, 2), (1.0, True), ("1", 2)],
    ids=["nan-radius", "inf-radius", "negative-radius", "negative-p", "fractional-p",
         "true-radius", "false-radius", "bool-p", "str-radius"],
)
def test_distance_rejects_bad_radius_and_order(heis, radius, p):
    # a nan or infinite radius and p = -1 read 0.0, "the metrics agree"; p = 2.5 was a TypeError;
    # a bool radius read 1.0 or 0.0, and p = True order 1; a str radius was a TypeError
    with pytest.raises(ConfigError):
        metric_convergence_distance(heis, heisenberg(1.1), radius=radius, p=p)


def test_distance_stops_at_the_degree_of_the_fields():
    # filiform(5) has degree 4, so both metric fields have degree 6 and every
    # derivative of order 7 or more vanishes; p = 50 enumerated 51^5 orders
    a, b = filiform(5), filiform(5, [1.1, 1.0, 1.0])
    at_degree = metric_convergence_distance(a, b, radius=1.0, p=6)
    start = time.perf_counter()
    assert metric_convergence_distance(a, b, radius=1.0, p=50) == at_degree
    assert time.perf_counter() - start < 2.0
    assert at_degree == pytest.approx(0.2625, abs=1e-4)


def test_multiindices_are_built_directly():
    for n in range(1, 6):
        for degree in range(5):
            product = [a for a in itertools.product(range(degree + 1), repeat=n) if sum(a) <= degree]
            assert bch._multiindices(n, degree) == sorted(product, key=lambda a: (sum(a), a))
    # the filtered product walks 13^8 = 815M tuples here
    start = time.perf_counter()
    assert len(bch._multiindices(8, 12)) == math.comb(20, 8)
    assert time.perf_counter() - start < 1.0


def _reference_distances(b1, b2, radius, top):
    """Sup of |d^beta (g_1 - g_2)_ij| on the distance's sample points for each
    order |beta| = 0..top: one coefficient-exact derivative of each field per
    beta, their difference evaluated monomial by monomial."""
    f1, f2 = metric_field_fit(b1), metric_field_fit(b2)
    n = b1.n
    points = bch._sample_points(n, radius)
    powers = points.T[:, :, None] ** np.arange(max(f1.degree, f2.degree) + 1)  # powers[t, x, a] = x_t^a
    zero = np.zeros((n, n))
    worst = [0.0] * (top + 1)
    for beta in itertools.product(range(top + 1), repeat=n):
        if sum(beta) > top:
            continue
        d1, d2 = f1.derivative(beta).coefficients, f2.derivative(beta).coefficients
        alphas = sorted(set(d1) | set(d2))
        if not alphas:
            continue
        exps = np.array(alphas)
        diff = np.array([d1.get(a, zero) - d2.get(a, zero) for a in alphas]).reshape(-1, n * n)
        monomials = np.ones((len(points), len(exps)))
        for t in range(n):
            monomials *= powers[t][:, exps[:, t]]
        worst[sum(beta)] = max(worst[sum(beta)], float(np.abs(monomials @ diff).max()))
    return worst


def _parity_starts():
    rng = np.random.default_rng(3)
    makers = {
        "two_step": random_two_step,
        "nilpotent": random_nilpotent,
        "filiform": lambda n, rng: sphere_perturbation(filiform(n), rng),
    }
    starts = []
    for n in range(3, 7):
        for kind, make in makers.items():
            b = make(n, rng)
            near = gl_action(np.eye(n) + 0.05 * rng.standard_normal((n, n)) / math.sqrt(n), b)
            # the perturbed filiform(6) expansion has 3003 monomials, and its
            # reference takes 15 to 25 s on one core at p = 2 and 3
            top = 1 if (kind, n) == ("filiform", 6) else 3
            starts.append(pytest.param(b, near, top, id=f"{kind}{n}"))
    return starts


@pytest.mark.parametrize("b, near, top", _parity_starts())
def test_distance_matches_the_per_derivative_reference(b, near, top):
    for radius in (1.0, 2.0):
        ref = _reference_distances(b, near, radius, top)
        for p in range(top + 1):
            want = max(ref[: p + 1])
            assert abs(metric_convergence_distance(b, near, radius, p) - want) <= 1e-12 * want
            assert metric_convergence_distance(b, b, radius, p) == 0.0


def test_distance_blocks_agree_with_one_block(monkeypatch):
    # p = 3 has 84 orders at n = 6 and the dense start 3003 monomials, so one
    # block of the coefficient matrix over the 21 upper-triangle entries
    # would pass 2^20 entries
    b = filiform(6)
    near = gl_action(np.eye(6) + 0.05 * np.random.default_rng(6).standard_normal((6, 6)), b)
    assert len(metric_field_fit(near).coefficients) * len(bch._multiindices(6, 3)) * 21 > 2**20
    blocked = metric_convergence_distance(b, near, radius=2.0, p=3)
    monkeypatch.setattr(bch, "_BLOCK", 2**62)
    whole = metric_convergence_distance(b, near, radius=2.0, p=3)
    assert abs(blocked - whole) <= 1e-12 * whole
