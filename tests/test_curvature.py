"""Ricci data, the curvature tensor at the identity, and the energy gradient."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow.algebra import delta, delta_transpose, gl_action, vn_inner
from nilflow.curvature import (
    _connection,
    _ricci,
    _riemann,
    connection_operators,
    curvature_pack,
    laplacian_delta,
    moment_map,
    ricci_energy,
    ricci_energy_gradient,
    ricci_form,
    ricci_operator,
    ricci_sign_check,
    riemann_at_origin,
    scalar_curvature,
)
from nilflow.exceptions import DimensionMismatch, ZeroBracket
from nilflow.generators import (
    filiform,
    heisenberg,
    random_orthogonal,
    random_two_step,
)

from conftest import dense_starts, random_sphere_bracket


def test_heisenberg_ricci_exact(heis):
    assert np.array_equal(ricci_operator(heis), np.diag([-0.5, -0.5, 0.5]))


def test_ricci_scales_quadratically(heis):
    assert np.allclose(ricci_operator(heisenberg(3.0)), 9.0 * ricci_operator(heis))


def test_filiform4_ricci(fil4):
    assert np.allclose(ricci_operator(fil4), np.diag([-1.0, -0.5, 0.0, 0.5]), atol=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_ricci_form_agrees_with_operator(seed):
    b = random_sphere_bracket(5, seed)
    assert np.allclose(ricci_form(b), ricci_operator(b), atol=1e-12)


@pytest.mark.parametrize("n", range(3, 9))
def test_stacked_ricci_matches_the_form_on_each_sample(n):
    # _ricci takes leading batch axes; ricci_form is an independent contraction
    starts = dense_starts(n, 100 + n)
    stack = _ricci(np.array([b.coeffs for b in starts]))
    assert stack.shape == (len(starts), n, n)
    for ric, b in zip(stack, starts):
        ref = ricci_form(b)
        assert np.abs(ric - ref).max() <= 1e-13 * np.abs(ref).max()


def _einsum_riemann(c):
    """R(e_i, e_j) = [gam_i, gam_j] - gam_{mu(e_i, e_j)} as two einsums, the
    reference for the matrix products of _riemann."""
    gam = _connection(c)
    prod = np.einsum("...iab,...jbc->...ijac", gam, gam)
    adterm = np.einsum("...ija,...abc->...ijbc", c, gam)
    return prod - np.swapaxes(prod, -4, -3) - adterm


@pytest.mark.parametrize("n", range(3, 9))
def test_stacked_riemann_matches_the_einsum_form_on_each_sample(n):
    # _riemann takes leading batch axes; a single bracket takes the same path
    starts = dense_starts(n, 700 + n)
    stack = _riemann(np.array([b.coeffs for b in starts]))
    assert stack.shape == (len(starts), n, n, n, n)
    for r, b in zip(stack, starts):
        ref = _einsum_riemann(b.coeffs)
        assert np.abs(r - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(riemann_at_origin(b).entries, r)


@pytest.mark.parametrize("seed", range(6))
def test_scal_is_quarter_norm(seed):
    b = random_two_step(4, np.random.default_rng(seed))
    assert scalar_curvature(b) == pytest.approx(-0.25 * b.norm**2, rel=1e-13)
    assert np.trace(ricci_operator(b)) == pytest.approx(scalar_curvature(b), rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_ricci_has_both_signs(seed):
    has_neg, has_pos = ricci_sign_check(random_sphere_bracket(4, seed))
    assert has_neg and has_pos


@pytest.mark.parametrize("s", [1e-160, 1e-300])
def test_ricci_has_both_signs_when_its_entries_underflow(s):
    # the spectrum of heisenberg(s) is s^2 (-1/2, -1/2, 1/2), at most 5e-321
    assert ricci_sign_check(heisenberg(s)) == (True, True)


def test_delta_transpose_of_bracket_is_ricci(heis):
    # the divergence identity tying the two delta operators to Ricci
    assert np.allclose(delta_transpose(heis, heis), -4.0 * ricci_operator(heis), atol=1e-14)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_delta_transpose_identity_random(seed):
    b = random_two_step(5, np.random.default_rng(seed))
    assert np.allclose(delta_transpose(b, b), -4.0 * ricci_operator(b), atol=1e-10)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_ricci_orthogonal_equivariance(seed):
    rng = np.random.default_rng(seed)
    b = random_two_step(4, rng)
    q = random_orthogonal(4, rng)
    assert np.allclose(ricci_operator(gl_action(q, b)), q @ ricci_operator(b) @ q.T, atol=1e-10)


# ---------------------------------------------------------------------------
# curvature tensor at the identity


def test_heisenberg_sectional(heis):
    riem = riemann_at_origin(heis)
    assert riem.sectional(0, 1) == pytest.approx(-0.75)
    assert riem.sectional(0, 2) == pytest.approx(0.25)
    assert riem.sectional(1, 2) == pytest.approx(0.25)


def test_riemann_symmetries(heis):
    r = riemann_at_origin(heis).entries
    assert np.allclose(r, -r.transpose(1, 0, 2, 3))
    assert np.allclose(r, -r.transpose(0, 1, 3, 2))
    assert np.allclose(r, r.transpose(2, 3, 0, 1))


@pytest.mark.parametrize("seed", range(5))
def test_riemann_contracts_to_ricci(seed):
    b = random_sphere_bracket(4, seed)
    riem = riemann_at_origin(b)
    assert np.allclose(riem.ricci_contraction(), ricci_operator(b), atol=1e-12)


def test_riemann_first_bianchi(fil4):
    r = riemann_at_origin(fil4).entries
    # R(x,y)z + R(y,z)x + R(z,x)y = 0, entries R[i,j,k,l] = <R(e_i,e_j)e_l, e_k>
    total = r + np.einsum("jlki->ijkl", r) + np.einsum("likj->ijkl", r)
    assert np.abs(total).max() < 1e-12


# ---------------------------------------------------------------------------
# moment map, energy, gradient


def test_moment_map_heisenberg(heis):
    assert np.allclose(moment_map(heis), np.diag([-1.0, -1.0, 1.0]))
    with pytest.raises(ZeroBracket):
        moment_map(heis.scaled(0.0))


@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e150])
def test_moment_map_is_scale_free(scale):
    # ||mu||^2 underflows below 1e-154; the map read ZeroBracket there
    assert np.allclose(moment_map(heisenberg(scale)), np.diag([-1.0, -1.0, 1.0]), rtol=0, atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_moment_map_trace(seed):
    b = random_sphere_bracket(5, seed)
    assert np.trace(moment_map(b)) == pytest.approx(-1.0, rel=1e-12)


def test_energy_heisenberg(heis):
    assert ricci_energy(heis) == pytest.approx(0.75)


@pytest.mark.parametrize("seed", [0, 3, 7, 12])
def test_energy_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    b = random_sphere_bracket(4, 100 + seed)
    grad = ricci_energy_gradient(b)
    eps = 1e-6
    for _ in range(3):
        w = rng.standard_normal((4, 4, 4))
        direction = 0.5 * (w - w.transpose(1, 0, 2))
        direction /= np.linalg.norm(direction)
        plus = ricci_energy(type(b)(b.coeffs + eps * direction))
        minus = ricci_energy(type(b)(b.coeffs - eps * direction))
        fd = (plus - minus) / (2.0 * eps)
        # grad F = -delta(Ric): directional derivative is <-grad, v>... the
        # gradient convention here is dF[v] = <gradient, v>
        inner = float(np.sum(grad.coeffs * direction))
        assert fd == pytest.approx(inner, rel=1e-6, abs=1e-9)


def test_laplacian_self_adjoint_on_symmetric(rng):
    b = random_sphere_bracket(4, 42)
    x = rng.standard_normal((4, 4))
    y = rng.standard_normal((4, 4))
    x, y = x + x.T, y + y.T
    lhs = float(np.sum(laplacian_delta(b, x) * y))
    rhs = float(np.sum(x * laplacian_delta(b, y)))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_laplacian_positive_semidefinite(rng):
    b = random_sphere_bracket(4, 43)
    for _ in range(5):
        x = rng.standard_normal((4, 4))
        x = x + x.T
        quad = float(np.sum(x * laplacian_delta(b, x)))
        assert quad >= -1e-12
        assert quad == pytest.approx(vn_inner(delta(b, x), delta(b, x)), rel=1e-10)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4,), (4, 4, 1)])
def test_laplacian_rejects_an_operator_of_the_wrong_shape(shape, fil4):
    with pytest.raises(DimensionMismatch, match="operator shape"):
        laplacian_delta(fil4, np.zeros(shape))


@pytest.mark.parametrize("seed", range(3))
def test_connection_operators_are_skew(seed):
    # a metric connection in an orthonormal frame: each gamma_r is skew
    b = random_sphere_bracket(5, seed)
    gam = connection_operators(b)
    assert gam.shape == (5, 5, 5)
    assert np.array_equal(gam, -gam.swapaxes(1, 2))
    assert np.abs(gam).max() > 0.0


def test_curvature_pack_serializes(fil4):
    pack = curvature_pack(fil4)
    doc = pack.to_dict()
    assert doc["scal"] == pytest.approx(-1.0)
    assert len(doc["ricci"]) == 4
    import json

    json.dumps(doc)
