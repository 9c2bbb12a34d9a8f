"""Soliton certificates, convergence detection, and orbit invariants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilflow.curvature import ricci_operator
from nilflow.exceptions import BadNormalization, ConfigError, NotNilpotentError, ZeroBracket
from nilflow.flow import FlowOpts, integrate_bracket_flow, integrate_normalized_flow
from nilflow.generators import (
    filiform,
    heisenberg,
    random_orthogonal,
    random_two_step,
    rescale_to_norm,
    sphere_perturbation,
)
from nilflow.algebra import Bracket, delta, derivation_basis, gl_action
from nilflow.soliton import detect_convergence, orbit_invariants, soliton_residual

from conftest import dixmier_lister, random_sphere_bracket


# ---------------------------------------------------------------------------
# the certificate Ric = c I + D


def test_heisenberg_certificate(heis):
    cert = soliton_residual(heis)
    assert cert.is_soliton
    assert cert.c == pytest.approx(-1.5, abs=1e-12)
    assert np.allclose(cert.derivation, np.diag([1.0, 1.0, 2.0]), atol=1e-12)
    assert cert.residual < 1e-12


def test_certificate_scales_with_the_bracket(heis_sphere):
    cert = soliton_residual(heis_sphere)
    assert cert.is_soliton
    assert cert.c == pytest.approx(-3.0, abs=1e-12)
    assert np.allclose(cert.derivation, np.diag([2.0, 2.0, 4.0]), atol=1e-12)


@pytest.mark.parametrize("s", [1e-100, 1e-80, 1e80, 1e100])
def test_heisenberg_certifies_at_every_scale(s):
    # tr Ric^2 is quartic in mu: it underflowed below ||mu|| ~ 1e-77 and
    # overflowed above ~1e77, so the verdict and c depended on the scale
    cert = soliton_residual(heisenberg(s))
    assert cert.is_soliton
    assert cert.c == pytest.approx(-1.5 * s * s, rel=1e-12)
    assert np.allclose(cert.derivation / (s * s), np.diag([1.0, 1.0, 2.0]), atol=1e-12)


def test_filiform4_is_a_soliton(fil4):
    cert = soliton_residual(fil4)
    assert cert.is_soliton
    assert cert.c == pytest.approx(-1.5, abs=1e-12)
    assert np.allclose(cert.derivation, np.diag([0.5, 1.0, 1.5, 2.0]), atol=1e-12)
    assert np.allclose(ricci_operator(fil4), np.diag([-1.0, -0.5, 0.0, 0.5]), atol=1e-13)


def test_derivation_leibniz(heis):
    # the certified D must be a derivation: D[x,y] = [Dx,y] + [x,Dy]
    cert = soliton_residual(heis)
    d = cert.derivation
    rng = np.random.default_rng(0)
    for _ in range(3):
        x, y = rng.standard_normal((2, 3))
        lhs = d @ heis.apply(x, y)
        rhs = heis.apply(d @ x, y) + heis.apply(x, d @ y)
        assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_certificate_trace_identity(seed):
    # the fitted c, D always satisfy c n + tr D = scal exactly (projection)
    b = random_sphere_bracket(4, 60 + seed)
    cert = soliton_residual(b)
    scal = float(np.trace(ricci_operator(b)))
    assert cert.c * 4 + np.trace(cert.derivation) == pytest.approx(scal, abs=1e-10)


def test_generic_bracket_is_not_a_soliton():
    # n = 4 is too small (all two-step brackets there sit on a soliton orbit)
    b = random_sphere_bracket(5, 1)
    cert = soliton_residual(b)
    assert not cert.is_soliton
    assert cert.residual > 1e-3


def test_zero_bracket_rejected():
    with pytest.raises(ZeroBracket):
        soliton_residual(heisenberg(0.0))


def test_certificate_serializes(heis):
    doc = soliton_residual(heis).to_dict()
    json.dumps(doc)
    assert doc["is_soliton"] is True
    assert len(doc["D"]) == 3


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_certificate_residual_is_orthogonally_invariant(seed):
    rng = np.random.default_rng(seed)
    b = random_two_step(4, rng)
    q = random_orthogonal(4, rng)
    a = soliton_residual(b)
    c = soliton_residual(gl_action(q, b))
    assert c.residual == pytest.approx(a.residual, rel=1e-8, abs=1e-12)
    assert c.c == pytest.approx(a.c, rel=1e-8, abs=1e-12)


def _projected_certificate(b):
    """Reference: least-squares projection of Ric onto span{I} + Der(mu),
    with Der(mu) from a rank decision on the SVD of delta_mu."""
    n = b.n
    ric = ricci_operator(b)
    ders = derivation_basis(b)
    a = np.stack([np.eye(n).ravel()] + [d.ravel() for d in ders], axis=1)
    x, *_ = np.linalg.lstsq(a, ric.ravel(), rcond=None)
    return float(x[0]), sum((xi * d for xi, d in zip(x[1:], ders)), np.zeros((n, n)))


def _two_step_limit(seed):
    b = rescale_to_norm(random_two_step(4, np.random.default_rng(seed)))
    return integrate_normalized_flow(b, 60.0).final_bracket


@pytest.mark.parametrize("name", ["heis", "heis_sphere", "fil4", "two_step_2", "two_step_5"])
def test_closed_form_matches_the_projection(name, request):
    # on a soliton, c = -4 tr Ric^2 / ||mu||^2 is the projection's c, since
    # tr(Ric D) = 0 for every derivation D
    if name.startswith("two_step"):
        b = _two_step_limit(int(name[-1]))
    else:
        b = request.getfixturevalue(name)
    cert = soliton_residual(b)
    c_ref, d_ref = _projected_certificate(b)
    assert cert.is_soliton
    assert cert.c == pytest.approx(c_ref, rel=1e-12)
    assert np.abs(cert.derivation - d_ref).max() < 1e-9


def test_certificate_is_continuous_where_the_derivation_rank_jumps():
    # Dixmier-Lister's normalized limit has a larger derivation algebra than
    # its orbit; near it the projection read a residual of 0.90 at T = 20
    # while the flow had nearly stopped
    limit = integrate_normalized_flow(rescale_to_norm(dixmier_lister()), 20.0).final_bracket
    cert = soliton_residual(limit)
    # on ||mu|| = 2 the residual is the normalized flow's speed
    # ||delta_mu(Ric) + tr(Ric^2) mu||, computed here from its definition
    ric = ricci_operator(limit)
    speed = np.linalg.norm(delta(limit, ric).coeffs + np.sum(ric * ric) * limit.coeffs)
    assert cert.residual == pytest.approx(speed, rel=1e-12)
    assert cert.residual < 1e-3
    assert not cert.is_soliton


def test_soliton_on_the_sphere_is_certified(heis_sphere):
    # a critical point of the normalized flow: its speed, the residual, is 0
    cert = soliton_residual(heis_sphere)
    assert cert.residual < 1e-12
    assert cert.is_soliton


def test_generic_bracket_is_not_certified():
    assert not soliton_residual(random_sphere_bracket(5, 9)).is_soliton


# ---------------------------------------------------------------------------
# convergence detection on traces


def test_detection_rejects_unnormalized_traces(heis):
    trace = integrate_bracket_flow(heis, 1.0)
    with pytest.raises(ConfigError, match="normalized trace"):
        detect_convergence(trace)


def test_perturbed_heisenberg_converges(heis_sphere):
    # n = 3 two-step brackets are all isometric to a scaled Heisenberg
    # structure, so the normalized flow starts at (an isometric copy of) the
    # soliton; the detector must recognize that immediately
    b = sphere_perturbation(heis_sphere, np.random.default_rng(12), eps=0.3)
    trace = integrate_normalized_flow(b, 0.5)
    report = detect_convergence(trace)
    assert report.converged, report.reason
    assert np.allclose(orbit_invariants(trace.final_bracket)["ricci_spectrum"], [-1.0, -1.0, 1.0], atol=1e-8)
    assert report.r_limit == pytest.approx(3.0, rel=1e-8)


def test_perturbed_filiform_takes_time_to_converge():
    b = sphere_perturbation(rescale_to_norm(filiform(4)), np.random.default_rng(4), eps=0.25)
    short = detect_convergence(integrate_normalized_flow(b, 0.5))
    assert not short.converged
    assert "certificate" in short.reason

    trace = integrate_normalized_flow(b, 320.0)
    long = detect_convergence(trace)
    assert long.converged, long.reason
    spectrum = orbit_invariants(trace.final_bracket)["ricci_spectrum"]
    assert np.allclose(spectrum, [-1.0, -0.5, 0.0, 0.5], atol=1e-5)
    assert long.r_limit == pytest.approx(1.5, rel=1e-6)
    assert long.window >= 50


@pytest.mark.parametrize("seed", [2, 5])
def test_random_two_step_limits(seed):
    b = rescale_to_norm(random_two_step(4, np.random.default_rng(seed)))
    trace = integrate_normalized_flow(b, 60.0)
    report = detect_convergence(trace)
    assert report.converged, report.reason
    assert report.certificate.is_soliton
    doc = report.to_dict()
    json.dumps(doc)
    assert doc["converged"] is True
    # every field of the report, the certificate as its own document
    assert sorted(doc) == [
        "certificate", "converged", "decay_rate", "fit_r2", "r_limit", "reason", "window",
    ]
    assert doc["certificate"] == report.certificate.to_dict()


def test_decay_rate_is_negative_when_fitted():
    b = sphere_perturbation(rescale_to_norm(filiform(4)), np.random.default_rng(4), eps=0.25)
    report = detect_convergence(integrate_normalized_flow(b, 40.0))
    if not np.isnan(report.decay_rate):
        assert report.decay_rate < 0.0


# ---------------------------------------------------------------------------
# orbit fingerprints


def test_orbit_invariants_fields(heis_sphere):
    inv = orbit_invariants(heis_sphere)
    assert inv["ricci_spectrum"] == pytest.approx([-1.0, -1.0, 1.0])
    assert inv["mu_norm"] == pytest.approx(2.0)
    assert inv["energy"] == pytest.approx(3.0)
    assert inv["degree"] == 2
    assert inv["series_dims"] == [3, 1, 0]


def test_orbit_invariants_of_a_non_nilpotent_bracket_raise():
    # so(3), as in test_algebra's test_so3_not_nilpotent; the CLI maps the
    # error of a limit that left the nilpotent cone to exit 3
    c = np.zeros((3, 3, 3))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    with pytest.raises(NotNilpotentError):
        orbit_invariants(Bracket(c))


@pytest.mark.parametrize("scale", [1e80, 1e-80])
def test_orbit_invariants_out_of_range_raise(scale):
    # tr Ric^2 overflowed with a RuntimeWarning at 1e80 and read a subnormal at 1e-80
    with pytest.raises(BadNormalization, match="rescale explicitly"):
        orbit_invariants(heisenberg(scale))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_orbit_invariants_are_invariant(seed):
    rng = np.random.default_rng(seed)
    b = random_two_step(4, rng)
    q = random_orthogonal(4, rng)
    a = orbit_invariants(b)
    c = orbit_invariants(gl_action(q, b))
    assert a["degree"] == c["degree"]
    assert a["series_dims"] == c["series_dims"]
    assert np.allclose(a["ricci_spectrum"], c["ricci_spectrum"], atol=1e-9)
    assert a["mu_norm"] == pytest.approx(c["mu_norm"], rel=1e-10)
