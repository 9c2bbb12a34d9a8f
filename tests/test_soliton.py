"""Soliton certificates, convergence detection, and orbit invariants."""

import json
import math

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
from nilflow import algebra
from nilflow.algebra import Bracket, delta, derivation_basis, gl_action
from nilflow.soliton import detect_convergence, orbit_invariants, pre_einstein_derivation, soliton_residual

from conftest import dense_starts, dixmier_lister, random_sphere_bracket, rotated_dixmier_lister


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
    assert long.decay_rate == pytest.approx(-2.5, abs=1e-6)


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
        "certificate", "converged", "decay_rate", "limit_in_orbit", "pre_einstein_residual", "predicted_r_limit",
        "r_limit", "rate_gap", "reason",
    ]
    assert doc["certificate"] == report.certificate.to_dict()


def test_decay_rate_is_negative_when_fitted():
    b = sphere_perturbation(rescale_to_norm(filiform(4)), np.random.default_rng(4), eps=0.25)
    report = detect_convergence(integrate_normalized_flow(b, 40.0))
    assert report.decay_rate == pytest.approx(-2.5, abs=1e-6)


def _gl_moved(b, seed):
    n = b.n
    return gl_action(np.eye(n) + 0.5 * np.random.default_rng(seed).standard_normal((n, n)), b)


def _rotated_two_step(n, seed):
    rng = np.random.default_rng(seed)
    b = random_two_step(n, rng)
    return gl_action(random_orthogonal(n, rng), b)


# de Graaf's L4,3, L5,4 and L5,9 in their own bases
_L43 = Bracket.from_entries(4, {(0, 1, 2): 1.0, (0, 2, 3): 1.0})
_L54 = Bracket.from_entries(5, {(0, 1, 4): 1.0, (2, 3, 4): 1.0})
_L59 = Bracket.from_entries(5, {(0, 1, 2): 1.0, (0, 2, 3): 1.0, (1, 2, 4): 1.0})


@pytest.mark.parametrize(
    ("start", "rate"),
    [
        (sphere_perturbation(rescale_to_norm(filiform(5)), np.random.default_rng(0)), -1.0),
        (sphere_perturbation(rescale_to_norm(filiform(6)), np.random.default_rng(0)), -1.0 / 2.0),
        (_rotated_two_step(7, 3), -2.0 / 3.0),
        (_L43, -5.0 / 2.0),
        (_gl_moved(_L43, 1), -5.0 / 2.0),
        (_L54, -2.0),
        (_gl_moved(_L54, 1), -2.0),
        (_L59, -6.0 / 5.0),
        (_gl_moved(_L59, 1), -6.0 / 5.0),
        # every bracket of a soliton orbit on the sphere is a soliton: no rate
        (sphere_perturbation(rescale_to_norm(heisenberg()), np.random.default_rng(1)), math.nan),
        (random_two_step(4, np.random.default_rng(2)), math.nan),
    ],
    ids=["filiform5", "filiform6", "rotated_two_step7", "L43", "L43_moved", "L54", "L54_moved", "L59",
         "L59_moved", "heisenberg", "two_step4"],
)
def test_decay_rate_is_the_slowest_rate_of_the_linearization(start, rate):
    # the rate is read off the integrator's Jacobian at the limit; a GL move
    # changes the start, not the algebra's rate
    report = detect_convergence(integrate_normalized_flow(rescale_to_norm(start), 60.0))
    assert report.converged, report.reason
    if math.isnan(rate):
        assert math.isnan(report.decay_rate) and not report.rate_gap > 1e3
    else:
        assert report.decay_rate == pytest.approx(rate, abs=1e-6)
        assert report.rate_gap > 1e3


# ---------------------------------------------------------------------------
# the pre-Einstein derivation


@pytest.mark.parametrize(
    "start, tr_phi",
    [(heisenberg(), 8 / 3), (filiform(5), 25 / 6), (filiform(6), 56 / 11), (filiform(7), 224 / 37),
     # characteristically nilpotent: every derivation is nilpotent
     (dixmier_lister(), 0.0)],
    ids=["h3", "filiform5", "filiform6", "filiform7", "dixmier_lister"],
)
def test_pre_einstein_trace(start, tr_phi):
    phi, trace, residual, gap = pre_einstein_derivation(start)
    assert trace == pytest.approx(tr_phi, abs=1e-12)
    assert residual <= 1e-12 and gap > 1e6
    assert np.trace(phi) == pytest.approx(trace, abs=1e-12)
    # tr(phi psi) = tr psi on every derivation psi
    for psi in derivation_basis(start):
        assert np.trace(phi @ psi) == pytest.approx(np.trace(psi), abs=1e-12)


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_pre_einstein_derivation_is_zero_where_every_derivation_is_nilpotent(seed):
    # Dixmier-Lister, in its own basis and rotated: G is rounding noise, at
    # most 1.4e-15, where lstsq's relative cutoff fitted |phi| = 0.49, 7.1
    # and 48.5 and tr phi = 4e-18, 1.2e-14 and 6.4e-14; the absolute cutoff
    # keeps nothing, and the gap to it is wide
    start = dixmier_lister() if seed is None else rotated_dixmier_lister(seed)
    phi, trace, residual, gap = pre_einstein_derivation(start)
    assert np.all(phi == 0.0) and trace == 0.0
    assert residual <= 1e-14 and gap > 1e6


@pytest.mark.parametrize("start", [heisenberg(), filiform(5), filiform(6)], ids=["h3", "filiform5", "filiform6"])
def test_pre_einstein_derivation_predicts_the_normalized_limit(start):
    # the orbit holds a nilsoliton, so tr Ric^2 -> 1 / (n - tr phi) on ||mu|| = 2
    limit = integrate_normalized_flow(rescale_to_norm(start), 60.0).tr_ric2[-1]
    assert limit == pytest.approx(1.0 / (start.n - pre_einstein_derivation(start)[1]), rel=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_the_report_finds_each_limit_in_its_orbit(n):
    # rotated dense starts and a perturbed filiform: each orbit holds a
    # nilsoliton, so the limit is the one tr phi of the start predicts
    perturbed = sphere_perturbation(rescale_to_norm(filiform(n)), np.random.default_rng(50 + n))
    starts = dense_starts(n, 40 + n)[:2] + [perturbed]
    for start in starts:
        report = detect_convergence(integrate_normalized_flow(rescale_to_norm(start), 60.0))
        assert report.limit_in_orbit, report
        assert report.r_limit == pytest.approx(report.predicted_r_limit, rel=1e-9)
        assert report.pre_einstein_residual <= 1e-12


def test_the_report_flags_a_limit_outside_the_orbit():
    # the Dixmier-Lister orbit holds no nilsoliton: tr phi = 0 predicts 1/8,
    # and the flow, which converges nowhere, reads 0.68 at T = 27; its
    # certificate fails there, so the verdict is undecided, not False
    report = detect_convergence(integrate_normalized_flow(rescale_to_norm(dixmier_lister()), 27.0))
    assert report.predicted_r_limit == 1.0 / 8.0
    assert report.r_limit > 0.6 and not report.converged
    assert report.limit_in_orbit is None and report.to_dict()["limit_in_orbit"] is None


def test_the_oracle_reads_the_start_the_flow_factored(monkeypatch):
    # the trace holds its start, so the report reuses the derivations the
    # flow built: one SVD of the delta matrix per fresh start, not two
    factored = []
    delta_matrix = algebra._delta_matrix
    monkeypatch.setattr(algebra, "_delta_matrix", lambda c: factored.append(c) or delta_matrix(c))
    start = sphere_perturbation(rescale_to_norm(filiform(5)), np.random.default_rng(3))
    trace = integrate_normalized_flow(start, 5.0)
    assert trace.initial_bracket is start
    report = detect_convergence(trace)
    # the fields are computed on first read; filiform(5) has tr phi = 25/6
    assert report.initial_bracket is start and report.predicted_r_limit == pytest.approx(6.0 / 5.0, rel=1e-12)
    assert len(factored) == 1


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
