"""Integration of the bracket flows: exact solutions, invariants, companions."""

import numpy as np
import pytest

from nilflow.algebra import central_series_dims, derivation_basis, gl_action, jacobiator_residual
from nilflow.curvature import ricci_energy, ricci_operator
from nilflow.exceptions import BadNormalization, ConfigError, NumericalFailure, TooFewSamples
from nilflow.flow import (
    FlowOpts,
    cointegrate_h,
    equivalence_report,
    innerproduct_scal,
    integrate_bracket_flow,
    integrate_innerproduct_flow,
    integrate_normalized_flow,
    integrate_r_normalized,
    trace_from_csv,
    type3_certificate,
    verify_flow_identities,
)
from nilflow.generators import filiform, heisenberg, random_nilpotent, rescale_to_norm, sphere_perturbation
from nilflow.soliton import detect_convergence

from conftest import dixmier_lister, random_sphere_bracket


# ---------------------------------------------------------------------------
# unnormalized flow


def test_heisenberg_exact_solution(heis):
    # c(t)^2 = c0^2 / (1 + 3 c0^2 t), a closed-form solution of the flow
    trace = integrate_bracket_flow(heis, 10.0, FlowOpts(stops=(0.1, 1.0)))
    for t in (0.1, 1.0, 10.0):
        b = trace.brackets[trace.index_of_time(t)]
        assert b.coeffs[0, 1, 2] ** 2 == pytest.approx(1.0 / (1.0 + 3.0 * t), rel=1e-8)


def test_heisenberg_form_is_preserved(heis):
    trace = integrate_bracket_flow(heis, 5.0)
    final = trace.final_bracket.coeffs.copy()
    final[0, 1, 2] = 0.0
    final[1, 0, 2] = 0.0
    # mu = h.mu0 is computed from the frame, so off-family entries are rounding
    bound = np.finfo(float).eps * trace.final_bracket.norm
    assert np.abs(final).max() <= bound, "flow left the one-parameter Heisenberg family"


def test_norm_decays_and_scal_rises(rng):
    b = random_sphere_bracket(4, 17)
    trace = integrate_bracket_flow(b, 3.0)
    assert np.all(np.diff(trace.mu_norm) < 0.0)
    assert np.all(np.diff(trace.scal) > 0.0)
    assert np.all(trace.scal < 0.0)


def test_rtol_controls_terminal_error(heis):
    exact = 1.0 / np.sqrt(1.0 + 30.0)
    errs = []
    for rtol in (1e-6, 1e-9):
        trace = integrate_bracket_flow(heis, 10.0, FlowOpts(rtol=rtol, atol=rtol))
        errs.append(abs(trace.final_bracket.coeffs[0, 1, 2] - exact) / exact)
    assert errs[0] < 1e-4 and errs[1] < 1e-7
    assert errs[1] < errs[0]


def test_stops_give_exact_sample_times(heis):
    trace = integrate_bracket_flow(heis, 2.0, FlowOpts(stops=(0.25, 1.0, 1.75)))
    for t in (0.0, 0.25, 1.0, 1.75, 2.0):
        i = trace.index_of_time(t)
        assert trace.times[i] == pytest.approx(t, abs=1e-12)
    with pytest.raises(KeyError):
        trace.index_of_time(0.37)


def test_sample_thinning_keeps_endpoints(heis):
    trace = integrate_bracket_flow(heis, 1.0, FlowOpts(max_step=1e-3, max_samples=128))
    assert len(trace) <= 128
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(trace.times) > 0.0)


def test_flow_stays_on_jacobi_variety():
    b = random_sphere_bracket(5, 23)
    trace = integrate_bracket_flow(b, 2.0)
    assert max(jacobiator_residual(bb) for bb in trace.brackets) < 1e-10


@pytest.mark.parametrize("field", ["rtol", "atol"])
@pytest.mark.parametrize("value", [0.0, -1e-9, float("nan"), float("inf")])
def test_tolerances_must_be_finite_and_positive(field, value):
    # atol = 0 would give a nan initial step and a step loop that never ends
    with pytest.raises(ConfigError, match="finite and > 0"):
        FlowOpts(**{field: value})


def test_trace_stats_are_reported(heis):
    trace = integrate_bracket_flow(heis, 1.0)
    stats = trace.stats
    assert stats["accepted"] >= 1
    # FSAL reuses the last stage, so ~6 fresh evaluations per step
    assert stats["nfev"] >= 6 * stats["accepted"]
    assert stats["t_final"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# first-order identities along the flow


@pytest.mark.parametrize("seed", [3, 41, 99])
def test_diagnostic_identities_random_two_step(seed):
    b = random_sphere_bracket(5, seed)
    trace = integrate_bracket_flow(b, 1.0, FlowOpts(max_step=0.01))
    report = verify_flow_identities(trace)
    assert report.ok, (
        f"scal rate off by {report.max_rel_err_scal:.2e}, "
        f"norm rate off by {report.max_rel_err_norm:.2e}"
    )
    assert report.max_rel_err_scal < 1e-4
    assert report.max_rel_err_norm < 1e-4


def test_diagnostic_identities_filiform():
    trace = integrate_bracket_flow(filiform(5), 1.0, FlowOpts(max_step=0.01))
    report = verify_flow_identities(trace)
    assert report.max_rel_err_scal < 1e-4 and report.max_rel_err_norm < 1e-4


def test_identities_need_enough_samples(heis):
    trace = integrate_bracket_flow(heis, 1e-8)
    assert len(trace) == 2
    with pytest.raises(TooFewSamples):
        verify_flow_identities(trace)


def test_identities_reject_normalized_traces(heis_sphere):
    trace = integrate_normalized_flow(heis_sphere, 0.5)
    with pytest.raises(ValueError):
        verify_flow_identities(trace)


def test_identities_accept_zero_rate_traces(heis):
    trace = integrate_r_normalized(heis, 0.0, 1.0, FlowOpts(max_step=0.02))
    assert verify_flow_identities(trace).ok


# ---------------------------------------------------------------------------
# long-time curvature decay


@pytest.mark.parametrize("seed", [5, 29])
def test_long_time_decay_certificate(seed):
    b = random_sphere_bracket(4, seed)
    trace = integrate_bracket_flow(b, 50.0)
    report = type3_certificate(trace)
    assert report.norm_bound_ok, f"sup t ||mu||^2 ratio {report.sup_norm_ratio:.3f}"
    assert report.ricci_bound_ok, f"t ||Ric|| ratio {report.ricci_bound_ratio:.3f}"
    assert 0.0 < report.sup_norm_ratio <= 1.0 + 1e-9
    assert 0.0 < report.ricci_bound_ratio <= 1.0 + 1e-9
    assert report.sup_t_riemann > 0.0
    doc = report.to_dict()
    assert set(doc) >= {"sup_t_riemann", "sup_t_ricci", "sup_norm_ratio"}


def test_decay_certificate_rejects_normalized(heis, heis_sphere):
    # the type-III theorem needs r = 0; a constant rate is rejected too
    for trace in (integrate_normalized_flow(heis_sphere, 0.5), integrate_r_normalized(heis, 0.5, 1.0)):
        with pytest.raises(ValueError):
            type3_certificate(trace)


# ---------------------------------------------------------------------------
# normalized flow on the sphere


def test_normalized_flow_requires_the_sphere(heis):
    with pytest.raises(BadNormalization, match="rescale"):
        integrate_normalized_flow(heis, 1.0)


def test_normalized_flow_preserves_sphere_and_decreases_energy(heis_sphere):
    b = sphere_perturbation(heis_sphere, np.random.default_rng(8), eps=0.2)
    trace = integrate_normalized_flow(b, 10.0)
    assert np.abs(trace.mu_norm - 2.0).max() < 1e-14
    assert np.abs(trace.scal + 1.0).max() < 1e-14
    assert trace.stats["renormalizations"] == 0
    increases = np.diff(trace.tr_ric2)
    assert increases.max() < 1e-10, "energy must not increase along the gradient flow"


def test_long_normalized_run_stays_nilpotent():
    b = sphere_perturbation(rescale_to_norm(heisenberg()), np.random.default_rng(3), eps=0.3)
    trace = integrate_normalized_flow(b, 50.0)
    assert trace.jacobi_residual.max() < 1e-8
    spectrum = np.sort(np.linalg.eigvalsh(
        -np.einsum("iak,ibk->ab", *(2 * [trace.final_bracket.coeffs])) / 2
        + np.einsum("ija,ijb->ab", *(2 * [trace.final_bracket.coeffs])) / 4
    ))
    assert np.allclose(spectrum, [-1.0, -1.0, 1.0], atol=1e-6)


_rng = np.random.default_rng


@pytest.mark.parametrize(
    "b, exact",
    [
        (rescale_to_norm(random_nilpotent(5, _rng(7))), 2.0),
        (sphere_perturbation(rescale_to_norm(filiform(5)), _rng(1)), 6 / 5),
        (sphere_perturbation(rescale_to_norm(filiform(6)), _rng(2)), 11 / 10),
        (rescale_to_norm(random_nilpotent(6, _rng(5))), 3 / 2),
        (rescale_to_norm(random_nilpotent(7, _rng(3))), 4 / 3),
        (rescale_to_norm(random_nilpotent(8, _rng(4))), 7 / 6),
    ],
    ids=[
        "rotated_h5",
        "perturbed_filiform5",
        "perturbed_filiform6",
        "rotated_2step6",
        "rotated_2step7",
        "rotated_2step8",
    ],
)
def test_normalized_limit_stays_in_orbit_closure(b, exact):
    # rotated and GL-perturbed starts whose nilsoliton lies in their own orbit:
    # the limit energy is the exact soliton value and the limit keeps the
    # start's central series and derivation count
    trace = integrate_normalized_flow(b, 60.0)
    limit = trace.final_bracket
    assert trace.tr_ric2[-1] == pytest.approx(exact, abs=1e-9)
    assert detect_convergence(trace).converged
    assert central_series_dims(limit) == central_series_dims(b)
    assert len(derivation_basis(limit)) == len(derivation_basis(b))


def test_orbit_without_a_soliton_fails_numerically():
    # the limit of the Dixmier-Lister start leaves its orbit, so cond(h) grows
    # without bound; that must end in a NumericalFailure, never a LinAlgError
    with pytest.raises(NumericalFailure):
        integrate_normalized_flow(rescale_to_norm(dixmier_lister()), 60.0)


# ---------------------------------------------------------------------------
# constant- and callable-rate variants


def test_zero_rate_reproduces_unnormalized_bitwise(heis):
    a = integrate_bracket_flow(heis, 2.0)
    b = integrate_r_normalized(heis, None, 2.0)
    assert np.array_equal(a.times, b.times)
    assert all(np.array_equal(x.coeffs, y.coeffs) for x, y in zip(a.brackets, b.brackets))
    assert b.kind == "r"


def test_constant_rate_equilibrium():
    # mu' = delta(Ric) + r mu fixes the Heisenberg bracket with c = sqrt(2r/3)
    r = 1.5
    b = heisenberg(np.sqrt(2.0 * r / 3.0))
    trace = integrate_r_normalized(b, r, 5.0)
    drift = max(np.abs(bb.coeffs - b.coeffs).max() for bb in trace.brackets)
    assert drift < 1e-11, f"equilibrium drifted by {drift:.2e}"
    assert np.all(trace.r_values == r)


def test_callable_rate_records_values(heis_sphere):
    # "scalar" is the same rate tr Ric^2, of mu itself rather than of mu
    # rescaled onto the sphere as in integrate_normalized_flow
    for r in (ricci_energy, "scalar"):
        trace = integrate_r_normalized(heis_sphere, r, 1.0)
        assert np.allclose(trace.r_values, trace.tr_ric2, rtol=1e-12)


def test_bad_rate_type_raises(heis):
    with pytest.raises(TypeError):
        integrate_r_normalized(heis, "fast", 1.0)


# ---------------------------------------------------------------------------
# the companion frame h(t) and the fixed-bracket metric flow


@pytest.mark.parametrize("normalized", [False, True])
def test_stored_frames_pull_the_bracket(normalized):
    b0 = rescale_to_norm(random_nilpotent(5, _rng(7)))
    flow = integrate_normalized_flow if normalized else integrate_bracket_flow
    trace = flow(b0, 5.0)
    assert np.array_equal(trace.frames[0], np.eye(5))
    for h, b in zip(trace.frames, trace.brackets):
        assert np.abs(gl_action(h, b0).coeffs - b.coeffs).max() <= 1e-14


@pytest.mark.parametrize(
    "normalized, opts",
    [
        pytest.param(False, FlowOpts(), id="False"),
        pytest.param(True, FlowOpts(), id="True"),
        # 400 steps kept in at most 128 samples: sample times are not steps
        pytest.param(True, FlowOpts(max_step=0.005, max_samples=128), id="thinned"),
    ],
)
def test_cointegrated_frame_pulls_the_bracket(normalized, opts, heis_sphere):
    b0 = sphere_perturbation(heis_sphere, np.random.default_rng(5), eps=0.2)
    if normalized:
        trace = integrate_normalized_flow(b0, 2.0, opts)
    else:
        trace = integrate_bracket_flow(b0, 2.0, opts)
    assert len(trace) <= opts.max_samples
    hs = cointegrate_h(trace)
    assert np.array_equal(hs[0], np.eye(3))
    for i in (len(trace) // 2, len(trace) - 1):
        pulled = gl_action(hs[i], b0)
        rel = np.linalg.norm(pulled.coeffs - trace.brackets[i].coeffs) / trace.mu_norm[i]
        assert rel < 1e-5, f"pullback residual {rel:.2e} at sample {i}"


@pytest.mark.parametrize("normalized", [False, True])
def test_cointegrated_frame_solves_its_equation(normalized):
    # h' = -(Ric + r I) h by central differences; a normalized trace needs the
    # normalized generator here too, or the repelling sphere shows by t = 10
    b0 = sphere_perturbation(rescale_to_norm(filiform(4)), _rng(1))
    flow = integrate_normalized_flow if normalized else integrate_bracket_flow
    trace = flow(b0, 10.0, FlowOpts(max_step=0.02))
    hs = cointegrate_h(trace)
    t = trace.times
    for i in range(1, len(trace) - 1):
        dh = (hs[i + 1] - hs[i - 1]) / (t[i + 1] - t[i - 1])
        ric = ricci_operator(trace.brackets[i])
        rhs = -(ric + trace.r_values[i] * np.eye(4)) @ hs[i]
        assert np.linalg.norm(dh - rhs) / np.linalg.norm(rhs) < 1e-2


def test_gl_action_accepts_ill_conditioned_cointegrated_frames():
    # cond(h) reaches ~3.6e3 by t = 5; on the last frames rounding in the moved
    # coefficients exceeds the skew check unless gl_action antisymmetrizes them
    b = rescale_to_norm(random_nilpotent(5, _rng(7)))
    trace = integrate_normalized_flow(b, 5.0)
    hs = cointegrate_h(trace)
    assert np.linalg.cond(hs[-1]) > 1e3
    for h, mu in zip(hs, trace.brackets):
        # a(t) is an automorphism to the integration tolerance, amplified by cond(h)
        assert np.linalg.norm(gl_action(h, b).coeffs - mu.coeffs) / mu.norm < 1e-6


def test_innerproduct_flow_matches_exact_scal(heis):
    ip = integrate_innerproduct_flow(heis, 1.0)
    g = ip.metrics[ip.index_of_time(1.0)]
    # along the Heisenberg solution scal(t) = -c0^2 / (2 (1 + 3 c0^2 t))
    assert innerproduct_scal(heis, g) == pytest.approx(-0.125, rel=1e-8)
    assert np.allclose(g, g.T)
    assert np.all(np.linalg.eigvalsh(g) > 0.0)


def test_innerproduct_flow_rejects_unknown_string(heis):
    # a callable rate would be evaluated on (L^T).mu_0, not on mu(t)
    for r in ("best", ricci_energy):
        with pytest.raises(ValueError):
            integrate_innerproduct_flow(heis, 1.0, r=r)


def test_scalar_normalized_innerproduct_flow(heis_sphere):
    ip = integrate_innerproduct_flow(heis_sphere, 2.0, r="scalar")
    g = ip.metrics[-1]
    assert innerproduct_scal(heis_sphere, g) == pytest.approx(-1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# the three presentations agree


def test_equivalence_unnormalized(heis_sphere):
    rep = equivalence_report(heis_sphere, 2.0, checkpoints=11)
    assert rep.ok(1e-5), rep.to_dict()


def test_equivalence_filiform():
    rep = equivalence_report(rescale_to_norm(filiform(4)), 2.0, checkpoints=11)
    assert rep.ok(1e-5), rep.to_dict()


def test_equivalence_normalized(heis_sphere):
    b = sphere_perturbation(heis_sphere, np.random.default_rng(2), eps=0.2)
    # short horizon: the metric flow evaluates the rate on the metric itself,
    # so its distance to the scal = -1 slice grows like exp(2 tr(Ric^2) t)
    rep = equivalence_report(b, 1.0, FlowOpts(max_step=0.1), r="scalar", checkpoints=11)
    assert rep.ok(1e-5), rep.to_dict()


def test_equivalence_constant_rate(heis_sphere):
    rep = equivalence_report(heis_sphere, 1.0, r=0.5, checkpoints=6)
    assert rep.ok(1e-5), rep.to_dict()


def test_equivalence_rejects_callable(heis_sphere):
    with pytest.raises(TypeError):
        equivalence_report(heis_sphere, 1.0, r=lambda b: 0.0)


# ---------------------------------------------------------------------------
# trace serialization


def test_trace_csv_round_trip(tmp_path, heis):
    trace = integrate_bracket_flow(heis, 1.0, FlowOpts(stops=(0.5,)))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    cols = trace_from_csv(path)
    assert np.array_equal(cols["t"], trace.times)
    assert np.array_equal(cols["mu_norm"], trace.mu_norm)
    assert np.array_equal(cols["scal"], trace.scal)
    assert np.array_equal(cols["r"], trace.r_values)


def test_trace_snapshots_round_trip(tmp_path, heis):
    import json

    from nilflow.algebra import bracket_from_dict

    trace = integrate_bracket_flow(heis, 1.0)
    path = tmp_path / "snaps.json"
    trace.snapshots_to_json(path)
    doc = json.loads(path.read_text())
    assert doc["kind"] == "unnormalized"
    assert len(doc["snapshots"]) == len(trace)
    last = bracket_from_dict(doc["snapshots"][-1]["bracket"])
    assert np.allclose(last.coeffs, trace.final_bracket.coeffs, atol=1e-15)
