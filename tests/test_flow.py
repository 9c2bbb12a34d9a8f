"""Integration of the bracket flows: exact solutions, invariants, companions."""

import math
import re

import numpy as np
import pytest

from nilflow import flow
from nilflow.algebra import (
    Bracket,
    _gl_action_coeffs,
    central_series_dims,
    derivation_basis,
    gl_action,
    jacobiator_residual,
)
from nilflow.curvature import (
    _ricci,
    _tr_ric2,
    ricci_energy,
    ricci_energy_gradient,
    ricci_operator,
    riemann_at_origin,
    scalar_curvature,
)
from nilflow.exceptions import (
    BadNormalization,
    BadRate,
    ConfigError,
    DimensionMismatch,
    NumericalFailure,
    SingularMatrix,
    StepSizeUnderflow,
    TooFewSamples,
)
from nilflow.flow import (
    FlowOpts,
    cointegrate_h,
    equivalence_report,
    innerproduct_scal,
    integrate_bracket_flow,
    integrate_innerproduct_flow,
    integrate_normalized_flow,
    trace_from_csv,
    type3_certificate,
    verify_flow_identities,
)
from nilflow.generators import (
    filiform,
    heisenberg,
    random_nilpotent,
    random_orthogonal,
    random_two_step,
    rescale_to_norm,
    sphere_perturbation,
)
from nilflow.soliton import detect_convergence

from conftest import dense_starts, dixmier_lister, random_sphere_bracket, rotated_dixmier_lister


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


@pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_time_is_no_sample(heis, t):
    # both used to find the start sample: nan compares as nothing, and inf
    # got an infinite tolerance
    for samples in (integrate_bracket_flow(heis, 1.0), integrate_innerproduct_flow(heis, 1.0)):
        with pytest.raises(KeyError):
            samples.index_of_time(t)


@pytest.fixture
def cap_128(monkeypatch):
    """Thin traces past 128 samples instead of 8192."""
    monkeypatch.setattr(flow, "_MAX_SAMPLES", 128)


def test_sample_thinning_keeps_endpoints(heis, cap_128):
    trace = integrate_bracket_flow(heis, 1.0, FlowOpts(max_step=1e-3))
    assert len(trace) <= 128
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(trace.times) > 0.0)


def test_thinning_keeps_stop_samples(heis, cap_128):
    # 1,000 steps thinned into at most 128 samples used to halve the stops away too
    stops = (0.5, 7.3)
    trace = integrate_bracket_flow(heis, 10.0, FlowOpts(max_step=1e-2, stops=stops))
    assert len(trace) <= 128
    for t in stops:
        assert trace.times[trace.index_of_time(t)] == t
    assert trace.times[-1] == 10.0


def test_thinning_keeps_the_whole_run_evenly_sampled(heis, cap_128):
    # every stretch of the run keeps samples, not only its start and its end
    trace = integrate_bracket_flow(heis, 10.0, FlowOpts(max_step=1e-2))
    assert len(trace) <= 128
    for lo in np.arange(0.0, 10.0, 0.5):
        assert np.any((trace.times >= lo) & (trace.times <= lo + 0.5)), f"no sample in [{lo}, {lo + 0.5}]"


def test_thinning_more_stops_than_samples_thins_logarithmically(heis, monkeypatch, cap_128):
    # 4,000 stops never fit in 128 samples, so thinning cannot reach the cap;
    # it must still stop once the stride passes the step count
    calls = []
    original = flow._thin

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(flow, "_thin", counting)
    stops = tuple(np.linspace(0.0, 10.0, 4002)[1:-1])
    trace = integrate_bracket_flow(heis, 10.0, FlowOpts(max_step=1e-2, stops=stops))
    assert len(calls) <= math.ceil(math.log2(trace.stats["accepted"]))
    assert all(trace.times[trace.index_of_time(t)] == t for t in stops)


def test_off_step_stops_are_continuous_extension_samples(heis):
    # stops no longer end steps: the run takes the same steps as without them,
    # and each stop is one more sample, from the continuous extension
    stops = (0.37, 2.71)
    plain = integrate_bracket_flow(heis, 5.0)
    trace = integrate_bracket_flow(heis, 5.0, FlowOpts(stops=stops))
    assert trace.stats["accepted"] == plain.stats["accepted"]
    assert len(trace) == len(plain) + len(stops)
    at_steps = np.isin(trace.times, plain.times)
    assert np.array_equal(trace.frames[at_steps], plain.frames)
    for t in stops:
        assert np.count_nonzero(trace.times == t) == 1
        c = trace.coeffs[trace.index_of_time(t), 0, 1, 2]
        assert c**2 == pytest.approx(1.0 / (1.0 + 3.0 * t), rel=1e-8)


def _reference_dp_step(f, t, y, h):
    """The Dormand-Prince step as per-stage sums in plain Python."""
    a = (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
    c = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
    bhat = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
    k = [f(t, y)]
    for i in range(1, 7):
        k.append(f(t + c[i] * h, y + h * sum(ai * ki for ai, ki in zip(a[i], k))))
    y_new = y + h * sum(ai * ki for ai, ki in zip(a[6], k))
    err = h * sum((b - bh) * ki for b, bh, ki in zip(a[6] + (0.0,), bhat, k))
    return y_new, err


def test_stage_array_step_matches_per_stage_sums():
    # only the summation order changed, so a step agrees to rounding
    def f(t, y):
        return np.sin(y) * y[::-1] - 0.3 * (1.0 + t) * y

    t, h = 0.4, 0.15
    y = np.linspace(-1.0, 2.0, 9)
    K = np.empty((7, y.size))
    K[0] = f(t, y)
    y_new, err = flow._dp_step(f, t, y, h, K)
    ref_y, ref_err = _reference_dp_step(f, t, y, h)
    np.testing.assert_allclose(y_new, ref_y, rtol=1e-14, atol=0.0)
    # the error weights cancel: compare relative to the size of the summed terms
    scale = h * np.abs(flow._DP_E) @ np.abs(K)
    assert np.all(np.abs(err - ref_err) <= 1e-14 * scale)
    assert np.abs(err).max() > 0.0
    np.testing.assert_allclose(K[6], f(t + h, y_new), rtol=1e-14)
    # the continuous extension starts at y and ends at y_new
    np.testing.assert_allclose(flow._dp_dense(y, h, K, 0.0), y, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(flow._dp_dense(y, h, K, 1.0), y_new, rtol=1e-14, atol=0.0)


def _reference_generator(b0, r, h):
    """h -> (h', D) of the frame flow from public functions: D is the
    least-squares projection of h^{-1} X h onto the span of derivation_basis(b0);
    the scalar rate evaluates Ric and the rate on mu rescaled to ||b0||."""
    n = b0.n
    mu = gl_action(h, b0)
    if r == "scalar":
        mu = rescale_to_norm(mu, b0.norm)
    ric = ricci_operator(mu)
    rate = 0.0 if r is None else ricci_energy(mu) if r == "scalar" else r
    x = ric + rate * np.eye(n)
    y = np.linalg.solve(h, x @ h)
    basis = np.array([e.reshape(-1) for e in derivation_basis(b0)])
    coef = np.linalg.lstsq(basis.T, y.reshape(-1), rcond=None)[0]
    d = (basis.T @ coef).reshape(n, n)
    return h @ d - x @ h, d


def _assert_kernel_is_bitwise_the_stacked_path(b0, r, h):
    """The single-frame kernel of the right sides equals _gl_action_coeffs and
    _ricci, the kernels of stacked frames, bit for bit."""
    hinv = np.linalg.inv(h)
    c = _gl_action_coeffs(h, hinv, b0.coeffs)
    ref = _ricci(c)
    if r == "scalar":
        ref *= np.vdot(b0.coeffs, b0.coeffs) / np.vdot(c, c)
        ref.reshape(-1)[:: b0.n + 1] += _tr_ric2(ref)
    else:
        ref.reshape(-1)[:: b0.n + 1] += 0.0 if r is None else r
    assert np.array_equal(flow._shifted_ricci(b0, r)(h, hinv), ref)


@pytest.mark.parametrize("r", [None, 0.7, "scalar"], ids=["unnormalized", "constant", "normalized"])
@pytest.mark.parametrize("n", range(3, 9))
def test_frame_generator_matches_public_functions(n, r):
    rng = np.random.default_rng(200 + n)
    for b0 in dense_starts(n, 300 + n):
        if r == "scalar":
            b0 = rescale_to_norm(b0)
        rhs = flow._frame_generator(b0, r)
        for _ in range(2):
            # cond(h) <= 4
            h = random_orthogonal(n, rng) @ np.diag(rng.uniform(0.5, 2.0, n)) @ random_orthogonal(n, rng)
            _assert_kernel_is_bitwise_the_stacked_path(b0, r, h)
            dh = rhs(0.0, h.reshape(-1)).reshape(n, n)
            ref_dh, ref_d = _reference_generator(b0, r, h)
            # h' = h D - X h cancels at a soliton: compare relative to its terms
            assert np.abs(dh - ref_dh).max() <= 1e-12 * np.abs(h @ ref_d).max()


@pytest.mark.parametrize("r", [None, 0.5, "scalar"], ids=["unnormalized", "constant", "scalar"])
@pytest.mark.parametrize("n", range(3, 9))
def test_metric_flow_matches_public_functions(n, r):
    # the factor's right side, mapped to G' = L' L^T + L L'^T, is -2 ric(G) - 2 r G;
    # the scalar rate evaluates ric and the rate on the pushed bracket rescaled to ||b0||
    rng = np.random.default_rng(400 + n)
    lower = np.tri(n, dtype=bool)
    for b0 in dense_starts(n, 500 + n):
        if r == "scalar":
            b0 = rescale_to_norm(b0)
        rhs, factor = flow._metric_flow(b0, r)
        for _ in range(2):
            # cond(L) <= 4
            upper = np.linalg.qr(random_orthogonal(n, rng) @ np.diag(rng.uniform(0.5, 2.0, n)))[1]
            lmat = upper.T * np.sign(np.diag(upper))
            _assert_kernel_is_bitwise_the_stacked_path(b0, r, lmat.T)
            state = lmat.copy()
            state[np.diag_indices(n)] = np.log(np.diag(lmat))
            state = state[lower]
            np.testing.assert_allclose(factor(state), lmat, rtol=1e-14, atol=1e-15)
            dl = np.zeros((n, n))
            dl[lower] = rhs(0.0, state)
            dl[np.diag_indices(n)] *= np.diag(lmat)
            mu = gl_action(lmat.T, b0)
            if r == "scalar":
                mu = rescale_to_norm(mu, b0.norm)
            rate = 0.0 if r is None else ricci_energy(mu) if r == "scalar" else r
            g = lmat @ lmat.T
            ref = -2.0 * lmat @ ricci_operator(mu) @ lmat.T - 2.0 * rate * g
            dg = dl @ lmat.T + lmat @ dl.T
            assert np.abs(dg - ref).max() <= 1e-12 * np.abs(ref).max()


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


def test_max_step_must_be_positive():
    # min(h, nan) keeps h, so a nan max_step used to be ignored
    for value in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match="max_step"):
            FlowOpts(max_step=value)


@pytest.mark.parametrize(
    "stops", [(float("nan"),), (1.0, float("inf")), ("a",), (True,), ((1.0, 2.0),), ((1.0,), 2.0)],
    ids=["nan", "inf", "string", "bool", "nested", "ragged"],
)
def test_stops_must_be_finite_real_numbers(stops):
    # a nan stop was dropped silently, a string failed in the sort of the run
    with pytest.raises(ConfigError, match="stops"):
        FlowOpts(stops=stops)


@pytest.mark.parametrize("t_max", [float("inf"), float("nan"), -1.0], ids=["inf", "nan", "negative"])
@pytest.mark.parametrize(
    "flow",
    [
        integrate_bracket_flow,
        integrate_normalized_flow,
        lambda b, t: integrate_bracket_flow(b, t, r=0.5),
        integrate_innerproduct_flow,
    ],
    ids=["unnormalized", "normalized", "rate", "metric"],
)
def test_integration_span_must_be_finite_and_forward(flow, t_max, heis_sphere):
    # inf looped forever; nan and -1 gave a one-sample trace at t = 0
    with pytest.raises(ConfigError, match="finite time"):
        flow(heis_sphere, t_max)


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
        f"energy rate off by {report.max_rel_err_energy:.2e}"
    )
    assert report.max_rel_err_scal < 1e-4
    assert report.max_rel_err_energy < 1e-4


def test_diagnostic_identities_filiform():
    trace = integrate_bracket_flow(filiform(5), 1.0, FlowOpts(max_step=0.01))
    report = verify_flow_identities(trace)
    assert report.max_rel_err_scal < 1e-4 and report.max_rel_err_energy < 1e-4


def test_identities_check_two_independent_rates():
    # scal = -||mu||^2 / 4, so a ||mu||^2 identity would repeat the scal one to
    # the last bit; the energy identity differentiates tr Ric^2 instead
    trace = integrate_bracket_flow(random_sphere_bracket(5, 7), 1.0, FlowOpts(max_step=0.01))
    report = verify_flow_identities(trace)
    assert report.max_rel_err_energy != report.max_rel_err_scal


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
    trace = integrate_bracket_flow(heis, 1.0, FlowOpts(max_step=0.02), r=0.0)
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
    for trace in (integrate_normalized_flow(heis_sphere, 0.5), integrate_bracket_flow(heis, 1.0, r=0.5)):
        with pytest.raises(ValueError):
            type3_certificate(trace)


# ---------------------------------------------------------------------------
# normalized flow on the sphere


@pytest.mark.parametrize(
    "run",
    [
        lambda b: integrate_normalized_flow(b, 1.0),
        lambda b: integrate_bracket_flow(b, 1.0, r="scalar"),
        lambda b: integrate_innerproduct_flow(b, 1.0, r="scalar"),
        lambda b: equivalence_report(b, 1.0, r="scalar"),
    ],
    ids=["integrate_normalized_flow", "integrate_bracket_flow", "integrate_innerproduct_flow", "equivalence_report"],
)
def test_normalized_flow_requires_the_sphere(run, heis):
    # the scalar rate is the normalized flow wherever it is passed
    with pytest.raises(BadNormalization, match="rescale"):
        run(heis)


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


def test_condition_bound_ends_a_run_that_leaves_the_orbit():
    # past cond(h) = 1/sqrt(eps) the rounding of h.mu0 reaches the size of mu:
    # by t = 39 the unbounded run read tr Ric^2 = 3.0 instead of 15/22
    b = rescale_to_norm(dixmier_lister())
    assert integrate_normalized_flow(b, 20.0).tr_ric2[-1] == pytest.approx(15 / 22, abs=1e-5)
    with pytest.raises(NumericalFailure, match="cond") as info:
        integrate_normalized_flow(b, 39.0)
    accepted = info.value.trace
    assert 20.0 < accepted[-1][0] < 39.0
    assert np.linalg.cond(accepted[-1][1].reshape(8, 8)) <= 1.0 / np.sqrt(np.finfo(float).eps)
    # the step loop judges the frames, so a longer run ends at the same frame;
    # judged after the run, T = 60 went on to a singular frame at t = 56.05
    with pytest.raises(NumericalFailure) as longer:
        integrate_normalized_flow(b, 60.0)
    assert str(longer.value) == str(info.value) and "at t=28.4377 " in str(info.value)
    assert len(longer.value.trace) == len(accepted)


@pytest.mark.parametrize("seed", [1, 2, 11])
def test_skew_defect_ends_a_rotated_run_before_a_wrong_limit(seed):
    # a rotation is an isometry, yet with cond(h) under its bound these runs
    # returned tr Ric^2 = 0.68181xx at T = 20 and 0.15-0.16 at T = 27 against
    # 15/22; the skew part of h.mu0 shows the rounding damage from t ~ 14 on.
    # Judged in the step loop, the failure does not depend on t_max: judged on
    # the thinned samples after the run, seed 1 failed at t = 13.8201 with 133
    # samples to T = 20 and at t = 14.0004 with 67 to T = 27, after 8,000 steps
    b = rotated_dixmier_lister(seed)
    failures = []
    for t_max in (20.0, 27.0):
        with pytest.raises(NumericalFailure, match="skew defect") as info:
            integrate_normalized_flow(b, t_max)
        accepted = info.value.trace
        assert 10.0 < accepted[-1][0] < 15.0
        failures.append((str(info.value), len(accepted)))
    assert failures[0] == failures[1]


def test_a_negative_rate_ends_at_the_condition_bound(heis):
    # h grows without bound; judged after the run, T = 50 did not return (at
    # t = 41.3 it advanced 3.7e-4 per 1,000 evaluations), and r = -1e6 stood
    # at t = 1.3e-4 after 60,000 steps
    with pytest.raises(NumericalFailure, match=re.escape("cond(h) = 6.797e+07 at t=8.94968 ")):
        integrate_bracket_flow(heis, 50.0, r=-3.0)
    with pytest.raises(NumericalFailure, match="cond") as info:
        integrate_bracket_flow(heis, 1e-3, r=-1e6)
    assert info.value.trace[-1][0] == pytest.approx(2.7e-5, rel=0.02)


def test_check_judges_each_stored_sample_once_before_thinning(monkeypatch, cap_128):
    # the integrator's contract with a check: every sample it stores, stops
    # included, is judged once, in time order, before thinning can drop it,
    # and in batches, not one sample at a time
    calls, judged, thinned = [], [], []

    def check(samples, i):
        assert {t for t, _ in samples[:i]} <= set(judged)
        calls.append(len(samples) - i)
        judged.extend(t for t, _ in samples[i:])

    def thin(samples, steps, stride):
        thinned.append({t for t, _ in samples})
        return real_thin(samples, steps, stride)

    real_thin = flow._thin
    monkeypatch.setattr(flow, "_thin", thin)
    stops = tuple(np.linspace(0.0, 10.0, 41)[1:-1])
    opts = FlowOpts(max_step=1e-2, stops=stops)
    samples, _ = flow._integrate_adaptive(lambda t, y: -y, 0.0, np.ones(2), 10.0, opts, check=check)
    assert len(thinned) >= 3 and len(samples) <= 128
    assert judged[0] == 0.0 and judged[-1] == 10.0
    assert np.all(np.diff(judged) > 0.0)
    assert all(ts <= set(judged) for ts in thinned)
    assert set(stops) | {t for t, _ in samples} <= set(judged)
    assert min(calls) > 0 and len(calls) <= len(judged) / flow._CHECK_EVERY + len(thinned) + 1


def test_check_judges_the_samples_of_a_failed_run():
    # a failure of the right side still has every sample it carries judged, so
    # damage before it is reported first
    judged = []

    def rhs(t, y):
        if t > 0.5:
            raise NumericalFailure("the right side failed")
        return -y

    with pytest.raises(NumericalFailure, match="right side") as info:
        flow._integrate_adaptive(rhs, 0.0, np.ones(2), 1.0, FlowOpts(max_step=1e-3),
                                 check=lambda samples, i: judged.extend(t for t, _ in samples[i:]))
    assert judged == [t for t, _ in info.value.trace] and len(judged) > 400


def test_skew_defect_is_reported_on_runs_that_keep_their_orbit():
    # in its own basis Dixmier-Lister keeps its zero pattern, and h.mu0 stays
    # skew to rounding until the cond(h) bound ends the run
    trace = integrate_normalized_flow(rescale_to_norm(dixmier_lister()), 20.0)
    assert 0.0 <= trace.stats["max_skew_defect"] <= 1e-12
    trace = integrate_normalized_flow(random_sphere_bracket(6, 3), 20.0)
    assert 0.0 <= trace.stats["max_skew_defect"] <= 1e-12


# ---------------------------------------------------------------------------
# constant and scalar rates


def test_zero_rate_reproduces_unnormalized_bitwise(heis):
    a = integrate_bracket_flow(heis, 2.0)
    b = integrate_bracket_flow(heis, 2.0, r=0.0)
    assert np.array_equal(a.times, b.times)
    assert all(np.array_equal(x.coeffs, y.coeffs) for x, y in zip(a.brackets, b.brackets))
    assert (a.kind, b.kind) == ("unnormalized", "r")
    assert (a.rate, b.rate) == (None, 0.0)


def test_constant_rate_equilibrium():
    # mu' = delta(Ric) + r mu fixes the Heisenberg bracket with c = sqrt(2r/3)
    r = 1.5
    b = heisenberg(np.sqrt(2.0 * r / 3.0))
    trace = integrate_bracket_flow(b, 5.0, r=r)
    drift = max(np.abs(bb.coeffs - b.coeffs).max() for bb in trace.brackets)
    assert drift < 1e-11, f"equilibrium drifted by {drift:.2e}"
    assert np.all(trace.r_values == r)


def test_scalar_rate_records_tr_ric2(heis_sphere):
    # r_values and tr_ric2 are both read on the stored samples, which lie on the sphere
    trace = integrate_bracket_flow(heis_sphere, 1.0, r="scalar")
    assert np.allclose(trace.r_values, trace.tr_ric2, rtol=1e-12)


def test_scalar_rate_is_the_normalized_flow_bitwise():
    b = random_sphere_bracket(5, 11)
    a = integrate_bracket_flow(b, 5.0, r="scalar")
    c = integrate_normalized_flow(b, 5.0)
    assert a.kind == c.kind == "normalized" and a.rate == c.rate == "scalar"
    for name in ("times", "coeffs", "frames", "r_values", "mu_norm", "tr_ric2", "grad_norm", "jacobi_residual"):
        assert np.array_equal(getattr(a, name), getattr(c, name)), name
    assert a.stats == c.stats


_TIME_CHANGE_STARTS = {
    "h3": heisenberg(1.0),
    "nilpotent6": random_nilpotent(6, np.random.default_rng(0)),
    "filiform5": filiform(5),
}


@pytest.mark.parametrize("rho", [0.5, -0.3, 2.0])
@pytest.mark.parametrize("start", list(_TIME_CHANGE_STARTS))
def test_constant_rate_is_a_time_change_of_the_unnormalized_flow(start, rho):
    # Ric is quadratic in mu and ric(G) is scale invariant, so with
    # tau = (e^{2 rho T} - 1) / (2 rho) the rate-rho flows are the r = 0 flows
    # nu and g rescaled: mu_rho(T) = e^{rho T} nu(tau), g_rho(T) = e^{-2 rho T} g(tau).
    # The worst relative difference measured was 1.0e-9; the bound was fixed beforehand.
    b = _TIME_CHANGE_STARTS[start]
    t_max = 1.0
    tau = math.expm1(2.0 * rho * t_max) / (2.0 * rho)
    mu = integrate_bracket_flow(b, t_max, r=rho).coeffs[-1]
    nu = integrate_bracket_flow(b, tau).coeffs[-1]
    assert np.linalg.norm(mu - math.exp(rho * t_max) * nu) <= 1e-8 * np.linalg.norm(mu)
    g_rho = integrate_innerproduct_flow(b, t_max, r=rho).metrics[-1]
    g = integrate_innerproduct_flow(b, tau).metrics[-1]
    assert np.linalg.norm(g_rho - math.exp(-2.0 * rho * t_max) * g) <= 1e-8 * np.linalg.norm(g_rho)


def test_bad_rate_type_raises(heis):
    for r in ("fast", 1 + 0j):
        with pytest.raises(TypeError):
            integrate_bracket_flow(heis, 1.0, r=r)


def test_callable_rate_raises(heis):
    # a rate is None, a real number or "scalar", resolved into a function of Ric
    for r in (ricci_energy, lambda b: math.nan):
        with pytest.raises(BadRate):
            integrate_bracket_flow(heis, 1.0, r=r)


@pytest.mark.parametrize("r, same", [(np.int64(1), 1.0), (np.float32(0.5), 0.5)], ids=["int64", "float32"])
def test_numpy_real_rates_match_floats_bitwise(r, same, heis):
    a = integrate_bracket_flow(heis, 1.0, r=r)
    b = integrate_bracket_flow(heis, 1.0, r=same)
    assert np.array_equal(a.times, b.times) and np.array_equal(a.coeffs, b.coeffs)
    assert np.array_equal(a.r_values, b.r_values) and np.all(a.r_values == same)
    g = integrate_innerproduct_flow(heis, 1.0, r=r).metrics
    assert np.array_equal(g, integrate_innerproduct_flow(heis, 1.0, r=same).metrics)


def test_overflowing_rate_underflows_the_first_step(heis):
    # the scaled derivative overflows to inf, so the initial step is 0
    with pytest.raises(StepSizeUnderflow, match="t=0 "):
        integrate_bracket_flow(heis, 1.0, r=1e300)
    # the metric factor starts at 0, and the initial step must not ignore d1
    with pytest.raises(StepSizeUnderflow, match="t=0 "):
        integrate_innerproduct_flow(heis, 1.0, r=1e300)


def test_a_run_shorter_than_the_step_floor_takes_one_step(heis):
    # the floor 1e-14 max(1, |t|) spares the step that ends the run
    trace = integrate_bracket_flow(heis, 1e-15)
    assert trace.times.tolist() == [0.0, 1e-15] and trace.stats["accepted"] == 1
    ip = integrate_innerproduct_flow(heis, 1e-15)
    assert ip.times.tolist() == [0.0, 1e-15] and ip.stats["accepted"] == 1


def test_the_last_step_after_a_stop_may_be_below_the_floor(heis):
    # a step end relabelled to the stop at 1 leaves h = 1.1e-15 to the end
    t_max = 1.0 + 1e-15
    trace = integrate_bracket_flow(heis, t_max, FlowOpts(stops=(1.0,)))
    assert trace.times[-2] == 1.0 and trace.times[-1] == t_max


@pytest.fixture
def bounded_steps(monkeypatch):
    """Fail, instead of hanging, an integration that tries 1,000 steps."""
    calls = []

    def step(*args):
        calls.append(None)
        assert len(calls) < 1000, "the integration does not end"
        return dp_step(*args)

    dp_step = flow._dp_step
    monkeypatch.setattr(flow, "_dp_step", step)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_non_finite_rate_raises(r, heis, bounded_steps):
    with pytest.raises(BadRate, match="finite"):
        integrate_bracket_flow(heis, 1.0, r=r)
    with pytest.raises(BadRate, match="finite"):
        integrate_innerproduct_flow(heis, 1.0, r=r)


def test_nan_derivative_underflows(bounded_steps):
    # nan fails h < floor as it fails every comparison, so only `not h >= floor` stops it
    with pytest.raises(StepSizeUnderflow, match="h=nan"):
        flow._integrate_adaptive(lambda t, y: np.full_like(y, np.nan), 0.0, np.ones(3), 1.0, FlowOpts())


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("kind", ["unnormalized", "normalized", "constant"])
def test_trace_columns_match_per_bracket_functions(kind, n):
    # each column is computed by the function behind its per-bracket
    # counterpart, so they agree bit for bit; rotated starts have no zero
    # pattern to hide behind
    b0 = rescale_to_norm(random_nilpotent(n, _rng(n)))
    if kind == "unnormalized":
        trace = integrate_bracket_flow(b0, 5.0)
    elif kind == "normalized":
        trace = integrate_normalized_flow(b0, 5.0)
    else:
        trace = integrate_bracket_flow(b0, 1.0, r=0.5)
    brackets = trace.brackets
    assert len(brackets) == len(trace) > 3
    assert all(np.array_equal(b.coeffs, c) for b, c in zip(brackets, trace.coeffs))
    norms = np.array([b.norm for b in brackets])
    assert np.array_equal(trace.mu_norm, norms)
    assert np.array_equal(trace.scal, [scalar_curvature(b) for b in brackets])
    energies = [ricci_energy(b) for b in brackets]
    assert np.array_equal(trace.tr_ric2, energies)
    assert np.array_equal(trace.grad_norm, [ricci_energy_gradient(b).norm for b in brackets])
    assert np.array_equal(trace.jacobi_residual, [jacobiator_residual(b) for b in brackets])
    if kind == "constant":
        assert np.all(trace.r_values == 0.5)
    elif kind == "normalized":
        assert np.array_equal(trace.r_values, energies)
    else:
        assert not np.any(trace.r_values)
        t = trace.times
        riemann = [riemann_at_origin(b).norm for b in brackets]
        ricci = [np.linalg.norm(ricci_operator(b)) for b in brackets]
        report = type3_certificate(trace)
        assert report.sup_t_riemann == max(t * riemann)
        assert report.sup_t_ricci == max(t * ricci)
        assert report.sup_norm_ratio == max(t * norms**2) / (2 * n)


@pytest.mark.parametrize("c", [1e-200, 1e-160])
def test_norm_column_of_a_tiny_bracket(c):
    # ||mu||^2 underflows to 0 at c = 1e-200 and is subnormal at c = 1e-160;
    # the column read 0, or lost digits, where Bracket.norm rescales
    trace = integrate_bracket_flow(heisenberg(c), 1.0)
    assert np.array_equal(trace.mu_norm, [b.norm for b in trace.brackets])


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
    "normalized, max_step, cap",
    [
        pytest.param(False, math.inf, 8192, id="False"),
        pytest.param(True, math.inf, 8192, id="True"),
        # 400 steps kept in at most 128 samples: sample times are not steps
        pytest.param(True, 0.005, 128, id="thinned"),
    ],
)
def test_cointegrated_frame_pulls_the_bracket(normalized, max_step, cap, heis_sphere, monkeypatch):
    monkeypatch.setattr(flow, "_MAX_SAMPLES", cap)
    b0 = sphere_perturbation(heis_sphere, np.random.default_rng(5), eps=0.2)
    opts = FlowOpts(max_step=max_step)
    if normalized:
        trace = integrate_normalized_flow(b0, 2.0, opts)
    else:
        trace = integrate_bracket_flow(b0, 2.0, opts)
    assert len(trace) <= cap
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


def test_cointegrated_frame_takes_the_steps_its_tolerance_needs(monkeypatch):
    # every sample time is a stop of the run, but stops no longer end steps:
    # 502 samples used to cost 538 accepted steps
    trace = integrate_bracket_flow(filiform(4), 5.0, FlowOpts(max_step=0.01))
    accepted = []
    integrate = flow._integrate_adaptive

    def counting(*args):
        samples, stats = integrate(*args)
        accepted.append(stats["accepted"])
        return samples, stats

    monkeypatch.setattr(flow, "_integrate_adaptive", counting)
    hs = cointegrate_h(trace)
    assert len(trace) > 400 and len(hs) == len(trace)
    assert len(accepted) == 1 and accepted[0] < len(trace)


def test_gl_action_accepts_ill_conditioned_cointegrated_frames():
    # cond(h) reaches ~3.6e3 by t = 5; on the last frames rounding in the moved
    # coefficients exceeds the skew check unless gl_action antisymmetrizes them
    b = rescale_to_norm(random_nilpotent(5, _rng(7)))
    trace = integrate_normalized_flow(b, 5.0)
    hs = cointegrate_h(trace)
    assert np.linalg.cond(hs[-1]) > 1e3
    for h, mu in zip(hs, trace.brackets):
        # two independent runs agree to their tolerances, amplified by cond(h)
        assert np.linalg.norm(gl_action(h, b).coeffs - mu.coeffs) / mu.norm < 1e-6


def test_innerproduct_flow_matches_exact_scal(heis):
    ip = integrate_innerproduct_flow(heis, 1.0)
    g = ip.metrics[ip.index_of_time(1.0)]
    # along the Heisenberg solution scal(t) = -c0^2 / (2 (1 + 3 c0^2 t))
    assert innerproduct_scal(heis, g) == pytest.approx(-0.125, rel=1e-8)
    assert np.allclose(g, g.T)
    assert np.all(np.linalg.eigvalsh(g) > 0.0)


def test_innerproduct_scal_rejects_a_metric_of_the_wrong_size(heis):
    # a (2, 2) metric for a 3-dimensional bracket ended in matmul's ValueError
    for g in (np.eye(2), np.ones(3), np.eye(4)[None]):
        with pytest.raises(DimensionMismatch):
            innerproduct_scal(heis, g)


@pytest.mark.parametrize(
    "g", [-np.eye(3), np.zeros((3, 3)), np.full((3, 3), np.nan)], ids=["negative", "zero", "nan"]
)
def test_innerproduct_scal_rejects_a_metric_that_is_not_positive_definite(heis, g):
    # the first two ended in numpy's LinAlgError; the nan metric returned nan
    with pytest.raises(SingularMatrix):
        innerproduct_scal(heis, g)


def test_scalar_rate_metric_flow_stays_positive_definite(heis_sphere):
    # G degenerates like exp(-2tD); integrated on its factor, G stays positive
    # definite to the end, and the scalar rate, read on the sphere, keeps it
    # on its slice scal = -1
    ip = integrate_innerproduct_flow(heis_sphere, 5.0, FlowOpts(max_step=0.05), r="scalar")
    assert ip.times[-1] == 5.0
    assert np.all(np.linalg.eigvalsh(ip.metrics) > 0.0)
    assert np.abs(innerproduct_scal(heis_sphere, ip.metrics) + 1.0).max() <= 1e-12


def test_singular_metric_factor_carries_the_accepted_samples():
    # on the abelian bracket G = exp(-2rt) I; log L_ii = -rt passes
    # log(tiny) = -708.4 at t = 0.708, where exp underflows and the factor is singular
    abelian = Bracket(np.zeros((3, 3, 3)))
    with pytest.raises(NumericalFailure, match="metric factor became singular") as info:
        integrate_innerproduct_flow(abelian, 1.0, r=1000.0)
    accepted = info.value.trace
    assert accepted is not None and len(accepted) > 1
    assert accepted[0][0] == 0.0 and accepted[-1][0] < 0.7084
    t, y = accepted[-1]
    np.testing.assert_allclose(y, [-1000.0 * t, 0.0, -1000.0 * t, 0.0, 0.0, -1000.0 * t], rtol=1e-12)


def test_singular_frame_carries_the_accepted_samples(heis, monkeypatch):
    real = flow._frame_generator

    def failing_after(*args):
        rhs = real(*args)
        calls = []

        def singular_after(t, y):
            # past 40 calls the right side sees the zero frame, which inv rejects
            calls.append(None)
            return rhs(t, y if len(calls) <= 40 else np.zeros_like(y))

        return singular_after

    monkeypatch.setattr(flow, "_frame_generator", failing_after)
    with pytest.raises(NumericalFailure, match="singular") as info:
        integrate_bracket_flow(heis, 1.0)
    accepted = info.value.trace
    assert accepted is not None and len(accepted) > 1
    assert accepted[0][0] == 0.0 and accepted[-1][0] < 1.0


def test_innerproduct_flow_rejects_unknown_string(heis):
    # the metric flow takes the rates of the bracket flows, and no other
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
    assert rep.ok(1e-5), rep


def test_equivalence_filiform():
    rep = equivalence_report(rescale_to_norm(filiform(4)), 2.0, checkpoints=11)
    assert rep.ok(1e-5), rep


def test_equivalence_normalized(heis_sphere):
    b = sphere_perturbation(heis_sphere, np.random.default_rng(2), eps=0.2)
    # a start off the Heisenberg family, where h(t) and G(t) are not diagonal
    rep = equivalence_report(b, 1.0, FlowOpts(max_step=0.1), r="scalar", checkpoints=11)
    assert rep.ok(1e-5), rep


def test_equivalence_constant_rate(heis_sphere):
    rep = equivalence_report(heis_sphere, 1.0, r=0.5, checkpoints=6)
    assert rep.ok(1e-5), rep


@pytest.mark.parametrize("r", [None, "scalar"], ids=["unnormalized", "scalar"])
@pytest.mark.parametrize("n", range(3, 9))
def test_equivalence_on_dense_starts(n, r):
    # rotated starts: no zero pattern that the three presentations could share
    for b in dense_starts(n, 300 + n):
        if r == "scalar":
            b = rescale_to_norm(b)
        rep = equivalence_report(b, 2.0, FlowOpts(max_step=0.05), r=r, checkpoints=11)
        assert rep.ok(1e-5), rep


def test_equivalence_rejects_callable(heis_sphere):
    with pytest.raises(TypeError):
        equivalence_report(heis_sphere, 1.0, r=lambda b: 0.0)


def test_equivalence_with_a_singular_frame_raises():
    # near the soliton the companion frame degenerates like exp(-tD) and turns
    # singular by t = 120, where its products overflow; np.linalg.inv ended
    # the report in LinAlgError
    b = rescale_to_norm(random_two_step(5, np.random.default_rng(3)))
    with pytest.raises(NumericalFailure, match="singular"):
        equivalence_report(b, 120.0, r="scalar")


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


def test_trace_csv_rejects_a_wrong_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,mu_norm\n0.0,2.0\n")
    with pytest.raises(ConfigError, match="unexpected trace header"):
        trace_from_csv(path)


HEADER = "t,mu_norm,scal,tr_ric2,grad_norm,r,jacobi_residual\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected trace header"),  # was StopIteration
        (HEADER + "0,2,-1,3,0,0\n", "6 fields"),  # zip dropped the last column
        (HEADER + "0,2,-1,3,0,0,0,9\n", "8 fields"),  # zip dropped the extra field
        (HEADER + "0,2,-1,3,0,x,0\n", "line 2 .*could not convert"),  # was a raw ValueError
    ],
    ids=["empty", "short_row", "long_row", "not_a_number"],
)
def test_trace_csv_rejects_malformed_rows(text, message, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        trace_from_csv(path)


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
