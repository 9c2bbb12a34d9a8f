"""Integration of the bracket flows: exact solutions, invariants, companions."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from nilflow import _dop853, algebra, flow
from nilflow.algebra import (
    Bracket,
    _gl_action_coeffs,
    central_series_dims,
    derivation_basis,
    gl_action,
    jacobiator_residual,
    nilpotency_degree,
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
from nilflow.soliton import detect_convergence, soliton_residual

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


def _nearest_time_reference(times, t):
    """The lookup by the full distance matrix: argmin over every sample."""
    i = np.abs(np.subtract.outer(times, t)).argmin(axis=0)
    if not np.all(np.isfinite(t) & (np.abs(times[i] - t) <= 1e-9 * np.maximum(1.0, np.abs(t)))):
        raise KeyError(t)
    return i


@pytest.mark.parametrize("seed", range(6))
def test_time_lookup_is_the_nearest_sample(seed):
    # the binary search gives the indices of argmin over all samples, the
    # earlier on a tie, and the same KeyErrors; a trace's times increase
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 60))
    times = np.unique(np.concatenate([rng.uniform(0.0, 10.0, m), [0.0, 5.0, 10.0]]))
    gaps = 1e-9 * np.maximum(1.0, times)
    hits = np.concatenate([times, times + 0.4 * gaps, times - 0.9 * gaps])
    halfway = 0.5 * (times[1:] + times[:-1])
    for t in (hits, halfway, np.linspace(-1.0, 11.0, 50)):
        for query in (t, *t[:20]):  # the array, and its first times one by one
            try:
                expected = _nearest_time_reference(times, query)
            except KeyError:
                with pytest.raises(KeyError):
                    flow._index_of_time(times, query)
            else:
                found = flow._index_of_time(times, query)
                assert np.array_equal(found, expected)
                assert isinstance(found, np.ndarray) == isinstance(query, np.ndarray)  # an int for a scalar
    # a tie between two distinct neighbours goes to the earlier one
    assert flow._index_of_time(np.array([0.0, 2e-9, 4e-9]), 1e-9) == 0


def test_time_lookup_allocates_no_distance_matrix():
    # 4,000 lookups in 4,000 samples: the m x k distance matrix took 256 MB
    times = np.linspace(0.0, 1.0, 4000)
    tracemalloc.start()
    try:
        found = flow._index_of_time(times, times.copy())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(found, np.arange(4000))
    assert peak < 2_000_000


@pytest.fixture
def cap_128(monkeypatch):
    """Thin traces past 128 samples instead of 8192."""
    monkeypatch.setattr(flow, "_MAX_SAMPLES", 128)


def _rotation(t, y):
    """y' = 50 (y1, -y0): about 100 DOP853 steps per unit of time."""
    return 50.0 * np.array([y[1], -y[0]])


def _rotation_run(t_end, opts, check=lambda samples, i: None):
    """The sample times and stats of _rotation's run from (1, 0) at t = 0."""
    samples, stats, _ = flow._integrate_adaptive(_rotation, 0.0, np.array([1.0, 0.0]), t_end, opts, check=check)
    return np.array([t for t, _ in samples]), stats


def test_sample_thinning_keeps_endpoints(cap_128):
    times, stats = _rotation_run(10.0, FlowOpts())
    assert len(times) <= 128 < stats["accepted"]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(10.0, abs=1e-12)
    assert np.all(np.diff(times) > 0.0)


def test_thinning_keeps_stop_samples(cap_128):
    # 1,000 steps thinned into at most 128 samples used to halve the stops away too
    stops = (0.5, 7.3)
    times, stats = _rotation_run(10.0, FlowOpts(stops=stops))
    assert len(times) <= 128 < stats["accepted"]
    for t in stops:
        assert times[flow._index_of_time(times, t)] == t
    assert times[-1] == 10.0


def test_thinning_keeps_the_whole_run_evenly_sampled(cap_128):
    # every stretch of the run keeps samples, not only its start and its end
    times, stats = _rotation_run(10.0, FlowOpts())
    assert len(times) <= 128 < stats["accepted"]
    for lo in np.arange(0.0, 10.0, 0.5):
        assert np.any((times >= lo) & (times <= lo + 0.5)), f"no sample in [{lo}, {lo + 0.5}]"


def test_thinning_more_stops_than_samples_thins_logarithmically(monkeypatch, cap_128):
    # 4,000 stops never fit in 128 samples, so thinning cannot reach the cap;
    # it must still stop once the stride passes the step count
    calls = []
    original = flow._thin

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(flow, "_thin", counting)
    stops = tuple(np.linspace(0.0, 10.0, 4002)[1:-1])
    times, stats = _rotation_run(10.0, FlowOpts(stops=stops))
    assert len(calls) <= math.ceil(math.log2(stats["accepted"]))
    assert all(times[flow._index_of_time(times, t)] == t for t in stops)


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


def _matmul_dop853_step(f, t, y, h, K):
    """_rk_step with every product through the matmul gufunc."""
    a, c = _dop853.A, _dop853.C
    for i in range(1, 12):
        yi = y + (h * a[i, :i]) @ K[:i]
        K[i] = f(t + c[i] * h, yi)
    return y + (h * a[12, :12]) @ K[:12], (h * _dop853.E) @ K[:12]


@pytest.mark.parametrize("size", [9, 21, 64, 512])
def test_step_loop_products_are_bitwise_their_matmul_forms(size):
    # ndarray.dot calls BLAS directly; it must give the bits of @ and vecdot
    def f(t, y):
        return np.sin(y) * y[::-1] - 0.3 * (1.0 + t) * y

    rng = np.random.default_rng(size)
    t, y = 0.4, rng.standard_normal(size)
    for h in (0.15, 1e-3, 2.7):
        K, ref_K = np.empty((16, size)), np.empty((16, size))
        K[0] = ref_K[0] = f(t, y)
        y_new, err, _ = flow._rk_step(f, t, y, h, K)
        ref_y, ref_err = _matmul_dop853_step(f, t, y, h, ref_K)
        assert np.array_equal(y_new, ref_y) and np.array_equal(err, ref_err) and np.array_equal(K[:12], ref_K[:12])
        K[12] = f(t + h, y_new)
        rows = flow._rk_extension(f, t, y, y_new, h, K)
        assert np.array_equal(rows[3:], (h * _dop853.D) @ K)
        for theta in (0.0, 0.3, 0.77, 1.0):
            ref = y + np.cumprod([theta, 1.0 - theta] * 3 + [theta]) @ rows
            assert np.array_equal(flow._dense(y, rows, theta), ref)
            # the three cubic Hermite rows of a ROS2 step
            ref = y + np.cumprod([theta, 1.0 - theta, theta]) @ rows[:3]
            assert np.array_equal(flow._dense(y, rows[:3], theta), ref)
        q = np.maximum(np.abs(y), np.abs(y_new)) * 1e-9 + 1e-9
        q = err[0] / q
        assert flow._rms(err[0] / flow._scale(y, y_new, 1e-9, 1e-9)) == math.sqrt(np.vecdot(q, q) / q.size)


@pytest.mark.parametrize("size", [1, 9, 64])
def test_error_norms_read_a_scaled_estimate(size):
    # _rms and Hairer's combined DOP853 norm, on estimates the step loop has scaled
    rng = np.random.default_rng(size)
    for weight in (1e3, 1.0, 1e-3):  # of e3 against e5
        q = rng.standard_normal((2, size)) * [[1.0], [weight]]
        e5, e3 = q
        s5 = np.vecdot(e5, e5)
        assert flow._rms(e5) == math.sqrt(s5 / size)
        expected = s5 / math.sqrt((s5 + 0.01 * np.vecdot(e3, e3)) * size)
        assert flow._dop853_error_norm(q) == pytest.approx(expected, rel=1e-15)
    assert flow._dop853_error_norm(np.zeros((2, size))) == 0.0
    assert flow._rms(np.zeros(size)) == 0.0


@pytest.mark.parametrize(("kind", "degree"), [("ros2", 3), ("dop853", 7)])
def test_each_step_kinds_extension_reproduces_polynomials_of_its_degree(kind, degree):
    # every continuous extension is the 3 cubic Hermite rows plus 0 or 4
    # rows of its own: on y' = p t^(p - 1) w it reproduces y = t^p w for p up
    # to its degree, to rounding (DOP853's weights reach 5e2, so more of it),
    # and misses p = degree + 1
    w = np.array([1.0, -2.0, 0.5])
    t, h = 0.5, 1.0
    for p in (degree, degree + 1):
        def f(s, y, p=p):
            return p * s ** (p - 1) * w

        y = t**p * w
        if kind == "ros2":  # the Hermite rows alone, fed exact endpoint data
            rows = flow._hermite_rows(y, (t + h) ** p * w, h, f(t, y), f(t + h, None))
        else:
            K = np.empty((16, w.size))
            K[0] = f(t, y)
            y_new, _, _ = flow._rk_step(f, t, y, h, K)
            K[12] = f(t + h, y_new)
            rows = flow._rk_extension(f, t, y, y_new, h, K)
        assert len(rows) == {"ros2": 3, "dop853": 7}[kind]
        err = max(
            np.abs(flow._dense(y, rows, theta) - (t + theta * h) ** p * w).max() / (t + theta * h) ** p
            for theta in np.linspace(0.0, 1.0, 11)
        )
        if p == degree:
            assert err < (1e-13 if kind == "dop853" else 1e-14)
        else:
            assert err > 1e-3


# ---------------------------------------------------------------------------
# DOP853 steps


@pytest.mark.parametrize("order", [8], ids=["dop853"])
def test_explicit_pair_tableau_conditions(order):
    a, c = _dop853.A, _dop853.C
    # every stage sits at the time its row of A sums to, the stages of the
    # continuous extension included
    np.testing.assert_allclose(a.sum(axis=1), c, rtol=0.0, atol=1e-15)
    assert np.all(np.triu(a) == 0.0) and a.shape == (16, 16)
    # row 12 is the update: the quadrature conditions of the pair's order
    assert np.array_equal(a[12, :12], _dop853.B)
    for k in range(order):
        assert a[12, :12] @ c[:12] ** k == pytest.approx(1.0 / (k + 1), rel=1e-14)
    # both error estimates vanish on a constant derivative
    assert np.all(np.abs(_dop853.E.sum(axis=1)) < 1e-15)
    # stage 12, f(t + h, y_new), and the step's last, stage 11, sit at t + h
    # (the stiffness test compares their derivatives)
    assert c[12] == c[11] == 1.0
    # a step fills K[1:12], which the error rows weigh; the extension stages
    # follow row 12, and D weighs every row of K
    assert _dop853.E.shape == (2, 12) and _dop853.D.shape == (4, 16)


def test_dop853_observed_orders():
    # one step from the exact solution of y' = -(1 + t) y: halving h divides
    # the local error by 2^(p + 1), p = 8 for the step and 7 for the extension
    def f(t, y):
        return -(1.0 + t) * y

    def exact(t):
        return math.exp(-(t + 0.5 * t * t)) * np.array([1.0, -2.0])

    t, y = 0.3, exact(0.3)
    errors = []
    for h in (0.4, 0.2):
        K = np.empty((16, 2))
        K[0] = f(t, y)
        y_new, _, _ = flow._rk_step(f, t, y, h, K)
        K[12] = f(t + h, y_new)
        ext = flow._rk_extension(f, t, y, y_new, h, K)
        mid = flow._dense(y, ext, 0.5)
        errors.append((np.abs(y_new - exact(t + h)).max(), np.abs(mid - exact(t + 0.5 * h)).max()))
        # the extension starts at y and ends at y_new
        np.testing.assert_allclose(flow._dense(y, ext, 0.0), y, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(flow._dense(y, ext, 1.0), y_new, rtol=1e-14, atol=0.0)
    step, dense = np.log2(np.divide(*errors)) - 1.0
    assert abs(step - 8.0) < 0.5 and abs(dense - 7.0) < 0.5


def _reference_dop853(f, t, y, h):
    """The DOP853 step and its continuous extension as per-stage sums in
    plain Python: (y_new, e5, e3, y_last, stages, sample), y_last the state of
    stage 11 and sample(theta) the extension at t + theta h."""
    a, c = _dop853.A.tolist(), _dop853.C.tolist()
    k, args = [f(t, y)], [y]
    for i in range(1, 12):
        args.append(y + h * sum(a[i][j] * k[j] for j in range(i)))
        k.append(f(t + c[i] * h, args[-1]))
    y_new = y + h * sum(_dop853.B[j] * k[j] for j in range(12))
    e5, e3 = (h * sum(w[j] * k[j] for j in range(12)) for w in _dop853.E.tolist())
    k.append(f(t + h, y_new))
    for i in range(13, 16):
        k.append(f(t + c[i] * h, y + h * sum(a[i][j] * k[j] for j in range(i))))
    dy = y_new - y
    rows = [dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0])]
    rows += [h * sum(d[j] * k[j] for j in range(16)) for d in _dop853.D.tolist()]

    def sample(theta):
        u, v = theta, 1.0 - theta
        weights = (u, u * v, u * u * v, u * u * v * v, u**3 * v * v, u**3 * v**3, u**4 * v**3)
        return y + sum(w * r for w, r in zip(weights, rows))

    return y_new, e5, e3, args[11], k, sample


def test_dop853_stage_array_step_matches_per_stage_sums():
    # only the summation order differs, so a step agrees to rounding
    def f(t, y):
        return np.sin(y) * y[::-1] - 0.3 * (1.0 + t) * y

    t, h = 0.4, 0.15
    y = np.linspace(-1.0, 2.0, 9)
    K = np.empty((16, y.size))
    K[0] = f(t, y)
    y_new, err, y_last = flow._rk_step(f, t, y, h, K)
    ref_y, ref_e5, ref_e3, ref_last, ref_k, sample = _reference_dop853(f, t, y, h)
    np.testing.assert_allclose(y_new, ref_y, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(y_last, ref_last, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(K[:12], ref_k[:12], rtol=1e-13, atol=1e-15)
    # the error weights cancel: compare relative to the size of the summed terms
    scale = h * np.abs(_dop853.E) @ np.abs(K[:12])
    assert np.all(np.abs(err - [ref_e5, ref_e3]) <= 1e-14 * scale)
    assert np.abs(err).max() > 0.0
    K[12] = f(t + h, y_new)
    ext = flow._rk_extension(f, t, y, y_new, h, K)
    np.testing.assert_allclose(K[13:], ref_k[13:], rtol=1e-13, atol=1e-15)
    for theta in (0.0, 0.3, 0.77, 1.0):
        np.testing.assert_allclose(flow._dense(y, ext, theta), sample(theta), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("max_step", [0.05, 1e300])
def test_a_finite_max_step_spaces_the_samples_and_keeps_the_steps(heis, max_step):
    # max_step adds stops on a grid and shortens no step: a capped run takes
    # the uncapped run's steps bit for bit, and no two of its samples lie
    # more than max_step apart
    runs = (
        lambda opts: integrate_bracket_flow(heis, 5.0, opts),
        lambda opts: integrate_normalized_flow(random_sphere_bracket(5, 2), 60.0, opts),
        lambda opts: integrate_innerproduct_flow(heis, 5.0, opts),
    )
    for run in runs:
        plain, capped = run(FlowOpts(stops=(0.37,))), run(FlowOpts(max_step=max_step, stops=(0.37,)))
        for key in ("accepted", "rejected", "rosenbrock_steps"):
            assert capped.stats[key] == plain.stats[key]
        at_steps = np.isin(capped.times, plain.times)
        assert np.count_nonzero(at_steps) == len(plain)
        state = "metrics" if hasattr(plain, "metrics") else "frames"
        assert np.array_equal(getattr(capped, state)[at_steps], getattr(plain, state))
        assert np.diff(capped.times).max() <= min(max_step, np.diff(plain.times).max()) + 1e-12


@pytest.mark.parametrize("max_step", [1e-300, 5e-324])
def test_a_tiny_max_step_keeps_the_trace_under_the_sample_cap(heis, max_step):
    # the grid's spacing doubles from max_step until it holds at most
    # _MAX_SAMPLES // 2 times; a cap on the step size underflowed here
    trace = integrate_bracket_flow(heis, 1.0, FlowOpts(max_step=max_step))
    grid = flow._MAX_SAMPLES // 2
    assert grid / 2 < len(trace) - trace.stats["accepted"] - 1 <= grid
    assert np.diff(trace.times).max() < 2.0 / grid
    assert trace.times[-1] == 1.0


# ---------------------------------------------------------------------------
# ROS2 steps of settled stretches


@pytest.mark.parametrize("h", [1e-3, 0.7, 1.65, 50.0, 1e8])
def test_ros2_step_has_the_stability_function_of_an_l_stable_method(h):
    # with the exact Jacobian one step multiplies y by R(z), z = h lam, with
    # R(z) = (1 + (1 - 2 gamma) z) / (1 - gamma z)^2: the z^2 term of the
    # numerator vanishes for gamma = 1 + 1/sqrt(2), so R -> 0 as z -> -inf
    lam = np.array([-3.0, -2.0, -0.5, 0.0, 1.5e-3])
    y = np.array([1.0, -2.0, 0.5, 3.0, 1.0])
    gamma = flow._ROS_GAMMA
    assert gamma**2 - 2.0 * gamma + 0.5 == pytest.approx(0.0, abs=1e-15)
    z = h * lam
    # W = I - gamma h J must hold its identity for J in either memory order:
    # adding it through a reshape of a Fortran-ordered J wrote into a copy
    for jac in (np.diag(lam), np.asfortranarray(np.diag(lam))):
        y_new, err = flow._ros2_step(lambda t, v: lam * v, 0.0, y, h, lam * y, jac)
        # to rounding: y_new = y + h (3 k1 + k2) / 2 sums terms of the size of y
        tol = {"rtol": 1e-13, "atol": 1e-15 * np.abs(y).max()}
        np.testing.assert_allclose(y_new, y * (1.0 + (1.0 - 2.0 * gamma) * z) / (1.0 - gamma * z) ** 2, **tol)
        # the error vector is the distance to the embedded first-order y + h k1
        np.testing.assert_allclose(y_new - err, y * (1.0 + z / (1.0 - gamma * z)), **tol)
        damped = np.abs(y_new[z < 0.0] / y[z < 0.0])
        assert np.all(damped < 1.0)
        if h >= 50.0:
            assert np.all(damped < 0.05 if h == 50.0 else damped < 1e-7)


def test_a_singular_w_is_no_ros2_step():
    # W = I - gamma h J is singular at h = 1 / (gamma lam)
    lam = np.array([1.0, -1.0])
    assert flow._ros2_step(lambda t, v: lam * v, 0.0, np.ones(2), 1.0 / flow._ROS_GAMMA, lam, np.diag(lam)) is None


def test_a_large_constant_rate_settles_on_ros2_steps():
    # the equilibrium ||mu|| = 2 sqrt(r / 3) of H3 is stiff: Dormand-Prince alone
    # crawled at its stability limit, 6,263 steps and 37,592 evaluations to
    # t = 0.0102, and ended 8.7e-10 off
    r = 1e6
    trace = integrate_bracket_flow(rescale_to_norm(heisenberg()), 0.0102, r=r)
    assert trace.stats["accepted"] < 200 and trace.stats["rosenbrock_steps"] > 0
    assert trace.mu_norm[-1] == pytest.approx(2.0 * math.sqrt(r / 3.0), rel=1e-9)


@pytest.mark.parametrize("n", range(3, 9))
def test_runs_that_keep_moving_take_explicit_steps_only(n, monkeypatch):
    # the unnormalized flow moves by more than the tolerance in every step,
    # and no step meets DOP853's stiffness test, so its frame, companion and
    # metric runs never switch to ROS2, with a finite max_step or without
    stats = []
    integrate = flow._integrate_adaptive

    def recording(*args, **kwargs):
        samples, run_stats, jac = integrate(*args, **kwargs)
        stats.append(run_stats)
        return samples, run_stats, jac

    monkeypatch.setattr(flow, "_integrate_adaptive", recording)
    for b0 in dense_starts(n, 100 + n):
        integrate_bracket_flow(b0, 50.0)
        cointegrate_h(integrate_bracket_flow(b0, 5.0, FlowOpts(max_step=0.05)))
        integrate_innerproduct_flow(b0, 5.0)
    assert len(stats) == 12 and all(s["rosenbrock_steps"] == 0 for s in stats)


@pytest.mark.parametrize("n", range(3, 8))
def test_normalized_dense_starts_settle_on_ros2_steps(n):
    # once settled, Dormand-Prince crawled at its stability limit and left the
    # soliton certificate at up to 85% of detect_convergence's 1e-8 bound; at
    # n = 8 two of these seeded starts still move at t = 60
    for b0 in dense_starts(n, 100 + n):
        trace = integrate_normalized_flow(rescale_to_norm(b0), 60.0)
        assert trace.stats["rosenbrock_steps"] > 0
        assert soliton_residual(trace.final_bracket, tol=1e-10).is_soliton


def _recorded_jacobians(monkeypatch):
    """The list of times at which the integrator builds a Jacobian from now on."""
    times = []
    jacobian = flow._jacobian

    def recording(f, t, y, f0):
        times.append(t)
        return jacobian(f, t, y, f0)

    monkeypatch.setattr(flow, "_jacobian", recording)
    return times


def _switching_run(monkeypatch, stops=()):
    """Samples and stats of the integrator on a normalized frame flow to
    t = 60, and the times at which it built a Jacobian."""
    switches = _recorded_jacobians(monkeypatch)
    # seed 1: its settled stretch takes 3 ROS2 steps (seed 2's takes 2)
    rhs = flow._frame_generator(random_sphere_bracket(5, 1), "scalar")
    samples, stats, _ = flow._integrate_adaptive(rhs, 0.0, np.eye(5).reshape(-1), 60.0, FlowOpts(stops=stops))
    return rhs, samples, stats, switches


def test_a_stop_inside_a_ros2_step_is_its_hermite_sample(monkeypatch):
    rhs, plain, stats, switches = _switching_run(monkeypatch)
    times = [t for t, _ in plain]
    # one switch, and every step after it is a ROS2 step
    assert len(switches) == 1 and stats["rosenbrock_steps"] == sum(t > switches[0] for t in times) >= 3
    (ta, ya), (tb, yb) = plain[-3:-1]
    assert ta > switches[0]
    s = ta + 0.3 * (tb - ta)
    _, samples, stats_stop, _ = _switching_run(monkeypatch, stops=(s,))
    # the stop takes no step and no evaluation of its own
    assert stats_stop == stats and len(samples) == len(plain) + 1
    (t_stop, y_stop), = [(t, y) for t, y in samples if t not in times]
    assert t_stop == s
    # tb - ta is the step h to rounding
    hermite = flow._dense(ya, flow._hermite_rows(ya, yb, tb - ta, rhs(ta, ya), rhs(tb, yb)), 0.3)
    np.testing.assert_allclose(y_stop, hermite, rtol=0.0, atol=1e-14 * np.abs(yb).max())
    # a stop within rounding of a ROS2 step's end relabels that step's sample
    near = tb * (1.0 + 1e-14)
    _, samples, stats_near, _ = _switching_run(monkeypatch, stops=(near,))
    assert stats_near["accepted"] == stats["accepted"] and len(samples) == len(plain)
    assert samples[-2][0] == near and np.array_equal(samples[-2][1], yb)


@pytest.mark.parametrize("start", ["heisenberg", "moved_h3_plus_r"])
def test_a_start_at_rest_takes_ros2_steps_from_t0(start, monkeypatch):
    # every metric of H3 and of H3 + R is a nilsoliton, so these starts are
    # fixed points of the normalized flow: the run builds its one J at t = 0,
    # and its ROS2 steps grow past DOP853's x10 ceiling (a DOP853 first step
    # and a x10 climb from h = 1e-4 took 7 steps and 35-42 evaluations)
    if start == "heisenberg":
        b = rescale_to_norm(heisenberg())
    else:
        # a 2-step algebra of dimension 4 is H3 + R; random_nilpotent moves it by GL(4)
        b = rescale_to_norm(random_nilpotent(4, np.random.default_rng(7)))
        assert nilpotency_degree(b) == 2
    switches = _recorded_jacobians(monkeypatch)
    trace = integrate_normalized_flow(b, 60.0)
    assert switches == [0.0] and trace.jacobian is not None
    assert trace.stats["rosenbrock_steps"] == trace.stats["accepted"] <= 3
    assert detect_convergence(trace).converged
    assert soliton_residual(trace.final_bracket, tol=1e-10).is_soliton


def test_a_moving_start_builds_its_jacobian_where_it_settles(monkeypatch):
    # a 2-step start at n = 5 is no soliton: DOP853 steps run until it settles
    switches = _recorded_jacobians(monkeypatch)
    trace = integrate_normalized_flow(random_sphere_bracket(5, 3), 60.0)
    assert len(switches) == 1 and switches[0] > 1.0
    ros2 = np.count_nonzero(trace.times > switches[0])
    assert trace.stats["rosenbrock_steps"] == ros2 < trace.stats["accepted"]


@pytest.mark.parametrize("start, most", [("heisenberg", 6), ("two_step_5", 30)])
def test_a_settled_run_reaches_t_1e6_in_a_few_steps(start, most):
    # the cost of a long horizon at the default tolerances: 5 steps for H3
    # and 25 for the n = 5 start (22 of them to T = 60).  Past T ~ 1e8 the
    # steps stop growing (H3: 287 steps to T = 1e9, 3,054 to 1e10), so the
    # bound pins today's cost, not an unbounded horizon
    if start == "heisenberg":
        b = rescale_to_norm(heisenberg())
    else:
        b = rescale_to_norm(random_two_step(5, np.random.default_rng(3)))
    trace = integrate_normalized_flow(b, 1e6)
    assert trace.times[-1] == 1e6 and trace.stats["accepted"] <= most
    assert detect_convergence(trace).converged


def test_a_run_that_stays_stiff_keeps_its_jacobian_across_hand_backs(monkeypatch):
    # DL8 in its own basis is stiff while it moves: a ROS2 stretch hands back
    # after one large increment and the stiffness test switches again; a J
    # built at every switch took 12 Jacobians and 1,577 evaluations to T = 20
    switches = _recorded_jacobians(monkeypatch)
    kinds = []
    for name in ("_rk_step", "_ros2_step"):
        step = getattr(flow, name)
        monkeypatch.setattr(flow, name, lambda *args, _step=step, _name=name: kinds.append(_name) or _step(*args))
    trace = integrate_normalized_flow(rescale_to_norm(dixmier_lister()), 20.0)
    stretches = sum(b == "_ros2_step" and a == "_rk_step" for a, b in zip(kinds, kinds[1:]))
    assert stretches >= 3 and len(switches) <= 3
    assert trace.stats["nfev"] < 1577
    assert trace.tr_ric2[-1] == pytest.approx(15 / 22, abs=1e-5)


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
@pytest.mark.parametrize("value", [0.0, -1e-9, float("nan"), float("inf"), True, np.True_, "1e-9"])
def test_tolerances_must_be_finite_and_positive(field, value):
    # atol = 0 would give a nan initial step and a step loop that never ends;
    # a bool is a number to Python, and True passed as 1.0; a str raised a
    # bare TypeError
    with pytest.raises(ConfigError, match="finite and > 0"):
        FlowOpts(**{field: value})


def test_max_step_must_be_positive():
    # min(h, nan) keeps h, so a nan max_step used to be ignored; True was a cap
    # of 1.0, and a str raised a bare TypeError
    for value in (0.0, -1.0, float("nan"), True, np.True_, "1"):
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


@pytest.mark.parametrize(
    "t_max",
    [float("inf"), float("nan"), -1.0, True, np.True_, "5"],
    ids=["inf", "nan", "negative", "bool", "numpy_bool", "string"],
)
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
    # inf looped forever; nan and -1 gave a one-sample trace at t = 0; a str
    # raised a bare TypeError
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


@pytest.mark.parametrize("c", [1.0, 1e-3, 1e-5])
def test_identities_fail_a_damaged_trace_at_every_scale(c):
    # heisenberg(c) at time t / c^2 is heisenberg(1) at t, scaled: every rate
    # shrinks with c, and an absolute floor of 1e-12 under the denominators
    # passed the damaged trace at c = 1e-5 (1.4e-9 and 1.5e-19)
    trace = integrate_bracket_flow(heisenberg(c), 1.0 / c**2, FlowOpts(max_step=0.01 / c**2))
    assert verify_flow_identities(trace).ok
    scal, energy = trace.scal.copy(), trace.tr_ric2.copy()
    scal[len(trace) // 2] *= 1.01
    energy[len(trace) // 2] *= 1.01
    damaged = verify_flow_identities(dataclasses.replace(trace, scal=scal, tr_ric2=energy))
    assert min(damaged.max_rel_err_scal, damaged.max_rel_err_energy) > 0.1


def test_identities_pass_the_zero_brackets_trace():
    trace = integrate_bracket_flow(heisenberg(0.0), 1.0, FlowOpts(max_step=0.02))
    assert not trace.tr_ric2.any()
    report = verify_flow_identities(trace)
    assert report.max_rel_err_scal == report.max_rel_err_energy == 0.0


_TOLERANCE_ENTRIES = {
    "validate_bracket": lambda tol: algebra.validate_bracket(heisenberg(), tol=tol),
    "soliton_residual": lambda tol: soliton_residual(heisenberg(), tol=tol),
    "detect_convergence": lambda tol: detect_convergence(
        integrate_normalized_flow(rescale_to_norm(heisenberg()), 1.0), tol=tol
    ),
    "verify_flow_identities": lambda tol: verify_flow_identities(
        integrate_bracket_flow(heisenberg(), 1.0, FlowOpts(max_step=0.05)), tolerance=tol
    ),
    "EquivalenceReport.ok": lambda tol: flow.EquivalenceReport(0.0, 0.0, 0.0).ok(tol),
}


@pytest.mark.parametrize(
    "tol", [math.nan, -1.0, 0.0, math.inf, True, "1e-8"], ids=["nan", "negative", "zero", "inf", "bool", "str"]
)
@pytest.mark.parametrize("entry", list(_TOLERANCE_ENTRIES))
def test_meaningless_tolerances_raise(entry, tol):
    # these read as failed checks: validate_bracket at nan said "jacobi
    # residual 0.000e+00 of mu / ||mu|| exceeds nan", and no soliton was found;
    # a str raised a bare TypeError from math.isfinite
    with pytest.raises(ConfigError, match="must be finite and > 0"):
        _TOLERANCE_ENTRIES[entry](tol)


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


@pytest.mark.parametrize(
    ("start", "constant"),
    [(heisenberg(), 2.0 / 3.0), (rescale_to_norm(filiform(5)), 5.0 / 3.0),
     (random_two_step(4, np.random.default_rng(5)), 2.0 / 3.0)],
    ids=["h3", "filiform5", "two_step4"],
)
def test_type3_reports_the_sharp_constant(start, constant):
    # t ||mu||^2 -> 2 (n - tr phi) from below, well inside the proven 2n;
    # the report states the limit and asserts nothing about it
    trace = integrate_bracket_flow(start, 1e5)
    report = type3_certificate(trace)
    assert report.predicted_norm_constant == pytest.approx(constant, rel=1e-12)
    assert report.to_dict()["predicted_norm_constant"] == report.predicted_norm_constant
    end = trace.times[-1] * trace.mu_norm[-1] ** 2
    assert end < report.predicted_norm_constant
    assert end == pytest.approx(report.predicted_norm_constant, rel=1e-4)


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
    # start's central series and derivation count.  rotated_2step8 gates
    # DOP853's stiffness test: without it the run stalls at the method's
    # stability limit, alternating accepted and rejected steps at h ~ 3.2 with
    # increments of 1.6-2.4, never switches to ROS2, and ends unconverged
    # with a certificate residual of 2.4e-8
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
    assert str(longer.value) == str(info.value) and "at t=28.3356 " in str(info.value)
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
    with pytest.raises(NumericalFailure, match=re.escape("cond(h) = 9.052e+07 at t=9.09296 ")):
        integrate_bracket_flow(heis, 50.0, r=-3.0)
    with pytest.raises(NumericalFailure, match="cond") as info:
        integrate_bracket_flow(heis, 1e-3, r=-1e6)
    # the last frame under the bound is one step before the crossing at t = 2.76e-5
    assert info.value.trace[-1][0] == pytest.approx(2.6e-5, rel=0.02)


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
    times, _ = _rotation_run(10.0, FlowOpts(stops=stops), check=check)
    assert len(thinned) >= 3 and len(times) <= 128
    assert judged[0] == 0.0 and judged[-1] == 10.0
    assert np.all(np.diff(judged) > 0.0)
    assert all(ts <= set(judged) for ts in thinned)
    assert set(stops) | set(times) <= set(judged)
    assert min(calls) > 0 and len(calls) <= len(judged) / flow._CHECK_EVERY + len(thinned) + 1


def test_check_judges_the_samples_of_a_failed_run():
    # a failure of the right side still has every sample it carries judged, so
    # damage before it is reported first
    judged = []

    def rhs(t, y):
        if t > 5.0:
            raise NumericalFailure("the right side failed")
        return _rotation(t, y)

    with pytest.raises(NumericalFailure, match="right side") as info:
        flow._integrate_adaptive(rhs, 0.0, np.array([1.0, 0.0]), 10.0, FlowOpts(),
                                 check=lambda samples, i: judged.extend(t for t, _ in samples[i:]))
    assert judged == [t for t, _ in info.value.trace] and len(judged) > 400


def _overflowing_after(rhs, calls):
    """rhs, but past `calls` evaluations its values are multiplied past the float range."""
    count = []

    def overflowing(t, y):
        count.append(None)
        dy = rhs(t, y)
        return dy if len(count) <= calls else dy * 1e308 * 1e308

    return overflowing


def test_an_overflow_in_a_run_is_a_numerical_failure_with_its_samples():
    # the run holds one raising error state: an overflow in the right side
    # is no warning and no nan step, but a failure at the last accepted time,
    # with the samples accepted before it judged
    judged, before = [], np.geterr()
    with pytest.raises(NumericalFailure, match="^overflow encountered in multiply at t=") as info:
        flow._integrate_adaptive(_overflowing_after(_rotation, 200), 0.0, np.array([1.0, 0.0]), 10.0, FlowOpts(),
                                 check=lambda samples, i: judged.extend(t for t, _ in samples[i:]))
    accepted = info.value.trace
    assert accepted[0][0] == 0.0 and len(accepted) > 10
    assert str(info.value).endswith(f" at t={accepted[-1][0]:.6g}")
    assert judged == [t for t, _ in accepted]
    # and the caller's error state is back once the run has failed
    assert np.geterr() == before


def test_an_overflow_in_a_companion_or_metric_run_keeps_its_samples(monkeypatch):
    b0 = rescale_to_norm(filiform(4))
    trace = integrate_bracket_flow(b0, 5.0, FlowOpts(max_step=0.05))
    real_frame, real_metric = flow._frame_generator, flow._metric_flow
    monkeypatch.setattr(flow, "_frame_generator", lambda *args, **kw: _overflowing_after(real_frame(*args, **kw), 100))
    with pytest.raises(NumericalFailure) as companion:
        cointegrate_h(trace)
    assert str(companion.value).startswith("the companion frame h became singular: overflow encountered")

    def metric_flow(*args):
        rhs, factor = real_metric(*args)
        return _overflowing_after(rhs, 100), factor

    monkeypatch.setattr(flow, "_metric_flow", metric_flow)
    with pytest.raises(NumericalFailure, match="^overflow encountered in multiply at t=") as metric:
        integrate_innerproduct_flow(b0, 5.0, FlowOpts(max_step=0.05))
    for info in (companion, metric):
        accepted = info.value.trace
        assert accepted is not None and accepted[0][0] == 0.0 and len(accepted) > 2
        assert str(info.value).endswith(f" at t={accepted[-1][0]:.6g}")


def test_a_run_enters_its_error_state_once_not_per_evaluation(monkeypatch):
    # the right sides invert without an error state of their own; what is
    # left is one per run, per check batch and per ROS2 step, not per evaluation
    entries = []
    real = np.errstate

    def counting(*args, **kwargs):
        entries.append(kwargs)
        return real(*args, **kwargs)

    b0 = random_nilpotent(6, np.random.default_rng(0))
    monkeypatch.setattr(np, "errstate", counting)
    trace = integrate_bracket_flow(b0, 50.0)
    monkeypatch.undo()
    stats = trace.stats
    batches = -(-len(trace) // flow._CHECK_EVERY)
    # the run's state, the first step's and _finish_trace's inverse, two per check batch, one per ROS2 W
    bound = 3 + 2 * batches + stats["rosenbrock_steps"] + stats["rejected"]
    assert entries.count(flow._RUN_ERRSTATE) == 1
    assert len(entries) <= bound < stats["nfev"] / 10


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
    # a bool is a numbers.Real: True ran the constant rate 1.0, False 0.0 as kind "r"
    for r in ("fast", 1 + 0j, True, False, np.True_):
        with pytest.raises(BadRate):
            integrate_bracket_flow(heis, 1.0, r=r)
        with pytest.raises(BadRate):
            integrate_innerproduct_flow(heis, 1.0, r=r)


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
    """Fail, instead of hanging, an integration that tries 1,000 explicit steps."""
    calls = []

    def bounded(step):
        def counting(*args):
            calls.append(None)
            assert len(calls) < 1000, "the integration does not end"
            return step(*args)

        return counting

    monkeypatch.setattr(flow, "_rk_step", bounded(flow._rk_step))


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
    # the brackets are views of the trace's coefficients, which nothing can write
    assert not trace.coeffs.flags.writeable
    assert all(np.shares_memory(b.coeffs, trace.coeffs) for b in brackets)
    assert trace.final_bracket is trace.final_bracket
    assert np.array_equal(trace.initial_bracket.coeffs, trace.coeffs[0])
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


@pytest.mark.parametrize(
    "normalized, max_step, cap, t_max",
    [
        pytest.param(False, math.inf, 8192, 5.0, id="False"),
        pytest.param(True, math.inf, 8192, 5.0, id="True"),
        # the samples kept after thinning are moved as well as the first ones:
        # 9 steps and 3 grid samples thinned into at most 8
        pytest.param(True, 0.005, 8, 2.0, id="thinned"),
    ],
)
def test_stored_frames_pull_the_bracket(normalized, max_step, cap, t_max, monkeypatch):
    monkeypatch.setattr(flow, "_MAX_SAMPLES", cap)
    b0 = rescale_to_norm(random_nilpotent(5, _rng(7)))
    run = integrate_normalized_flow if normalized else integrate_bracket_flow
    trace = run(b0, t_max, FlowOpts(max_step=max_step))
    assert len(trace) <= cap
    assert np.array_equal(trace.frames[0], np.eye(5))
    for h, b in zip(trace.frames, trace.brackets):
        assert np.abs(gl_action(h, b0).coeffs - b.coeffs).max() <= 1e-14


@pytest.mark.parametrize(
    "normalized, max_step, cap",
    [
        pytest.param(False, math.inf, 8192, id="False"),
        pytest.param(True, math.inf, 8192, id="True"),
        # 6 steps and 3 grid samples kept in at most 8: sample times are not steps
        pytest.param(True, 0.005, 8, id="thinned"),
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
    # h' = -(Ric + r I) h by the three-point difference that is second order
    # on uneven spacing; a normalized trace needs the normalized generator
    # here too, or the repelling sphere shows by t = 10
    b0 = sphere_perturbation(rescale_to_norm(filiform(4)), _rng(1))
    flow = integrate_normalized_flow if normalized else integrate_bracket_flow
    trace = flow(b0, 10.0, FlowOpts(max_step=0.02))
    hs = cointegrate_h(trace)
    t = trace.times
    for i in range(1, len(trace) - 1):
        a, b = t[i] - t[i - 1], t[i + 1] - t[i]
        dh = (a * a * (hs[i + 1] - hs[i]) + b * b * (hs[i] - hs[i - 1])) / (a * b * (a + b))
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
        samples, stats, jac = integrate(*args)
        accepted.append(stats["accepted"])
        return samples, stats, jac

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
    # the companion h degenerates like exp(-tD): its h.mu0 fails the gauged
    # run's skew check, so the companion run keeps the cond(h) bound alone
    c = _gl_action_coeffs(hs[-1], np.linalg.inv(hs[-1]), b.coeffs)
    assert np.abs(c + c.swapaxes(0, 1)).max() / np.linalg.norm(c) > flow._MAX_SKEW_DEFECT


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


def test_innerproduct_scal_rejects_a_metric_that_is_not_symmetric(heis):
    # the Cholesky factorization reads the lower triangle alone: G[0, 2] = 50
    # returned -0.5, the value for I
    g = np.eye(3)
    g[0, 2] = 50.0
    with pytest.raises(SingularMatrix, match="not symmetric"):
        innerproduct_scal(heis, g)
    with pytest.raises(SingularMatrix, match="not symmetric"):
        innerproduct_scal(heis, np.stack([np.eye(3), g]))
    # rounding-sized asymmetry is no defect
    g = np.eye(3)
    g[0, 2] = g[2, 0] + 1e-16
    assert innerproduct_scal(heis, g) == innerproduct_scal(heis, np.eye(3))


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


def test_the_singular_factor_test_reads_log_diag_l_alone(heis_sphere):
    metric, _ = flow._metric_flow(heis_sphere, "scalar")
    # an entry below log(tiny) off the diagonal of L is no singular factor
    low = np.zeros(6)
    low[1] = 2.0 * flow._LOG_TINY
    assert np.isfinite(metric(0.0, low)).all()
    assert np.isfinite(metric(0.0, np.stack([low, low]))).all()
    # and a nan there hides no singular one
    bad = np.zeros(6)
    bad[1], bad[5] = np.nan, 2.0 * flow._LOG_TINY
    for y in (bad, np.stack([low, bad])):
        with pytest.raises(NumericalFailure, match="metric factor became singular"):
            metric(0.0, y)


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


def test_the_companion_check_runs_its_svds_only_past_the_screen(heis, monkeypatch):
    # ||h||_F ||h^{-1}||_F >= cond(h) clears a batch of well-conditioned frames
    # without an SVD; a batch it does not clear, or whose inverse raises, is
    # judged by the SVDs, with their message
    check = flow._frame_check(heis, False)
    svds = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a: svds.append(len(a)) or cond(a))
    good = [(0.1 * i, np.diag([1.0, 2.0, 3.0 + i]).reshape(-1)) for i in range(4)]
    check(good, 0)
    assert svds == []
    for bad, shown in ((np.diag([1.0, 1e-9, 1.0]), r"1\.000e\+09"), (np.zeros((3, 3)), r"(inf|nan)")):
        with pytest.raises(NumericalFailure, match=rf"cond\(h\) = {shown} at t=0\.5 exceeds") as info:
            check(good + [(0.5, bad.reshape(-1))], 0)
        assert len(info.value.trace) == 4
    assert svds == [5, 5]


def test_the_gauged_check_runs_no_svd_on_a_batch_its_screen_clears(heis, monkeypatch):
    # one inverse of the batch feeds the screen and the move to h.mu0; the
    # SVDs run only on a batch the screen does not clear
    check = flow._frame_check(heis, True)
    svds = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a: svds.append(len(a)) or cond(a))
    good = [(0.1 * i, np.diag([1.0, 2.0, 3.0 + i]).reshape(-1)) for i in range(4)]
    check(good, 0)
    assert svds == []
    with pytest.raises(NumericalFailure, match=r"^cond\(h\) = 1\.000e\+09 at t=0\.5 exceeds 1/sqrt\(eps\)$") as info:
        check(good + [(0.5, np.diag([1.0, 1e-9, 1.0]).reshape(-1))], 0)
    assert len(info.value.trace) == 4 and svds == [5]


@pytest.mark.parametrize(
    "start, t_max",
    [(lambda: rescale_to_norm(dense_starts(6, 5)[0]), 10.0), (lambda: rescale_to_norm(dixmier_lister()), 20.0)],
    ids=["dense", "dixmier_lister"],
)
def test_frame_stats_are_the_maxima_over_the_stored_frames(start, t_max, monkeypatch):
    # the trace reads them from the frames it moves, before it rescales them
    b = start()
    judged = []
    frame_check = flow._frame_check

    def recording(b0, gauge):
        check = frame_check(b0, gauge)
        return lambda samples, i: judged.extend(y for _, y in samples[i:]) or check(samples, i)

    monkeypatch.setattr(flow, "_frame_check", recording)
    trace = integrate_normalized_flow(b, t_max)
    frames = np.array(judged).reshape(-1, b.n, b.n)
    assert len(frames) == len(trace) and not np.array_equal(frames, trace.frames)  # rescaled
    c = _gl_action_coeffs(frames, np.linalg.inv(frames), b.coeffs)
    defect = np.abs(c + c.swapaxes(1, 2)).max(axis=(1, 2, 3)) / flow._norm(c)
    assert trace.stats["max_cond_h"] == np.linalg.cond(frames).max()
    assert trace.stats["max_skew_defect"] == defect.max() > 0.0


@pytest.mark.parametrize("r", [None, 0.5, "scalar"], ids=["unnormalized", "constant", "scalar"])
@pytest.mark.parametrize("n", range(3, 9))
def test_right_sides_are_bitwise_their_matmul_forms(n, r):
    # the frame, companion and metric right sides call ndarray.dot on single
    # 2-D and 1-D arrays; each must give the bits of its @ form, and each lane
    # of a (B, N) stack of states the bits of its 1-D call
    rng = np.random.default_rng(800 + n)
    lower = np.tri(n, dtype=bool)
    on_diagonal = np.eye(n, dtype=bool)[lower]
    weights = np.where(np.eye(n, dtype=bool), -1.0, np.where(lower, -2.0, 0.0))  # Phi(-2 X) = X * weights
    for b0 in dense_starts(n, 900 + n):
        if r == "scalar":
            b0 = rescale_to_norm(b0)
        kernel = flow._shifted_ricci(b0, r)
        frame = flow._frame_generator(b0, r)
        basis = b0._derivations.reshape(-1, n * n)
        companion = flow._frame_generator(b0, r, gauge=False)
        metric, factor = flow._metric_flow(b0, r)
        # cond(h) <= 4; h is lower triangular with a positive diagonal, so it is also a metric factor
        upper = np.linalg.qr(random_orthogonal(n, rng) @ np.diag(rng.uniform(0.5, 2.0, n)))[1]
        lmat = upper.T * np.sign(np.diag(upper))
        frames = (random_orthogonal(n, rng) @ lmat, lmat)
        for h in frames:
            hinv = np.linalg.inv(h)
            xh = kernel(h, hinv) @ h
            d = ((basis.T @ basis) @ (hinv @ xh).reshape(-1)).reshape(n, n)
            assert np.array_equal(frame(0.0, h.reshape(-1)), (h @ d - xh).reshape(-1))
            assert np.array_equal(companion(0.0, h.reshape(-1)), -(kernel(h, hinv) @ h).reshape(-1))
        stack = np.stack(frames).reshape(len(frames), -1)
        for rhs in (frame, companion):
            assert np.array_equal(rhs(0.0, stack), [rhs(0.0, y) for y in stack])
        state = lmat.copy()
        state[np.diag_indices(n)] = np.log(np.diag(lmat))
        state = state[lower]
        lmat = factor(state)  # exp(log L_ii) may differ from L_ii in the last bit
        phi = kernel(lmat.T, np.linalg.inv(lmat.T)) * weights
        ref = (lmat @ phi)[lower]
        ref[on_diagonal] = np.diag(phi)
        assert np.array_equal(metric(0.0, state), ref)
        states = np.stack([state, 0.5 * state, -state])
        assert np.array_equal(metric(0.0, states), [metric(0.0, y) for y in states])
        assert np.array_equal(factor(states), [factor(y) for y in states])


def _column_jacobian(f, t, y, f0):
    """Forward-difference Jacobian one column, and one right-side call, at a
    time: the increments of flow._jacobian."""
    delta = np.sqrt(np.finfo(float).eps * np.maximum(np.abs(y), 1e-5))
    jac = np.empty((y.size, y.size))
    for j in range(y.size):
        yj = y.copy()
        yj[j] += delta[j]
        jac[:, j] = (f(t, yj) - f0) / (yj[j] - y[j])
    return jac


@pytest.mark.parametrize("n", range(3, 9))
def test_the_jacobian_is_one_stacked_call_with_the_bits_of_its_columns(n):
    rng = np.random.default_rng(700 + n)
    h = random_orthogonal(n, rng) @ np.diag(rng.uniform(0.5, 2.0, n)) @ random_orthogonal(n, rng)
    for b0 in dense_starts(n, 700 + n):
        b0 = rescale_to_norm(b0)
        sides = [(flow._frame_generator(b0, r), h.reshape(-1)) for r in (None, 0.5, "scalar")]
        sides += [(flow._frame_generator(b0, r, gauge=False), h.reshape(-1)) for r in (None, "scalar")]
        sides.append((flow._metric_flow(b0, "scalar")[0], 0.3 * rng.standard_normal(n * (n + 1) // 2)))
        for rhs, y in sides:
            calls = []

            def recording(t, states):
                calls.append(states)
                return rhs(t, states)

            f0 = rhs(0.0, y)
            jac = flow._jacobian(recording, 0.0, y, f0)
            # one call, on the C-ordered stack of the N moved states
            assert len(calls) == 1 and calls[0].shape == (y.size, y.size) and calls[0].flags.c_contiguous
            assert np.array_equal(jac, _column_jacobian(rhs, 0.0, y, f0))


def test_a_singular_lane_raises_the_failure_of_its_1d_call(heis_sphere):
    frame = flow._frame_generator(heis_sphere, "scalar")
    companion = flow._frame_generator(heis_sphere, "scalar", gauge=False)
    metric, _ = flow._metric_flow(heis_sphere, "scalar")
    tiny = np.zeros(6)
    tiny[5] = 2.0 * flow._LOG_TINY  # L_33 below the normal range
    # a zero pivot of the frame's LU: the inverse raises FloatingPointError, the right side NumericalFailure
    singular = np.diag([1.0, 1.0, 0.0]).reshape(-1)
    for rhs, good, bad, message in ((frame, np.eye(3).reshape(-1), singular, "h is singular at t=2.5"),
                                    (companion, np.eye(3).reshape(-1), singular, "h is singular at t=2.5"),
                                    (metric, np.zeros(6), tiny, "the metric factor became singular at t=2.5")):
        # the right sides are evaluated inside a run, whose error state makes
        # the inverse of a singular h raise
        with np.errstate(**flow._RUN_ERRSTATE):
            with pytest.raises(NumericalFailure) as single:
                rhs(2.5, bad)
            with pytest.raises(NumericalFailure) as stacked:
                rhs(2.5, np.stack([good, bad, good]))
        assert str(stacked.value) == str(single.value) == message


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


@pytest.mark.parametrize("t_max", [math.inf, -math.inf, math.nan, -1.0, True, "1"])
def test_equivalence_rejects_a_time_that_is_not_finite_and_nonnegative(t_max, heis_sphere):
    # checked before the grid: np.linspace warned on inf, the error named the
    # stops, and a str raised a bare TypeError
    with pytest.raises(ConfigError, match=r"^the integration must end at a finite time >= 0, got "):
        equivalence_report(heis_sphere, t_max)


@pytest.mark.parametrize("checkpoints", [2.5, "3", True, 26.0, None])
def test_equivalence_rejects_checkpoints_that_are_not_ints(checkpoints, heis_sphere):
    # 2.5 and "3" raised a bare TypeError
    with pytest.raises(ConfigError, match="checkpoints must be an int of at least 2"):
        equivalence_report(heis_sphere, 1.0, checkpoints=checkpoints)


def test_equivalence_takes_a_numpy_int_of_checkpoints(heis_sphere):
    assert equivalence_report(heis_sphere, 0.5, checkpoints=np.int64(3)).ok(1e-5)


def test_equivalence_rejects_callable(heis_sphere):
    with pytest.raises(TypeError):
        equivalence_report(heis_sphere, 1.0, r=lambda b: 0.0)


def test_equivalence_with_a_singular_frame_raises():
    # near the soliton the companion frame degenerates like exp(-tD); np.linalg.inv
    # ended the report in LinAlgError, and without a bound the run went on until
    # its products overflowed (t = 116.605); the frame flow's cond(h) bound ends it
    # where h.mu0 stops meaning anything
    b = rescale_to_norm(random_two_step(5, np.random.default_rng(3)))
    match = r"^the companion frame h became singular: cond\(h\) = 7\.818e\+07 at t=11\.8158 exceeds 1/sqrt\(eps\)$"
    with pytest.raises(NumericalFailure, match=match):
        equivalence_report(b, 120.0, r="scalar")


def test_companion_overflow_outside_the_right_side_is_a_numerical_failure(heis, monkeypatch):
    # every run holds its error state around the whole integration, so an
    # overflow in the integrator's own arithmetic (here the error norm of the
    # companion's DOP853 steps) raises FloatingPointError there, and must not
    # end in a traceback
    trace = integrate_bracket_flow(heis, 1.0)
    error_norm = flow._dop853_error_norm
    monkeypatch.setattr(flow, "_dop853_error_norm", lambda q: error_norm(1e300 * q))
    with pytest.raises(NumericalFailure, match="^the companion frame h became singular: overflow"):
        cointegrate_h(trace)


def test_derivation_basis_is_built_once_per_bracket(monkeypatch):
    calls = []
    delta_matrix = algebra._delta_matrix

    def counting(c):
        calls.append(c.shape)
        return delta_matrix(c)

    monkeypatch.setattr(algebra, "_delta_matrix", counting)
    b = rescale_to_norm(random_two_step(5, np.random.default_rng(8)))
    integrate_bracket_flow(b, 1.0)
    integrate_bracket_flow(b, 2.0, r="scalar")
    basis = derivation_basis(b)
    # the two flows and the public function share the bracket's one SVD
    assert len(calls) == 1
    # a list of read-only arrays, new on each call
    with pytest.raises(ValueError):
        basis[0][0, 0] = 1.0
    basis.clear()
    assert len(derivation_basis(b)) > 0
    # a new bracket with the same coefficients builds its own
    again = derivation_basis(Bracket(b.coeffs))
    assert len(calls) == 2
    assert all(np.array_equal(d, e) for d, e in zip(again, derivation_basis(b), strict=True))


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
