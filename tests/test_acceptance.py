"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured quantity next to its tolerance.  Run with -s to see the
lines for passing criteria too.
"""

import time

import numpy as np

from nilflow.algebra import delta, delta_transpose, derivation_basis, gl_action, vn_inner
from nilflow.bch import bch_product, metric_at, metric_convergence_distance, metric_field_2step
from nilflow.curvature import ricci_energy, ricci_energy_gradient, ricci_operator
from nilflow.flow import (
    FlowOpts,
    cointegrate_h,
    equivalence_report,
    integrate_bracket_flow,
    integrate_innerproduct_flow,
    integrate_normalized_flow,
)
from nilflow.generators import (
    filiform,
    heisenberg,
    random_skew,
    random_two_step,
    rescale_to_norm,
    sphere_perturbation,
)
from nilflow.soliton import detect_convergence


def _verdict(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_heisenberg_analytic_solution():
    t0 = time.perf_counter()
    trace = integrate_bracket_flow(heisenberg(1.0), 10.0, FlowOpts(stops=(0.1, 1.0)))
    worst = 0.0
    for t in (0.1, 1.0, 10.0):
        c2 = trace.brackets[trace.index_of_time(t)].coeffs[0, 1, 2] ** 2
        exact = 1.0 / (1.0 + 3.0 * t)
        worst = max(worst, abs(c2 - exact) / exact)
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        worst < 1e-6 and elapsed < 1.0,
        f"max rel err {worst:.2e} (< 1e-06), runtime {elapsed:.3f} s (< 1 s)",
    )


def test_criterion_02_norm_decay_bound():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for seed in range(50):
        n = 3 + seed % 4
        b = random_two_step(n, np.random.default_rng(seed))
        trace = integrate_bracket_flow(b, 50.0)
        sup = float(np.max(trace.times * trace.mu_norm**2))
        worst_ratio = max(worst_ratio, sup / (2.0 * n))
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        worst_ratio <= 1.0 and elapsed < 60.0,
        f"sup t*|mu|^2 / 2n = {worst_ratio:.4f} (<= 1), 50 flows in {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_03_ricci_norm_bound():
    rng = np.random.default_rng(3)
    worst = -np.inf
    bound_const = np.sqrt(3.0) / 4.0
    for i in range(1000):
        n = 2 + i % 5
        scale = 10.0 ** rng.uniform(-1, 1)
        v = random_skew(n, rng, scale=scale)
        margin = np.linalg.norm(ricci_operator(v)) - bound_const * vn_inner(v, v)
        worst = max(worst, margin)
    _verdict(3, worst <= 1e-9, f"max ||Ric|| - (sqrt3/4)||mu||^2 = {worst:.2e} (<= 1e-09)")


def test_criterion_04_energy_gradient():
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(50):
        n = 3 + i % 3
        y = random_skew(n, rng)
        grad = ricci_energy_gradient(y)
        for _ in range(3):
            v = random_skew(n, rng)
            v = type(v)(v.coeffs / np.linalg.norm(v.coeffs))
            h = 1e-5 * max(1.0, float(np.linalg.norm(y.coeffs)))
            f_plus = ricci_energy(type(y)(y.coeffs + h * v.coeffs))
            f_minus = ricci_energy(type(y)(y.coeffs - h * v.coeffs))
            fd = (f_plus - f_minus) / (2.0 * h)
            pred = float(np.sum(grad.coeffs * v.coeffs))
            rel = abs(pred - fd) / max(abs(pred), abs(fd), 1e-12)
            worst = max(worst, rel)
    _verdict(4, worst < 1e-6, f"max rel err grad vs FD {worst:.2e} (< 1e-06)")


def test_criterion_05_structural_identities():
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(200):
        n = 3 + i % 4
        b = rescale_to_norm(random_two_step(n, rng), 2.0)
        ric = ricci_operator(b)
        worst = max(worst, float(np.abs(delta(b, np.eye(n)).coeffs - b.coeffs).max()))
        worst = max(worst, float(np.abs(delta_transpose(b, b) + 4.0 * ric).max()))
        for d in derivation_basis(b):
            worst = max(worst, abs(float(np.sum(ric * d.T))))
        worst = max(worst, abs(float(np.trace(ric)) + 0.25 * vn_inner(b, b)))
    _verdict(5, worst < 1e-10, f"max identity residual {worst:.2e} (< 1e-10)")


def test_criterion_06_flow_ode_identities():
    from nilflow.flow import verify_flow_identities

    worst = 0.0
    starts = [rescale_to_norm(random_two_step(5, np.random.default_rng(s))) for s in (3, 41, 99)]
    starts.append(filiform(5))
    for b in starts:
        trace = integrate_bracket_flow(b, 1.0, FlowOpts(max_step=0.01))
        rep = verify_flow_identities(trace)
        worst = max(worst, rep.max_rel_err_scal, rep.max_rel_err_energy)
    _verdict(6, worst < 1e-4, f"max rel err of d/dt scal, d/dt tr Ric^2 = {worst:.2e} (< 1e-04)")


def test_criterion_07_three_presentations_agree():
    t0 = time.perf_counter()
    worst_pull = 0.0
    worst_gram = 0.0
    grid = np.linspace(0.0, 5.0, 26)
    opts = FlowOpts(max_step=0.05, stops=tuple(grid[1:-1]))
    for b in (heisenberg(1.0), filiform(4)):
        trace = integrate_bracket_flow(b, 5.0, opts)
        hs = cointegrate_h(trace)
        ip = integrate_innerproduct_flow(b, 5.0, opts)
        for i in range(len(trace)):
            pulled = gl_action(hs[i], b)
            rel = np.linalg.norm(pulled.coeffs - trace.brackets[i].coeffs) / trace.mu_norm[i]
            worst_pull = max(worst_pull, rel)
        for t in grid:
            i = trace.index_of_time(float(t))
            g = ip.metrics[ip.index_of_time(float(t))]
            worst_gram = max(worst_gram, float(np.linalg.norm(g - hs[i].T @ hs[i])))
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        worst_pull < 1e-5 and worst_gram < 1e-5 and elapsed < 10.0,
        f"pullback {worst_pull:.2e}, |G - h^T h| {worst_gram:.2e} (< 1e-05), "
        f"runtime {elapsed:.2f} s (< 10 s)",
    )


def test_criterion_08_normalized_flow_conservation():
    worst_norm = 0.0
    worst_scal = 0.0
    for seed in range(10):
        n = 3 + seed % 4
        b = rescale_to_norm(random_two_step(n, np.random.default_rng(200 + seed)))
        trace = integrate_normalized_flow(b, 50.0)
        worst_norm = max(worst_norm, float(np.abs(trace.mu_norm - 2.0).max()))
        worst_scal = max(worst_scal, float(np.abs(trace.scal + 1.0).max()))
    _verdict(
        8,
        worst_norm < 1e-8 and worst_scal < 1e-8,
        f"|mu| drift {worst_norm:.2e}, |scal + 1| {worst_scal:.2e} (< 1e-08) over [0, 50]",
    )


def test_criterion_09_heisenberg_basin():
    base = rescale_to_norm(heisenberg(1.0))
    worst_resid = 0.0
    worst_spec = 0.0
    min_eig = np.inf
    all_converged = True
    for i in range(20):
        b = sphere_perturbation(base, np.random.default_rng(100 + i), eps=0.3)
        trace = integrate_normalized_flow(b, 50.0)
        rep = detect_convergence(trace)
        all_converged = all_converged and rep.converged
        worst_resid = max(worst_resid, rep.certificate.residual)
        ric = ricci_operator(trace.final_bracket)
        spec = np.linalg.eigvalsh(ric)
        worst_spec = max(worst_spec, float(np.abs(spec - np.array([-1.0, -1.0, 1.0])).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(ric + rep.r_limit * np.eye(3)).min()))
    _verdict(
        9,
        all_converged and worst_resid < 1e-8 and worst_spec < 1e-6 and min_eig > 0.0,
        f"20/20 converged: {all_converged}, max residual {worst_resid:.2e} (< 1e-08), "
        f"max spectrum err {worst_spec:.2e} (< 1e-06), min eig(Ric + r*I) {min_eig:.3f} (> 0)",
    )


def test_criterion_10_metric_pipeline():
    rng = np.random.default_rng(10)
    worst_metric = 0.0
    worst_assoc = 0.0
    for i in range(20):
        n = 3 + i % 4
        b = random_two_step(n, rng)
        field = metric_field_2step(b)
        for _ in range(50):
            x = rng.standard_normal(n)
            worst_metric = max(worst_metric, float(np.abs(metric_at(b, x) - field(x)).max()))
        for _ in range(5):
            x, y, z = rng.standard_normal((3, n))
            lhs = bch_product(b, bch_product(b, x, y), z)
            rhs = bch_product(b, x, bch_product(b, y, z))
            worst_assoc = max(worst_assoc, float(np.linalg.norm(lhs - rhs)))
    _verdict(
        10,
        worst_metric < 1e-12 and worst_assoc < 1e-10,
        f"metric closed-form mismatch {worst_metric:.2e} (< 1e-12), "
        f"associativity {worst_assoc:.2e} (< 1e-10)",
    )


def test_criterion_11_coefficientwise_convergence():
    stops = (3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    b = rescale_to_norm(random_two_step(5, np.random.default_rng(1)))
    trace = integrate_normalized_flow(b, 50.0, FlowOpts(stops=stops))
    limit = trace.final_bracket
    ds = [
        metric_convergence_distance(trace.brackets[trace.index_of_time(t)], limit, 2.0, p=2)
        for t in stops
    ]
    monotone = all(a > c for a, c in zip(ds, ds[1:]))
    # the convergence is exponential at the rate of the flow's linearization
    slope = np.polyfit(stops, np.log(ds), 1)[0]
    rate = detect_convergence(trace).decay_rate
    _verdict(
        11,
        monotone and ds[-1] < 1e-6 and abs(slope - rate) < 1e-3,
        f"tail distances monotone: {monotone}, final {ds[-1]:.2e} (< 1e-06) "
        f"[{', '.join(f'{d:.1e}' for d in ds)}], log-distance slope {slope:.6f} vs decay rate {rate:.6f}",
    )
