"""
The unnormalized bracket flow and its decay bounds
==================================================

The flow mu' = delta_mu(Ric_mu) on structure constants is the Ricci flow of
the corresponding left-invariant metrics, rewritten so that the manifold
stays fixed and only the algebra moves.  On nilpotent brackets it exists for
all positive time and curvature decays like C/t.

The Heisenberg bracket gives a closed-form solution to check the integrator
against; random 2-step brackets illustrate the universal bounds
t |mu(t)|^2 <= 2n and t |Ric| <= sqrt(3) n / 2.
"""

import numpy as np

from nilflow import (
    FlowOpts,
    heisenberg,
    integrate_bracket_flow,
    random_two_step,
    type3_certificate,
    verify_flow_identities,
)


def main():
    # 1. the Heisenberg family is flow-invariant and c(t)^2 = c0^2/(1 + 3 c0^2 t)
    print("Heisenberg bracket against the exact solution:")
    trace = integrate_bracket_flow(heisenberg(1.0), 10.0, FlowOpts(stops=(0.1, 1.0)))
    print(f"  {'t':>6}  {'c(t)^2':>12}  {'exact':>12}  {'rel err':>9}")
    for t in (0.1, 1.0, 10.0):
        c2 = trace.brackets[trace.index_of_time(t)].coeffs[0, 1, 2] ** 2
        exact = 1.0 / (1.0 + 3.0 * t)
        print(f"  {t:6.1f}  {c2:12.9f}  {exact:12.9f}  {abs(c2 - exact) / exact:9.1e}")
    print(f"  accepted steps: {trace.stats['accepted']}, rejected: {trace.stats['rejected']}")

    # 2. along any solution, d/dt scal = 2 tr Ric^2 and the energy dissipates as
    #    d/dt tr Ric^2 = -|delta_mu(Ric)|^2; differentiate the stored samples and compare
    b = random_two_step(5, np.random.default_rng(7))
    dense = integrate_bracket_flow(b, 1.0, FlowOpts(max_step=0.01))
    rep = verify_flow_identities(dense)
    print("\nFirst-order identities on a random 2-step bracket:")
    print(f"  max rel err d/dt scal       : {rep.max_rel_err_scal:.2e}")
    print(f"  max rel err d/dt tr Ric^2   : {rep.max_rel_err_energy:.2e}")

    # 3. the type-III decay bounds, on a batch of random starts
    print("\nDecay bounds over [0, 50] (ratios of the proven constants):")
    print(f"  {'n':>3}  {'sup t|mu|^2 / 2n':>17}  {'sup t|Ric| / (sqrt3 n/2)':>25}")
    for n in (3, 4, 5, 6):
        b = random_two_step(n, np.random.default_rng(n))
        t3 = type3_certificate(integrate_bracket_flow(b, 50.0))
        print(f"  {n:3d}  {t3.sup_norm_ratio:17.4f}  {t3.ricci_bound_ratio:25.4f}")
    print("  (both stay below 1: curvature decays at least like C/t)")

    # 4. the norm never stops decreasing, but never reaches zero either --
    #    the flow is immortal and converges to the abelian bracket
    trace = integrate_bracket_flow(heisenberg(1.0), 1000.0)
    print(f"\n|mu| after t = 1000: {trace.final_bracket.norm:.6f} (analytic {np.sqrt(2 / 3001):.6f})")


if __name__ == "__main__":
    main()
