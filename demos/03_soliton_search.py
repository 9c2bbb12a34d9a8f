"""
Normalized flow and soliton limits
==================================

Rescaled to the sphere |mu| = 2 (equivalently scal = -1), the bracket flow
becomes the negative gradient flow of F(mu) = tr Ric^2.  Its limits are
nilsolitons: brackets whose Ricci operator is c I + D with D a derivation.
These are exactly the Ricci-soliton metrics among nilmanifolds.  Since
tr(Ric D) = 0 for every derivation D, c can only be -4 tr Ric^2 / |mu|^2,
so the certificate checks one closed formula: D = Ric - c I is a derivation.

This script flows a perturbed filiform bracket to its soliton limit and
certifies the result.  The tail's decay rate is the slowest nonzero
eigenvalue of the flow's linearization at the limit, read off the Jacobian
the integrator builds once the run settles; the gap is the ratio that
splits it from the zero eigenvalues.
"""

import numpy as np

from nilflow import (
    detect_convergence,
    filiform,
    integrate_normalized_flow,
    orbit_invariants,
    rescale_to_norm,
    soliton_residual,
    sphere_perturbation,
)


def main():
    # 1. the equal-constants filiform bracket is itself a soliton:
    #    Ric = diag(-1, -1/2, 0, 1/2) = -3/2 I + diag(1/2, 1, 3/2, 2),
    #    and the diagonal part is a derivation
    fil = filiform(4)
    cert = soliton_residual(fil)
    print("filiform(4) certificate:")
    diag = ", ".join(f"{v:.4f}" for v in np.diag(cert.derivation))
    print(f"  Ric = c I + D with c = {cert.c:+.4f}, D = diag({diag})")
    print(f"  residual |delta(D)| = {cert.residual:.2e}")
    print(f"  is_soliton: {cert.is_soliton}")

    # 2. perturb it inside the GL-orbit (same algebra, different metric) and
    #    put it back on the sphere -- no longer a critical point, so the
    #    residual (the normalized flow's speed) is no longer 0
    start = sphere_perturbation(rescale_to_norm(fil), np.random.default_rng(4), eps=0.25)
    print(f"\nperturbed start: residual {soliton_residual(start).residual:.3f}")

    # 3. the normalized flow pulls it back to the soliton
    print(f"\n  {'t_max':>6}  {'converged':>9}  {'residual':>9}  {'decay rate':>10}  {'gap':>8}")
    for t_max in (0.5, 40.0, 320.0):
        trace = integrate_normalized_flow(start, t_max)
        rep = detect_convergence(trace)
        print(
            f"  {t_max:6.1f}  {str(rep.converged):>9}  {rep.certificate.residual:9.2e}"
            f"  {rep.decay_rate:10.6f}  {rep.rate_gap:8.2e}"
        )
    print(f"  verdict: {rep.reason}")
    limit = trace.final_bracket
    spec = ", ".join(f"{v:+.4f}" for v in orbit_invariants(limit)["ricci_spectrum"])
    print(f"  limit Ricci spectrum: [{spec}]   r_limit = {rep.r_limit:.6f}")

    # 4. on |mu| = 2, c = -4 tr Ric^2 / |mu|^2 is minus the limit rate, and
    #    the residual |delta(D)| is the speed of the normalized flow
    cert = soliton_residual(limit)
    print(f"\nc = {cert.c:.9f} vs -r_limit = {-rep.r_limit:.9f}")
    print(f"residual (flow speed) {cert.residual:.3e}")

    # 5. in dimension 3 every 2-step bracket is isometric to a scaled
    #    Heisenberg structure, so perturbations there are already solitons
    from nilflow import heisenberg

    b3 = sphere_perturbation(rescale_to_norm(heisenberg()), np.random.default_rng(1), eps=0.3)
    rep3 = detect_convergence(integrate_normalized_flow(b3, 0.5))
    print(f"\nn = 3 perturbation at t = 0.5: converged = {rep3.converged} (starts on the orbit)")


if __name__ == "__main__":
    main()
