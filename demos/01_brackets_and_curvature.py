"""
Structure constants and curvature
=================================

A left-invariant metric on a simply connected nilpotent group is encoded,
up to isometry, by the Lie bracket expressed in an orthonormal basis: an
antisymmetric array mu with mu[i, j, k] the e_k-coefficient of [e_i, e_j].
Everything geometric -- Ricci operator, scalar curvature, the curvature
tensor at the identity -- is an algebraic function of that array.

This script builds a few brackets, validates them, and prints their
curvature data.
"""

import numpy as np

from nilflow import (
    Bracket,
    central_series_dims,
    curvature_pack,
    filiform,
    heisenberg,
    moment_map,
    random_two_step,
    ricci_operator,
    riemann_at_origin,
    scalar_curvature,
    validate_bracket,
)


def describe(name, b):
    report = validate_bracket(b)
    print(f"\n--- {name} (n = {b.n}) ---")
    print(f"norm |mu|           : {b.norm:.6f}")
    print(f"jacobi / nil        : {report.jacobi_residual:.1e} / {report.nilpotent}")
    print(f"nilpotency degree   : {report.degree}")
    print(f"central series dims : {central_series_dims(b)}")
    print(f"scal                : {scalar_curvature(b):.6f}   (= -|mu|^2/4)")
    with np.printoptions(precision=4, suppress=True):
        print(f"Ricci operator      :\n{ricci_operator(b)}")


def main():
    # 1. the 3-dimensional Heisenberg bracket [e1, e2] = e3
    heis = heisenberg(1.0)
    describe("Heisenberg", heis)

    # sectional curvatures of the coordinate planes: the plane spanned by the
    # two generators is negatively curved, the planes through the center
    # positively -- both signs always occur on a nonabelian nilpotent group
    riem = riemann_at_origin(heis)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        print(f"sectional K(e{i + 1}, e{j + 1}) = {riem.sectional(i, j):+.4f}")

    # 2. the filiform bracket [e1, e_i] = e_{i+1}: maximal nilpotency degree
    describe("filiform(5)", filiform(5))

    # 3. a random 2-step bracket: generators bracket into a central block
    describe("random 2-step", random_two_step(4, np.random.default_rng(0)))

    # 4. brackets can also be entered by hand, entry by entry
    b = Bracket.from_entries(3, {(0, 1, 2): 2.0})  # [e1, e2] = 2 e3
    describe("Heisenberg, c = 2", b)
    print("\nRicci scales quadratically with the bracket:")
    print(f"  Ric(c=2) / Ric(c=1) = {ricci_operator(b)[2, 2] / ricci_operator(heis)[2, 2]:.1f}")

    # 5. the moment map 4 Ric / |mu|^2 is scale invariant with trace -1
    m = moment_map(b)
    print(f"moment map trace    : {np.trace(m):+.6f}")

    # 6. one call bundles everything for serialization
    pack = curvature_pack(heis)
    print(f"\ncurvature_pack keys : {sorted(pack.to_dict())}")


if __name__ == "__main__":
    main()
