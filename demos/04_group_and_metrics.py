"""
The group law and polynomial metric coefficients
================================================

In exponential coordinates a simply connected nilpotent group multiplies by
the Baker-Campbell-Hausdorff series, which terminates for nilpotent
brackets.  Left-translating the inner product at the identity produces a
left-invariant metric whose coefficients are polynomials in the coordinates;
those coefficient tables are computed here two ways (closed form for 2-step,
exact expansion of the closed-form dexp series in general) and compared.

The coefficient tables also give a computable distance between two
structures: the sup over a ball of all metric derivatives up to order p.
"""

import numpy as np

from nilflow import (
    bch_product,
    filiform,
    heisenberg,
    metric_at,
    metric_convergence_distance,
    metric_field_2step,
    metric_field_fit,
)


def main():
    heis = heisenberg(1.0)
    rng = np.random.default_rng(0)

    # 1. the group law: for Heisenberg, x . y adds a symplectic area term
    x, y, z = rng.standard_normal((3, 3))
    print("Heisenberg product x . y:")
    print(f"  bch      : {bch_product(heis, x, y)}")
    area = 0.5 * (x[0] * y[1] - x[1] * y[0])
    print(f"  closed   : {x + y + np.array([0.0, 0.0, area])}")

    # associativity and inverses hold to machine precision
    assoc = bch_product(heis, bch_product(heis, x, y), z) - bch_product(heis, x, bch_product(heis, y, z))
    print(f"  associativity residual : {np.linalg.norm(assoc):.2e}")
    print(f"  x . (-x)               : {bch_product(heis, x, -x)}")

    # 2. the left-invariant metric at a point, as a Gram matrix
    p = np.array([0.8, -1.3, 0.4])
    with np.printoptions(precision=4, suppress=True):
        print(f"\nmetric at {p}:\n{metric_at(heis, p)}")

    # 3. the same metric as a polynomial coefficient table (2-step closed form)
    field = metric_field_2step(heis)
    print(f"\npointwise vs table at p : {np.abs(field(p) - metric_at(heis, p)).max():.2e}")
    print("nonzero coefficient multi-indices:", sorted(field.coefficients))

    # 4. for higher steps the table is the exact expansion of A(x)^T A(x), where
    #    A(x) = sum_j (-1)^j ad_x^j / (j+1)! is the closed-form dexp series
    fil = filiform(4)
    fitted = metric_field_fit(fil)
    q = rng.standard_normal(4) * 0.7
    print(f"\nfiliform(4) table degree: {fitted.degree}")
    print(f"table error at a point  : {np.abs(fitted(q) - metric_at(fil, q)).max():.2e}")

    # 5. derivative fields are exact coefficient operations
    d1 = fitted.derivative((1, 0, 0, 0))
    eps = 1e-6
    fd = (metric_at(fil, q + [eps, 0, 0, 0]) - metric_at(fil, q - [eps, 0, 0, 0])) / (2 * eps)
    print(f"d/dx1 vs finite diff    : {np.abs(d1(q) - fd).max():.2e}")

    # 6. distance between structures: sup of all metric derivatives on a ball
    for c in (1.01, 1.001, 1.0001):
        d = metric_convergence_distance(heis, heisenberg(c), radius=2.0, p=2)
        print(f"distance(heis(1), heis({c})) = {d:.3e}")
    print("(shrinks linearly with the perturbation — C^infinity convergence"
          " of brackets implies convergence of the metrics)")


if __name__ == "__main__":
    main()
