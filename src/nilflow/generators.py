"""Bracket families and random generators used by tests, demos, and sweeps."""

from __future__ import annotations

import math

import numpy as np

from .algebra import Bracket, VTangent, _check_tol, _is_int, _is_real, gl_action
from .exceptions import ConfigError, ZeroBracket


def heisenberg(c: float = 1.0) -> Bracket:
    """The 3-dimensional bracket mu(e1, e2) = c e3."""
    return Bracket.from_entries(3, {(0, 1, 2): c})


def filiform(n: int, constants=None) -> Bracket:
    """Standard filiform bracket mu(e1, e_i) = c_{i-2} e_{i+1} for i = 2..n-1."""
    if not _is_int(n, 3):
        raise ConfigError(f"filiform needs an integer n >= 3, got {n!r}")
    if constants is None:
        constants = [1.0] * (n - 2)
    constants = [float(v) for v in constants]
    if len(constants) != n - 2:
        raise ConfigError(f"filiform n={n} needs {n - 2} constants, got {len(constants)}")
    entries = {(0, i, i + 1): constants[i - 1] for i in range(1, n - 1)}
    return Bracket.from_entries(n, entries)


def random_two_step(n: int, rng: np.random.Generator, m: int | None = None, scale: float = 1.0) -> Bracket:
    """Random 2-step bracket Lambda^2 R^m -> R^{n-m}; Jacobi holds automatically."""
    if not _is_int(n, 3):
        raise ConfigError(f"random_two_step needs an integer n >= 3, got {n!r}")
    if m is None:
        m = max(2, min(n - 1, math.ceil(2 * n / 3)))
    if not _is_int(m, 2, n - 1):
        raise ConfigError(f"need an integer 2 <= m <= n-1, got m={m!r}, n={n}")
    c = np.zeros((n, n, n))
    for i in range(m):
        for j in range(i + 1, m):
            row = scale * rng.standard_normal(n - m)
            c[i, j, m:] = row
            c[j, i, m:] = -row
    return Bracket(c)


def random_skew(n: int, rng: np.random.Generator, scale: float = 1.0) -> VTangent:
    """Random element of V_n (skew bilinear map, no Jacobi condition)."""
    if not _is_int(n, 1):
        raise ConfigError(f"random_skew needs an integer n >= 1, got {n!r}")
    c = scale * rng.standard_normal((n, n, n))
    return VTangent(0.5 * (c - c.transpose(1, 0, 2)))


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    if not _is_int(n, 1):
        raise ConfigError(f"random_orthogonal needs an integer n >= 1, got {n!r}")
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _near_identity(n: int, rng: np.random.Generator, spread: float) -> np.ndarray:
    """I + spread * G / sqrt(n) with G standard normal, redrawn until cond < 1e3."""
    # an infinite spread never meets the bound, a nan one fails in LAPACK, and True would be 1.0
    if not (_is_real(spread) and math.isfinite(spread)):
        raise ConfigError(f"the spread of a near-identity matrix must be a finite real number, got {spread!r}")
    while True:
        g = np.eye(n) + spread * rng.standard_normal((n, n)) / math.sqrt(n)
        if np.linalg.cond(g) < 1e3:
            return g


def random_nilpotent(n: int, rng: np.random.Generator) -> Bracket:
    """Random 2-step bracket pushed around by a random change of basis."""
    b = random_two_step(n, rng)
    return gl_action(_near_identity(n, rng, 0.5), b)


def rescale_to_norm(b: Bracket, target: float = 2.0) -> Bracket:
    """Scale the bracket to the sphere ||mu|| = target, a finite real number
    > 0 and not a bool (else ConfigError)."""
    _check_tol(target, "the target norm")
    nrm = b.norm
    if nrm == 0.0:
        raise ZeroBracket("cannot rescale the zero bracket onto a sphere")
    return b.scaled(target / nrm)


def sphere_perturbation(b: Bracket, rng: np.random.Generator, eps: float = 0.3) -> Bracket:
    """Perturb within the GL-orbit (stays nilpotent) and rescale onto ||mu|| = 2."""
    return rescale_to_norm(gl_action(_near_identity(b.n, rng, eps), b))
