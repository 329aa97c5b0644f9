"""Deterministic low-discrepancy point sets on spheres.

Seeding and sampling never touch a stateful RNG: everything derives from a
Kronecker (additive-recurrence) sequence with the generalized golden-ratio
alphas, pushed onto the sphere through Box-Muller pairs.  Identical inputs
give identical point sets, which is what makes reports reproducible.
"""

from __future__ import annotations

import numpy as np


def _phi(d: int) -> float:
    # Fixed point of x = (1+x)^(1/(d+1)); d=1 gives the golden ratio.
    x = 2.0
    for _ in range(64):
        x = (1.0 + x) ** (1.0 / (d + 1))
    return x


def kronecker_sequence(count: int, dim: int, seed: float = 0.5) -> np.ndarray:
    """count x dim points of the R_d additive-recurrence sequence in [0, 1)."""
    if count < 1 or dim < 1:
        raise ValueError("count and dim must be positive")
    g = _phi(dim)
    alpha = (1.0 / g) ** np.arange(1, dim + 1)
    idx = np.arange(1, count + 1)[:, None]
    return (seed + alpha * idx) % 1.0


def sphere_points(count: int, dim: int, seed: float = 0.5) -> np.ndarray:
    """count unit vectors in R^dim, low-discrepancy, deterministic.

    dim must be even (points of R^{2n}); each consecutive pair of sequence
    coordinates feeds one Box-Muller transform.
    """
    if dim % 2 != 0:
        raise ValueError("dim must be even")
    u = kronecker_sequence(count, dim, seed)
    u1 = np.clip(u[:, 0::2], 1e-12, 1.0)
    u2 = u[:, 1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    g = np.empty((count, dim))
    g[:, 0::2] = r * np.cos(2.0 * np.pi * u2)
    g[:, 1::2] = r * np.sin(2.0 * np.pi * u2)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    return g / norms


def subdivision_probe_points(n: int) -> np.ndarray:
    """Fixed sample of 64 n unit points used by the C^1-smallness criterion."""
    return sphere_points(64 * n, 2 * n, seed=0.5)
