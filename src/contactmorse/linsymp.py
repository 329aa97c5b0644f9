"""Linear algebra on R^{2n} viewed as C^n.

Coordinates are laid out as (x_1..x_n, y_1..y_n) so that the complex
coordinates are z_j = x_j + i*y_j and multiplication by i is the blockwise
map (x, y) -> (-y, x).  The complex structure and the rotations e^{i phase}
as real matrices, the inertia of symmetric matrices, the batched linear
solve of every Newton loop and the test for a stack of equal rows live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def to_complex(x: np.ndarray) -> np.ndarray:
    """(..., 2n) real -> (..., n) complex under the (x, y) block layout."""
    n = x.shape[-1] // 2
    return x[..., :n] + 1j * x[..., n:]


def to_real(z: np.ndarray) -> np.ndarray:
    """(..., n) complex -> (..., 2n) real."""
    return np.concatenate([z.real, z.imag], axis=-1)


def mul_i(x: np.ndarray) -> np.ndarray:
    """Multiplication by i: (x, y) -> (-y, x), blockwise per complex coordinate."""
    n = x.shape[-1] // 2
    return np.concatenate([-x[..., n:], x[..., :n]], axis=-1)


def complex_structure_matrix(n: int) -> np.ndarray:
    """The 2n x 2n matrix of multiplication by i in the block layout."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def rotation_matrix(phase: float | np.ndarray, n: int) -> np.ndarray:
    """Realified multiplication by e^{i*phase} (batched over phase if an array)."""
    c = np.cos(phase)
    s = np.sin(phase)
    eye = np.eye(n)
    c = np.asarray(c)[..., None, None] * eye
    s = np.asarray(s)[..., None, None] * eye
    top = np.concatenate([c, -s], axis=-1)
    bot = np.concatenate([s, c], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def solve_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A[r] x[r] = b[r] on every row of A (R, d, d), b (R, d) or (R, d, k).

    One batched LU, which gives each row the bits of its own solve.  When
    some A[r] is exactly singular, the rows are solved one by one and those
    whose LU fails get NaN, so a singular row never moves the others and
    its caller sees that it has no solution.
    """
    cols = b if b.ndim == 3 else b[:, :, None]
    try:
        x = np.linalg.solve(A, cols)
    except np.linalg.LinAlgError:
        x = np.full(cols.shape, np.nan)
        for r in range(A.shape[0]):
            try:
                x[r] = np.linalg.solve(A[r], cols[r])
            except np.linalg.LinAlgError:
                pass
    return x if b.ndim == 3 else x[:, :, 0]


def same_on_rows(a: np.ndarray) -> bool:
    """Whether the float64 stack a (R, ...) has rows, all with the bits of
    a[0]; it stops at row 1 when that row differs.  A per-matrix LAPACK or
    BLAS call gives a matrix its own bits in any stack, so then one call on
    a[0] serves every row."""
    bits = a.view(np.uint64)
    if len(bits) < 2:
        return len(bits) == 1
    return np.array_equal(bits[1], bits[0]) and bool(np.all(bits[2:] == bits[0]))


def once_if_shared(fn, *stacks: np.ndarray) -> np.ndarray:
    """fn(*stacks) for a function fn that maps R rows of its stacks to R rows
    of its result, each from that row alone.  When every stack has row 0's
    bits on every row (same_on_rows), as a linear flow gives, fn runs on row
    0 alone and its row is given to every row (read-only)."""
    if all(same_on_rows(a) for a in stacks):
        out = fn(*(a[:1] for a in stacks))
        return np.broadcast_to(out, (len(stacks[0]),) + out.shape[1:])
    return fn(*stacks)


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts of a symmetric matrix: index + nullity + coindex = m."""

    index: int
    nullity: int
    coindex: int


def inertia(M: np.ndarray, tol: float | None = None) -> Inertia:
    """Count the eigenvalues of the symmetric part of the square matrix M
    below -tol, inside (-tol, tol), and above tol.

    tol defaults to 1e-9 relative to the largest |eigenvalue|; it is never a
    hidden constant when passed explicitly.
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    eigvals = np.linalg.eigvalsh(0.5 * (M + M.T))
    if tol is None:
        scale = float(np.max(np.abs(eigvals))) if eigvals.size else 0.0
        tol = 1e-9 * scale if scale > 0 else 1e-15
    if tol <= 0:
        raise ValueError("tol must be positive")
    index = int(np.sum(eigvals < -tol))
    coindex = int(np.sum(eigvals > tol))
    nullity = eigvals.size - index - coindex
    return Inertia(index=index, nullity=nullity, coindex=coindex)

