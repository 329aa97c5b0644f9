"""Homogeneous generating functions as chains of links.

A generating function is a chain of N links g_1, ..., g_N on R^{2n}, none
with fiber variables: LeafGF, the generating function of a C^1-small flow
piece, and QuadraticLink, a form c |b|^2.  The chain generates the composite
(map of g_N) o ... o (map of g_1).  With a_j the base of the chain g_1..g_j
and b_j the base of link j (b_1 = a_1), it is Chaperon's broken-geodesic
function

    F(sigma) = g_1(a_1) + sum_{j=2..N} [g_j(b_j) + 2<a_j - b_j, i(a_{j-1} - a_j)>]

of the chain coordinates sigma, with base a_N and the 2n(2N - 2) other
variables as fiber.  It is the left-associated iterated sharp product

    (F # G)(u; v, w, mu) = F(u + w; mu) + G(v + w) + 2<u - v, iw>

after the unimodular change a_j = u, a_{j-1} = u + w, b_j = v + w at every
level; a fiber-preserving change of coordinates does not change the
generated map (Chaperon 1984, Theret 1999).

sigma is stored flat, in blocks of 2n, in the order (a_N, b_N, a_{N-1},
b_{N-1}, ..., a_2, b_2, a_1): the base comes first, and link j >= 2 couples
the three consecutive blocks (a_j, b_j, a_{j-1}), so every Hessian is block
tridiagonal in the pairs (a_j, b_j).

A leaf is its flow piece, (spec, span, settings): the flow of the
autonomous spec over a span of time.  At a base b it is read off the
midpoint z with (z + Phi(z))/2 = b.  The midpoints are unknowns of
the outer Newton that evaluates the chain (LeafState): every evaluation
takes one leaf Newton step, z + ((I + DPhi)/2)^{-1} (b - (z + Phi(z))/2),
integrates each leaf once at the new midpoint, and linearizes the leaf's
gradient there (evaluate_stacked).  The leaf test, the residual within the
leaf tolerance of |b|, decides when the midpoints are solved.

All constructed functions are homogeneous of degree 2, F(lambda x) =
lambda^2 F(x); leaf values come from the Euler identity F(b) = <grad F, b>/2,
which enforces the F(0) = 0 normalization without quadrature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .flow import IntegratorSettings, integrate_flow
from .hamiltonian import ContactHamiltonianSpec
from .linsymp import complex_structure_matrix, mul_i, once_if_shared


@dataclass(frozen=True)
class LeafGF:
    """Link of one C^1-small flow piece: the lifted flow of spec over span.
    The field does not depend on t, so the span is all of the piece's time.

    At a base b it is read off the midpoint z with (z + Phi(z))/2 = b, whose
    Newton step evaluate_stacked takes for all leaves of a chain at once:
    the gradient off the graph identification, grad F(b) = i(z - Phi(z)),
    linearized at the step's midpoint, the value off the Euler identity and
    the Hessian off DPhi(z) (leaf_hessian).
    """

    spec: ContactHamiltonianSpec
    span: float
    settings: IntegratorSettings

    @property
    def base_dim(self) -> int:
        return 2 * self.spec.n

    def map_points(self, z):
        """Apply the piece's flow to points z of shape (B, 2n)."""
        return integrate_flow(self.spec, z, 0.0, self.span, self.settings,
                              with_jacobian=False)[0]


class QuadraticLink:
    """Link c |b|^2 on R^{2n}, with c a scalar or one coefficient per row.

    c = -tan(pi s) generates the rotation z -> e^{-2 pi i s} z, |s| < 1/2.
    """

    def __init__(self, coeff, n: int):
        self.coeff = np.asarray(coeff, dtype=float)
        self.base_dim = 2 * n

    def evaluate(self, b: np.ndarray):
        """(val, grad, hess, ok) at bases b (B, 2n)."""
        B, m = b.shape
        c = self.coeff[..., None]
        hess = np.broadcast_to(2.0 * c[..., None] * np.eye(m), (B, m, m))
        return np.sum(b * b, axis=1) * self.coeff, 2.0 * c * b, hess, np.ones(B, dtype=bool)

    def map_points(self, z):
        # the graph of 2cb under the midpoint identification: (c + i) Z = (i - c) z
        c = self.coeff[..., None]
        return ((1.0 - c * c) * z + 2.0 * c * mul_i(z)) / (1.0 + c * c)


class ChainGF:
    """A generating function: the chain of its links, in the order their maps
    apply.  base_dim = 2n, fiber_dim = 2n (2N - 2) for N links."""

    def __init__(self, links):
        self.links = tuple(links)
        if not self.links:
            raise ValueError("a chain needs at least one link")
        self.base_dim = self.links[0].base_dim
        if any(link.base_dim != self.base_dim for link in self.links):
            raise ValueError("base dimensions must match")
        self.fiber_dim = 2 * self.base_dim * (len(self.links) - 1)

    @property
    def total_dim(self) -> int:
        return self.base_dim + self.fiber_dim

    def chain_seed(self, z: np.ndarray):
        """Fiber variables of the canonical fiber-critical point over the
        chain starting at z: returns (fiber (B, fiber_dim), z_out (B, 2n),
        midpoints (B, L, 2n)).

        With z_0 = z and z_j the image of z_{j-1} under link j, that point
        has a_j = (z_0 + z_j)/2 and b_j = (z_{j-1} + z_j)/2, so its base is
        a_N = (z + z_out)/2.  midpoints holds the chain point z_{j-1} of
        every leaf j, in chain order, which is the midpoint solution at its
        base."""
        zs = [np.asarray(z, dtype=float)]
        for link in self.links:
            zs.append(link.map_points(zs[-1]))
        Z = np.stack(zs, axis=1)
        sigma = join_chain(0.5 * (Z[:, :1] + Z[:, 1:]), 0.5 * (Z[:, 1:-1] + Z[:, 2:]))
        leaves = [j for j, link in enumerate(self.links) if isinstance(link, LeafGF)]
        return sigma[:, self.base_dim :], zs[-1], Z[:, leaves]


def gf_compose(*parts) -> ChainGF:
    """Sharp composition of chains and links: the chain of all their links,
    in order.  It generates (map of the last part) o ... o (map of the first)."""
    return ChainGF(link for part in parts
                   for link in (part.links if isinstance(part, ChainGF) else (part,)))


def flow_chain(spec, pieces: int, settings: IntegratorSettings) -> ChainGF:
    """Chain of pieces copies of the leaf of span 1 / pieces: it generates
    the time-1 map of spec."""
    return ChainGF((LeafGF(spec, 1.0 / pieces, settings),) * pieces)


def split_chain(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocks a_1..a_N (B, N, m) and b_2..b_N (B, N - 1, m) of flat
    chain coordinates x (B, (2N - 1) m), in chain order."""
    Y = x.reshape(x.shape[0], -1, m)
    return Y[:, ::-2], Y[:, -2::-2]


def join_chain(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat chain coordinates from their blocks in chain order; undoes split_chain."""
    B, N, m = a.shape
    Y = np.empty((B, 2 * N - 1, m))
    Y[:, ::-2] = a
    Y[:, -2::-2] = b
    return Y.reshape(B, -1)


# Tolerance of every leaf midpoint solve.
_LEAF_TOL = 1e-11

# Bound on |z| / |b| of a solved midpoint.  A C^1-small leaf (delta < 2) has
# |z| <= |b| / (1 - delta/2); a midpoint far beyond that solves a nearly
# singular midpoint equation (an eigenvalue of DPhi near -1) only on paper.
_LEAF_GROWTH = 1e6


def _leaf_solved(z: np.ndarray, solved: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The leaf test, per midpoint z (..., 2n): its solved = (z + Phi(z))/2
    is within the leaf tolerance of its base b, |solved - b| <= _LEAF_TOL |b|,
    and |z| <= _LEAF_GROWTH |b|."""
    scale = np.maximum(np.linalg.norm(b, axis=-1), 1e-12)
    r = np.linalg.norm(solved - b, axis=-1)
    return (r <= _LEAF_TOL * scale) & (np.linalg.norm(z, axis=-1) <= _LEAF_GROWTH * scale)


def _leaf_step(z: np.ndarray, jac: np.ndarray, solved: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The leaf Newton step from midpoints z (..., 2n), with DPhi(z) jac and
    solved = (z + Phi(z))/2, toward bases b: z + ((I + DPhi)/2)^{-1} (b -
    solved), the midpoint equation linearized at z.  It takes up both the
    residual and the move of the bases since z."""
    A = 0.5 * (jac + np.eye(b.shape[-1]))
    return z + np.linalg.solve(A, (b - solved)[..., None])[..., 0]


def solve_midpoint(spec, span, settings, b, z):
    """Integrate the piece flow over span once at the midpoints z (B, 2n)
    of bases b (B, 2n).  Returns (z, Phi(z), DPhi(z), ok): ok marks the rows
    integrated, and the caller applies the leaf test (_leaf_solved) to them.
    Rows whose base or midpoint norm underflows (the cone tip is rejected)
    are not integrated and come back with ok = False.
    """
    b = np.asarray(b, dtype=float)
    B, m = b.shape
    jac = np.broadcast_to(np.eye(m), (B, m, m)).copy()
    ok = np.linalg.norm(b, axis=1) > 1e-150
    z = np.where(ok[:, None], z, np.eye(m)[0])
    ok &= np.linalg.norm(z, axis=1) >= 1e-120
    Zv = z.copy()
    if ok.any():
        Zv[ok], jac[ok] = integrate_flow(spec, z[ok], 0.0, span, settings, with_jacobian=True)
    return z, Zv, jac, ok


@dataclass(frozen=True)
class LeafState:
    """Newton state of the leaf midpoints, per row: z (B, L, 2n) the
    midpoints, jac (B, L, 2n, 2n) DPhi(z) and b (B, L, 2n) the bases they
    solve, (z + Phi(z))/2, which differ from the leaves' current bases by
    the midpoint residual.  The leaf axis follows the order of the leaves in
    the chain."""

    b: np.ndarray
    z: np.ndarray
    jac: np.ndarray

    def take(self, rows) -> "LeafState":
        return LeafState(self.b[rows], self.z[rows], self.jac[rows])

    def put(self, rows, other: "LeafState") -> None:
        self.b[rows] = other.b
        self.z[rows] = other.z
        self.jac[rows] = other.jac

    def predict(self, b: np.ndarray) -> np.ndarray:
        """The leaf Newton step (_leaf_step) toward bases b (B, L, 2n)."""
        return _leaf_step(self.z, self.jac, self.b, b)

    def solves(self, b: np.ndarray) -> np.ndarray:
        """Rows (B,) on which every midpoint passes the leaf test at its base
        in b (B, L, 2n)."""
        return np.all(_leaf_solved(self.z, self.b, b), axis=1)


def leaf_hessian(jac: np.ndarray) -> np.ndarray:
    """Hessian 2J (I - DPhi)(I + DPhi)^{-1} of a leaf from DPhi (..., 2n, 2n)
    at its midpoint: the Cayley transform of a symplectic matrix, hence
    symmetric up to integrator error, and symmetrised.  Every matrix is
    solved and multiplied on its own, so its Hessian has the same bits in
    any stack, or alone."""
    m = jac.shape[-1]
    eye = np.eye(m)
    C = np.linalg.solve(np.swapaxes(eye + jac, -1, -2), np.swapaxes(eye - jac, -1, -2))
    H = 2.0 * complex_structure_matrix(m // 2) @ np.swapaxes(C, -1, -2)
    return 0.5 * (H + np.swapaxes(H, -1, -2))


def _solve_leaves(leaves: list[LeafGF], b: np.ndarray, z: np.ndarray):
    """Midpoint integrations of the leaves at midpoints z of their bases b
    (B, L, 2n), one stacked solve_midpoint per distinct leaf.  Returns z,
    Phi(z) (B, L, 2n), DPhi(z) (B, L, 2n, 2n) and ok (B, L)."""
    B, L, m = b.shape
    groups: dict = {}
    for i, leaf in enumerate(leaves):
        groups.setdefault(leaf, []).append(i)
    out = (np.empty((B, L, m)), np.empty((B, L, m)), np.empty((B, L, m, m)),
           np.empty((B, L), dtype=bool))
    for leaf, members in groups.items():
        def stack(arr):  # leaf-major rows of the group
            return np.concatenate([arr[:, i] for i in members], axis=0)

        solved = solve_midpoint(leaf.spec, leaf.span, leaf.settings, stack(b), stack(z))
        for dst, src in zip(out, solved):
            dst[:, members] = np.swapaxes(src.reshape((len(members), B) + src.shape[1:]), 0, 1)
    return out


def evaluate_stacked(gf: ChainGF, x: np.ndarray, warm: LeafState):
    """Value, gradient and link Hessians of the chain gf at x (B, total_dim),
    one Newton step of its leaf midpoints from warm.

    warm is the LeafState of gf's leaves on the same rows, from an earlier
    call or from a chain seed: the midpoints are Newton unknowns of the
    caller.  Each leaf takes the leaf step of warm toward its new base b
    (LeafState.predict) and is integrated once there, in one stacked
    solve_midpoint per group: a leaf depends only on its spec, span and
    settings, so the batches of equal leaves concatenate into a single
    integration, which amortizes the per-step cost across the whole chain.
    The midpoint z then solves (z + Phi(z))/2 = b + r with a residual r, and
    the leaf's gradient is the linearization at z, i(z - Phi(z)) - H r with
    H its Hessian: eliminating the midpoint step from the joint Newton
    system leaves exactly this gradient with the unchanged Hessian.  Where
    LeafState.solves(b) holds it equals the solved leaf's gradient to the
    leaf tolerance.  The leaf Hessians are computed once and given to every
    row when every row has the same DPhi (once_if_shared).

    Returns (val (B,), grad (B, D), hess (B, N, 2n, 2n), ok (B,), state):
    hess holds the Hessians of the links at their bases, which
    chain_hessian assembles, ok marks the rows whose leaves were integrated,
    and state is the new LeafState.
    """
    x = np.asarray(x, dtype=float)
    links, m = gf.links, gf.base_dim
    B, N = x.shape[0], len(links)
    a, b = split_chain(x, m)
    bases = np.concatenate([a[:, :1], b], axis=1)
    vals, grads = np.empty((B, N)), np.empty((B, N, m))
    hess = np.empty((B, N, m, m))
    ok = np.ones(B, dtype=bool)
    leaves = [j for j, link in enumerate(links) if isinstance(link, LeafGF)]
    for j, link in enumerate(links):
        if j not in leaves:
            vals[:, j], grads[:, j], hess[:, j], ok_j = link.evaluate(bases[:, j])
            ok &= ok_j
    leaf_b = bases[:, leaves]
    z, Zv, jac, ok_leaf = _solve_leaves([links[j] for j in leaves], leaf_b,
                                        warm.predict(leaf_b))
    solved = 0.5 * (z + Zv)
    H = once_if_shared(leaf_hessian, jac)
    g = mul_i(z - Zv) - (H @ (solved - leaf_b)[..., None])[..., 0]
    vals[:, leaves] = 0.5 * np.sum(g * leaf_b, axis=2)
    grads[:, leaves] = g
    hess[:, leaves] = H
    ok &= ok_leaf.all(axis=1)
    # the pairing terms 2<e_j, i d_j>, d_j = a_{j-1} - a_j, e_j = a_j - b_j
    d = a[:, :-1] - a[:, 1:]
    e = a[:, 1:] - b
    val = np.sum(vals, axis=1) + 2.0 * np.sum(e * mul_i(d), axis=(1, 2))
    ga = np.zeros((B, N, m))
    ga[:, 0] = grads[:, 0]
    ga[:, 1:] += 2.0 * mul_i(d + e)
    ga[:, :-1] -= 2.0 * mul_i(e)
    grad = join_chain(ga, grads[:, 1:] - 2.0 * mul_i(d))
    return val, grad, hess, ok, LeafState(solved, z, jac)


@functools.lru_cache(maxsize=None)
def _pairing_matrix(m: int, N: int) -> np.ndarray:
    """The pairing terms' part of the Hessian of a chain of N links: link j
    couples (a_j, b_j, a_{j-1}) through 2i."""
    P = np.kron(np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]),
                2.0 * complex_structure_matrix(m // 2))
    K = np.zeros(((2 * N - 1) * m, (2 * N - 1) * m))
    for r in range(0, 2 * N - 2, 2):
        K[r * m : (r + 3) * m, r * m : (r + 3) * m] += P
    K.flags.writeable = False
    return K


def chain_hessian(blocks: np.ndarray) -> np.ndarray:
    """Batched (B, D, D) Hessian of a chain in flat chain coordinates from
    the (B, N, 2n, 2n) Hessians of its links at their bases, in chain order.
    The result is block tridiagonal in the pairs (a_j, b_j).
    """
    B, N, m, _ = blocks.shape
    D = (2 * N - 1) * m
    H = np.broadcast_to(_pairing_matrix(m, N), (B, D, D)).copy()
    # link 1 sits on a_1, the last block; link j >= 2 on b_j, block 2(N - j) + 1
    pos = [2 * N - 2] + list(range(2 * N - 3, 0, -2))
    H.reshape(B, 2 * N - 1, m, 2 * N - 1, m)[:, pos, :, pos, :] = np.swapaxes(blocks, 0, 1)
    return H


def rotation_coefficients(t, k: int):
    """Coefficient -tan(pi t / k) of each of the k rotation links of a_t, and
    its d/dt, for t a scalar or of shape (B,); returned with shape (B,).

    Each link rotates by e^{-2 pi i t / k}, so the k of them give a_t.
    """
    if k < 3:
        raise ValueError("k must be >= 3 so each piece rotates by less than half a turn")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(np.abs(t_arr) / k >= 0.5):
        raise ValueError("|t|/k must stay below 1/2")
    return -np.tan(np.pi * t_arr / k), -(np.pi / k) / np.cos(np.pi * t_arr / k) ** 2


def rotation_family_matrices(t: float, n: int, k: int) -> np.ndarray:
    """Matrix M_A(t) of the k-piece family for a_t at a scalar t: A_t is the
    chain of the k rotation links, and M_A, half its Hessian, is the matrix
    of the form A_t(sigma) = sigma^T M_A sigma on R^{2n (2k - 1)}.
    """
    coeff, _ = rotation_coefficients(t, k)
    blocks = np.broadcast_to(2.0 * coeff[0] * np.eye(2 * n), (1, k, 2 * n, 2 * n))
    return 0.5 * chain_hessian(blocks)[0]
