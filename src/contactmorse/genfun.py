"""Homogeneous generating functions as composition DAGs.

Two node kinds: a Leaf solves the midpoint equation of a C^1-small flow
piece by Newton, and Compose glues two nodes with the sharp-product

    (F # G)(u; v, w, mu, eta) = F(u+w; mu) + G(v+w; eta) + 2<u-v, iw>,

which generates (map of G) o (map of F) and adds 4n fiber variables.  Every
node evaluates values, gradients and Hessians in batch; evaluation is
reentrant and nodes are immutable after construction.  The Hessian of a DAG
is never built level by level: its sparsity is compiled once into a
HessianPlan, which scatters the Hessians of the DAG's leaves into it.

All constructed functions are homogeneous of degree 2, F(lambda x) =
lambda^2 F(x); leaf values come from the Euler identity F(b) = <grad F, b>/2,
which enforces the F(0) = 0 normalization without quadrature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .flow import FlowMap, IntegratorSettings, integrate_flow
from .linsymp import complex_structure_matrix, mul_i, solve_rows
from .sampling import sphere_points


class LeafNewtonError(RuntimeError):
    """The midpoint solve of a leaf did not converge: the piece is not
    C^1-small enough and the caller must re-subdivide."""


def _as_batch(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


class GenFun:
    """Base node: base_dim = 2n, fiber_dim per node kind."""

    base_dim: int
    fiber_dim: int

    @property
    def total_dim(self) -> int:
        return self.base_dim + self.fiber_dim

    def evaluate(self, x: np.ndarray, order: int = 1, leaf_cache: dict | None = None):
        """Batched evaluation at x of shape (B, total_dim).

        Returns (val, grad, hess, ok): val (B,), grad (B, D) for order >= 1,
        hess (B, D, D) for order >= 2 (else None), ok (B,) bool marking rows
        whose leaf solves converged.  leaf_cache holds pre-solved midpoint
        data keyed by leaf identity (see evaluate_stacked).
        """
        raise NotImplementedError

    def evaluate_terms(self, x: np.ndarray, order: int = 1, leaf_cache: dict | None = None):
        """Like evaluate, with hess replaced by the list of atom Hessians
        that hessian_plan() assembles it from (empty below order 2)."""
        val, grad, hess, ok = self.evaluate(x, order, leaf_cache)
        return val, grad, [] if hess is None else [hess], ok

    def hessian_plan(self) -> "HessianPlan":
        """Scatter plan of the Hessian over the atoms of evaluate_terms; any
        node other than a compose is one atom."""
        return HessianPlan.atom(self.total_dim)

    def map_points(self, z: np.ndarray):
        """Apply the underlying symplectomorphism to points z of shape (B, 2n)."""
        raise NotImplementedError

    def chain_seed(self, z: np.ndarray, midpoints: list | None = None):
        """Fiber variables of the canonical fiber-critical point over the
        chain starting at z: returns (fiber (B, fiber_dim), z_out (B, 2n)).

        When midpoints is a list, every leaf appends its chain point, which is
        the midpoint solution at that leaf's base, in depth-first leaf order."""
        raise NotImplementedError


class LeafGF(GenFun):
    """Generating function of one C^1-small flow piece.

    Evaluation solves (z + Phi(z))/2 = b for z by Newton with the integrated
    Jacobian, then reads the gradient off the graph identification,
    grad F(b) = i(z - Phi(z)), and the value off the Euler identity.
    """

    def __init__(self, piece: FlowMap):
        self.piece = piece
        self.base_dim = 2 * piece.spec.n
        self.fiber_dim = 0
        self._J = complex_structure_matrix(piece.spec.n)

    def evaluate(self, x, order=1, leaf_cache=None):
        b = np.asarray(x, dtype=float)
        if leaf_cache is not None and id(self) in leaf_cache:
            z, Zv, jac, ok = leaf_cache[id(self)]
        else:
            p = self.piece
            z, Zv, jac, ok = solve_midpoint(p.spec, p.t0, p.t1, p.settings, b)
        grad = mul_i(z - Zv)
        val = 0.5 * np.sum(grad * b, axis=1)
        hess = None
        if order >= 2:
            m = b.shape[1]
            eye = np.eye(m)
            # Hessian = 2 J (I - DPhi)(I + DPhi)^{-1}; the Cayley transform of
            # a symplectic matrix, hence symmetric up to integrator error.
            C = np.linalg.solve(
                np.swapaxes(eye + jac, -1, -2), np.swapaxes(eye - jac, -1, -2)
            )
            C = np.swapaxes(C, -1, -2)
            H = 2.0 * self._J @ C
            hess = 0.5 * (H + np.swapaxes(H, -1, -2))
        return val, grad, hess, ok

    def map_points(self, z):
        z = np.asarray(z, dtype=float)
        return z.copy() if self.piece.is_identity() else self.piece(z)[0]

    def chain_seed(self, z, midpoints=None):
        z = np.asarray(z, dtype=float)
        if midpoints is not None:
            midpoints.append(z)
        return np.zeros((z.shape[0], 0)), self.map_points(z)


def _unit_row(m: int) -> np.ndarray:
    e = np.zeros(m)
    e[0] = 1.0
    return e


# Tolerance and iteration cap of every leaf midpoint solve.
_LEAF_TOL = 1e-11
_LEAF_MAX_ITER = 30


def solve_midpoint(spec, t0, t1, settings, b, newton_tol=_LEAF_TOL, max_iter=_LEAF_MAX_ITER,
                   z0=None):
    """Solve (z + Phi(z))/2 = b by Newton for the piece flow over [t0, t1].

    z0 (B, 2n) is the starting guess; None starts cold at z = b.  Each
    iteration integrates only the rows still above newton_tol, at most
    max_iter + 1 integrations per row.  Returns (z, Phi(z), DPhi(z), ok),
    with Phi and DPhi taken at the returned z on every ok row.  Rows whose
    Newton fails, or whose base norm underflows (the cone tip is rejected),
    come back with ok = False.
    """
    b = np.asarray(b, dtype=float)
    B, m = b.shape
    eye = np.eye(m)
    if t1 == t0:
        jac = np.broadcast_to(eye, (B, m, m)).copy()
        return b.copy(), b.copy(), jac, np.ones(B, dtype=bool)
    scale = np.linalg.norm(b, axis=1)
    alive = scale > 1e-150
    safe_b = np.where(alive[:, None], b, _unit_row(m))
    z = safe_b.copy() if z0 is None else np.where(alive[:, None], z0, _unit_row(m))
    ok = np.zeros(B, dtype=bool)
    Zv = z.copy()
    jac = np.broadcast_to(eye, (B, m, m)).copy()
    for it in range(max_iter + 1):
        alive &= np.linalg.norm(z, axis=1) >= 1e-120
        rows = np.where(alive & ~ok)[0]
        if rows.size == 0:
            break
        Zv[rows], jac[rows] = integrate_flow(spec, z[rows], t0, t1, settings, with_jacobian=True)
        resid = 0.5 * (z[rows] + Zv[rows]) - safe_b[rows]
        conv = np.linalg.norm(resid, axis=1) <= newton_tol * np.maximum(scale[rows], 1e-12)
        ok[rows[conv]] = True
        upd = ~conv
        if it == max_iter or not np.any(upd):
            break
        # a piece on the edge of C^1-smallness takes a pseudo-inverse step
        # and the residual test decides
        z[rows[upd]] -= solve_rows(0.5 * (jac[rows[upd]] + eye), resid[upd])
    return z, Zv, jac, ok


@dataclass(frozen=True)
class LeafState:
    """Last midpoint solve of every leaf, per row: b (B, L, 2n) the base,
    z (B, L, 2n) the midpoint and jac (B, L, 2n, 2n) DPhi(z).  The leaf axis
    follows the depth-first leaf order of the DAG."""

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
        """One-step predictor of the midpoints at new bases b (B, L, 2n):
        z + ((I + DPhi)/2)^{-1} (b - b_prev), the midpoint equation linearized
        at the last solve."""
        m = b.shape[-1]
        A = 0.5 * (self.jac + np.eye(m))
        return self.z + np.linalg.solve(A, (b - self.b)[..., None])[..., 0]


def _stack_leaves(arrays: list[np.ndarray], B: int, shape: tuple) -> np.ndarray:
    """Per-leaf arrays (B, *shape) stacked along a leaf axis 1."""
    return np.stack(arrays, axis=1) if arrays else np.zeros((B, 0) + shape)


def chain_state(gf: GenFun, x: np.ndarray, midpoints: list[np.ndarray]) -> LeafState:
    """LeafState at x whose leaf midpoints are known, e.g. the chain points
    that chain_seed collects.  DPhi is unknown and set to the identity; the
    predictor then only moves z by the base change."""
    requests: list[tuple[LeafGF, np.ndarray]] = []
    _collect_leaf_bases(gf, np.asarray(x, dtype=float), requests)
    B, m = x.shape[0], gf.base_dim
    jac = np.broadcast_to(np.eye(m), (B, len(requests), m, m)).copy()
    return LeafState(_stack_leaves([b for _, b in requests], B, (m,)),
                     _stack_leaves(midpoints, B, (m,)), jac)


# Rows per block of HessianPlan.apply's scatter.
_SCATTER_ROWS = 64


class HessianPlan:
    """Compiled sparsity of a Hessian assembled from the Hessians of atoms.

    An atom is a node other than a compose; the atoms of a DAG are its leaves
    in depth-first order.  Per row, the atom vector is the constants `consts`
    (consts[0] = 0.0) followed by every atom Hessian flattened row-major.  The
    structurally nonzero entries, flat indices `index` of a dim x dim matrix,
    are (vec[src[0]] + 0.0) + vec[src[1]]: their one or two addends, with
    position 0 for an absent second one.  The "+ 0.0" is the first addition
    of a zero-initialised sum, so the bits are those of a dense assembly that
    adds each block into a zero matrix, level by level.  The n_two entries
    with two addends come first.  Every other entry is a structural zero and
    is never written.
    """

    def __init__(self, dim: int, consts: tuple[float, ...], atom_sizes: tuple[int, ...],
                 index: np.ndarray, src: np.ndarray):
        self.dim = dim
        self.consts = consts
        self.atom_sizes = atom_sizes
        self.index = index
        self.src = src
        self.n_two = int(np.sum(src[1] > 0))
        self._const_row = np.array(consts)
        self._scatter = np.zeros(0, dtype=np.intp)

    @classmethod
    def atom(cls, dim: int) -> "HessianPlan":
        """The plan of one atom: every entry is that atom's own."""
        size = dim * dim
        src = np.zeros((2, size), dtype=np.intp)
        src[0] = 1 + np.arange(size)
        return cls(dim, (0.0,), (size,), np.arange(size), src)

    @classmethod
    def compile(cls, dim, consts, atom_sizes, dst, codes) -> "HessianPlan":
        """Plan of the addends codes[k], atom-vector positions, of the flat
        entries dst[k]; an entry with more than two addends raises."""
        dst = np.concatenate(dst)
        codes = np.concatenate(codes)
        order = np.argsort(dst, kind="stable")
        dst, codes = dst[order], codes[order]
        index, first, count = np.unique(dst, return_index=True, return_counts=True)
        if count.size and count.max() > 2:
            raise ValueError(f"a Hessian entry has {count.max()} addends; the sharp "
                             "product gives each at most 2")
        two = count == 2
        order = np.concatenate([np.flatnonzero(two), np.flatnonzero(~two)])
        src = np.zeros((2, index.size), dtype=np.intp)
        src[0] = codes[first]
        src[1, two] = codes[first[two] + 1]
        return cls(dim, tuple(consts), tuple(atom_sizes), index[order], src[:, order])

    def recoded(self, const_code: dict[float, int], atom_offset: int) -> np.ndarray:
        """(dim * dim, 2) addend positions of every entry (0: none) in a wider
        atom vector, whose constants sit at const_code and whose copy of this
        plan's atoms starts at atom_offset."""
        lookup = np.concatenate([[const_code[c] for c in self.consts],
                                 atom_offset + np.arange(sum(self.atom_sizes))]).astype(np.intp)
        table = np.zeros((self.dim * self.dim, 2), dtype=np.intp)
        table[self.index] = lookup[self.src].T
        return table

    def apply(self, atoms: list[np.ndarray]) -> np.ndarray:
        """Assemble the (B, dim, dim) Hessian of every row from the atom
        Hessians, in depth-first order."""
        B = atoms[0].shape[0]
        vec = np.concatenate([np.broadcast_to(self._const_row, (B, len(self.consts)))]
                             + [a.reshape(B, a.shape[1] * a.shape[2]) for a in atoms], axis=1)
        if vec.shape[1] != len(self.consts) + sum(self.atom_sizes):
            raise ValueError("atom Hessians do not match the plan")
        total = np.take(vec, self.src[0], axis=1)
        total += 0.0
        total[:, : self.n_two] += np.take(vec, self.src[1, : self.n_two], axis=1)
        out = np.zeros((B, self.dim, self.dim))
        # Scatter a block of rows at a time through one flat index: several
        # times faster than a (rows, entries) fancy assignment.
        D, nnz = self.dim, self.index.size
        block = max(1, min(B, _SCATTER_ROWS))
        if self._scatter.size < block * nnz:
            self._scatter = (np.arange(block)[:, None] * (D * D) + self.index).ravel()
        flat = out.reshape(-1)
        for r0 in range(0, B, block):
            r1 = min(B, r0 + block)
            flat[r0 * D * D : r1 * D * D][self._scatter[: (r1 - r0) * nnz]] = total[r0:r1].ravel()
        return out


class SharpLayout:
    """Coordinates x = (u, v, w, mu, eta) of a sharp product F # G.

    F is evaluated at (u + w; mu) and G at (v + w; eta); m is the base
    dimension and mu, eta are the fibers of F and G.  plan() holds the block
    rules of the Hessian, and every Hessian of a sharp product is assembled
    through it: the composition DAG, the flattened rotation family and the
    shifted family of the genfun route.  No entry of the assembled Hessian
    receives more than two addends (plan() checks it), so the order of
    assembly does not change its bits.
    """

    def __init__(self, m: int, fiber_first: int, fiber_second: int):
        self.m = m
        self.dim = 3 * m + fiber_first + fiber_second
        self.u = slice(0, m)
        self.v = slice(m, 2 * m)
        self.w = slice(2 * m, 3 * m)
        self.mu = slice(3 * m, 3 * m + fiber_first)
        self.eta = slice(3 * m + fiber_first, self.dim)

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The points (u + w; mu) of F and (v + w; eta) of G inside x."""
        w = x[:, self.w]
        return (np.concatenate([x[:, self.u] + w, x[:, self.mu]], axis=1),
                np.concatenate([x[:, self.v] + w, x[:, self.eta]], axis=1))

    def value_grad(self, x, vF, gF, vG, gG):
        """Value and gradient of F # G at x from the values and gradients of
        F and G at the points of split(x); the gradient is None when either
        child's is (an order-0 evaluation)."""
        m = self.m
        u, v, w = x[:, self.u], x[:, self.v], x[:, self.w]
        iw = mul_i(w)
        val = vF + vG + 2.0 * np.sum((u - v) * iw, axis=1)
        if gF is None or gG is None:
            return val, None
        grad = np.zeros((x.shape[0], self.dim))
        grad[:, self.u] = gF[:, :m] + 2.0 * iw
        grad[:, self.v] = gG[:, :m] - 2.0 * iw
        grad[:, self.w] = gF[:, :m] + gG[:, :m] - 2.0 * mul_i(u - v)
        grad[:, self.mu] = gF[:, m:]
        grad[:, self.eta] = gG[:, m:]
        return val, grad

    def plan(self, first: HessianPlan, second: HessianPlan, pairing: float | None) -> HessianPlan:
        """Plan of the Hessian of F # G from the plans of F and G.

        A base coordinate of F feeds u and w, a fiber coordinate mu (G: v, w
        and eta), so each entry of F's Hessian lands on up to four entries.
        pairing scales the block of the pairing term 2<u - v, iw>: 2 for
        Hessians, 1 for the matrices M of forms x^T M x, None for parameter
        derivatives, where the pairing term is constant.
        """
        m, dim = self.m, self.dim
        J = np.zeros((m, m)) if pairing is None else pairing * complex_structure_matrix(m // 2)
        ji, jj = np.nonzero(J)
        pairs = ((self.u, self.w, 1.0), (self.w, self.u, -1.0),
                 (self.v, self.w, -1.0), (self.w, self.v, 1.0))
        const_code: dict[float, int] = {}
        for c in (*first.consts, *second.consts, *(() if pairing is None else (pairing, -pairing))):
            const_code.setdefault(float(c), len(const_code))
        offset = len(const_code)
        dst, codes = [], []
        for child, base, fiber in ((first, self.u, self.mu), (second, self.v, self.eta)):
            table = child.recoded(const_code, offset)
            offset += sum(child.atom_sizes)
            c = np.concatenate([np.arange(m), np.arange(m), np.arange(m, child.dim)])
            p = np.concatenate([np.arange(base.start, base.stop),
                                np.arange(self.w.start, self.w.stop),
                                np.arange(fiber.start, fiber.stop)])
            at = table[(c[:, None] * child.dim + c).ravel()]
            to = (p[:, None] * dim + p).ravel()
            for slot in (0, 1):
                keep = at[:, slot] > 0
                dst.append(to[keep])
                codes.append(at[keep, slot])
        for rows, cols, sign in pairs:
            dst.append((rows.start + ji) * dim + cols.start + jj)
            codes.append(np.array([const_code[float(s)] for s in sign * J[ji, jj]], dtype=np.intp))
        return HessianPlan.compile(dim, tuple(const_code), first.atom_sizes + second.atom_sizes,
                                   dst, codes)

    def hessian(self, HF: np.ndarray, HG: np.ndarray, pairing: float | None) -> np.ndarray:
        """Batched (B, dim, dim) block matrix of F # G from those of F and G,
        with pairing as in plan()."""
        plan = _atom_pair_plan(self.m, self.mu.stop - self.mu.start,
                               self.eta.stop - self.eta.start, pairing)
        return plan.apply([HF, HG])


@functools.lru_cache(maxsize=None)
def _atom_pair_plan(m: int, fiber_first: int, fiber_second: int, pairing) -> HessianPlan:
    """The one-level plan of SharpLayout.hessian: both children are atoms."""
    return SharpLayout(m, fiber_first, fiber_second).plan(
        HessianPlan.atom(m + fiber_first), HessianPlan.atom(m + fiber_second), pairing)


class ComposeGF(GenFun):
    """Sharp-product node; left child is the map applied first."""

    def __init__(self, first: GenFun, second: GenFun):
        if first.base_dim != second.base_dim:
            raise ValueError("base dimensions must match")
        self.first = first
        self.second = second
        self.base_dim = first.base_dim
        self.fiber_dim = 2 * self.base_dim + first.fiber_dim + second.fiber_dim
        self.layout = SharpLayout(self.base_dim, first.fiber_dim, second.fiber_dim)

    @functools.cached_property
    def _plan(self) -> HessianPlan:
        # compiled on first use; a DAG evaluated only to order 1 never pays
        return self.layout.plan(self.first.hessian_plan(), self.second.hessian_plan(), 2.0)

    def hessian_plan(self) -> HessianPlan:
        return self._plan

    def evaluate(self, x, order=1, leaf_cache=None):
        val, grad, atoms, ok = self.evaluate_terms(x, order, leaf_cache)
        hess = self._plan.apply(atoms) if order >= 2 else None
        return val, grad, hess, ok

    def evaluate_terms(self, x, order=1, leaf_cache=None):
        x = np.asarray(x, dtype=float)
        xF, xG = self.layout.split(x)
        vF, gF, aF, okF = self.first.evaluate_terms(xF, order, leaf_cache)
        vG, gG, aG, okG = self.second.evaluate_terms(xG, order, leaf_cache)
        val, grad = self.layout.value_grad(x, vF, gF, vG, gG)
        return val, grad, aF + aG, okF & okG

    def map_points(self, z):
        return self.second.map_points(self.first.map_points(z))

    def chain_seed(self, z, midpoints=None):
        fibF, z_mid = self.first.chain_seed(z, midpoints)
        fibG, z_out = self.second.chain_seed(z_mid, midpoints)
        v = z_out
        w = 0.5 * (z_mid - z_out)
        return np.concatenate([v, w, fibF, fibG], axis=1), z_out


def gf_compose(first: GenFun, second: GenFun) -> GenFun:
    """Sharp-composition: result generates (map of second) o (map of first)."""
    return ComposeGF(first, second)


def chain_links(gf: GenFun, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the v and w blocks of every sharp product of a chain.

    gf must be a left-associated chain ((g_1 # g_2) # ...) # g_L of nodes
    without fiber variables (ValueError otherwise), and its coordinate k >=
    base_dim must sit at position offset + k of an enclosing vector.  The
    product with g_j evaluates the chain of g_1..g_{j-1} at u + w and g_j at
    v + w.  Returns (v, w), each of shape (L - 1, base_dim): row j - 2 holds
    the positions of that product's v (resp. w), j = 2..L.
    """
    m = gf.base_dim
    vs, ws = [], []
    while isinstance(gf, ComposeGF):
        if gf.second.fiber_dim:
            raise ValueError("not a chain of fiber-free nodes")
        lay = gf.layout
        vs.append(offset + np.arange(lay.v.start, lay.v.stop))
        ws.append(offset + np.arange(lay.w.start, lay.w.stop))
        # the first child's coordinate k >= m sits at lay.mu.start + k - m
        offset += lay.mu.start - m
        gf = gf.first
    if gf.fiber_dim:
        raise ValueError("not a chain of fiber-free nodes")
    shape = (len(vs), m)
    return (np.array(vs[::-1], dtype=np.intp).reshape(shape),
            np.array(ws[::-1], dtype=np.intp).reshape(shape))


def _collect_leaf_bases(gf: GenFun, x: np.ndarray, out: list) -> None:
    if isinstance(gf, LeafGF):
        out.append((gf, x))
    elif isinstance(gf, ComposeGF):
        xF, xG = gf.layout.split(x)
        _collect_leaf_bases(gf.first, xF, out)
        _collect_leaf_bases(gf.second, xG, out)


def evaluate_stacked(gf: GenFun, x: np.ndarray, order: int = 1, warm: LeafState | None = None,
                     terms: bool = False):
    """Evaluate like GenFun.evaluate (GenFun.evaluate_terms when terms is
    true) but solve all leaf midpoints in one stacked Newton per compatible
    group.

    Leaves of an autonomous spec depend only on their span, so their batches
    concatenate into a single integration; this amortizes the per-step cost
    across the whole DAG.  Without warm state every leaf starts cold and the
    results are bitwise the plain recursive ones.

    With warm state (a LeafState of the same rows, from an earlier call or
    from chain_state) every leaf starts from the one-step predictor at its new
    base, and the new LeafState is returned as a fifth element.  A warm start
    converges to the same midpoints within the leaf tolerance, not bitwise.
    """
    x = np.asarray(x, dtype=float)
    B, m = x.shape[0], gf.base_dim
    requests: list[tuple[LeafGF, np.ndarray]] = []
    _collect_leaf_bases(gf, x, requests)
    bases = _stack_leaves([b for _, b in requests], B, (m,))
    guess = None if warm is None else warm.predict(bases)
    cache: dict[int, tuple] = {}
    groups: dict[tuple, list[int]] = {}
    for i, (leaf, _) in enumerate(requests):
        piece = leaf.piece
        if piece.spec.is_autonomous():
            key = (piece.spec, round(piece.span, 15), piece.settings)
        else:
            key = (piece.spec, piece.t0, piece.t1, piece.settings)
        groups.setdefault(key, []).append(i)
    for members in groups.values():
        piece0 = requests[members[0]][0].piece
        group_b = np.concatenate([requests[i][1] for i in members], axis=0)
        z0 = None if guess is None else np.concatenate([guess[:, i] for i in members], axis=0)
        if piece0.spec.is_autonomous():
            t0, t1 = 0.0, piece0.span
        else:
            t0, t1 = piece0.t0, piece0.t1
        z, Zv, jac, ok = solve_midpoint(piece0.spec, t0, t1, piece0.settings, group_b, z0=z0)
        for j, i in enumerate(members):
            sl = slice(j * B, (j + 1) * B)
            cache[id(requests[i][0])] = (z[sl], Zv[sl], jac[sl], ok[sl])
    result = (gf.evaluate_terms if terms else gf.evaluate)(x, order, leaf_cache=cache)
    if warm is None:
        return result
    solved = [cache[id(leaf)] for leaf, _ in requests]
    state = LeafState(bases, _stack_leaves([c[0] for c in solved], B, (m,)),
                      _stack_leaves([c[2] for c in solved], B, (m, m)))
    return (*result, state)


def gf_eval(gf: GenFun, x) -> float:
    xb, single = _as_batch(x)
    val, _, _, ok = evaluate_stacked(gf, xb, order=0)
    if not np.all(ok):
        raise LeafNewtonError("leaf midpoint solve failed at the requested point")
    return float(val[0]) if single else val


def gf_grad(gf: GenFun, x) -> np.ndarray:
    xb, single = _as_batch(x)
    _, grad, _, ok = evaluate_stacked(gf, xb, order=1)
    if not np.all(ok):
        raise LeafNewtonError("leaf midpoint solve failed at the requested point")
    return grad[0] if single else grad


def rotation_family_matrices(t, n: int, k: int):
    """Batched matrices (M_A(t), dM_A/dt) of the k-piece family for a_t.

    t may be a scalar or shape (B,).  Each piece is the quadratic form
    -tan(pi t / k) |u|^2 (a rotation by -2 pi t / k); left-associated
    composition of k pieces gives a form on R^{2n + 4n(k-1)}.
    """
    if k < 3:
        raise ValueError("k must be >= 3 so each piece rotates by less than half a turn")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(np.abs(t_arr) / k >= 0.5):
        raise ValueError("|t|/k must stay below 1/2")
    m = 2 * n
    coeff = -np.tan(np.pi * t_arr / k)
    dcoeff = -(np.pi / k) / np.cos(np.pi * t_arr / k) ** 2
    eye = np.eye(m)
    piece = coeff[:, None, None] * eye
    dpiece = dcoeff[:, None, None] * eye
    M, dM = piece, dpiece
    for _ in range(k - 1):
        layout = SharpLayout(m, M.shape[1] - m, 0)
        M, dM = layout.hessian(M, piece, 1.0), layout.hessian(dM, dpiece, None)
    if np.ndim(t) == 0:
        return M[0], dM[0]
    return M, dM


def fiber_critical_solve(
    gf: GenFun,
    base: np.ndarray,
    fiber0: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 40,
):
    """Newton on the fiber block: find fiber with d_fiber F(base; fiber) = 0.

    Returns (fiber, ok).  The base stays fixed; the Jacobian is the
    fiber-fiber block of the Hessian.
    """
    base = np.asarray(base, dtype=float)
    fiber = np.asarray(fiber0, dtype=float).copy()
    B = base.shape[0]
    m = gf.base_dim
    ok = np.zeros(B, dtype=bool)
    scale = np.maximum(np.linalg.norm(base, axis=1), 1e-12)
    for _ in range(max_iter):
        x = np.concatenate([base, fiber], axis=1)
        _, grad, hess, ok_eval = evaluate_stacked(gf, x, order=2)
        gfib = grad[:, m:]
        ok = ok_eval & (np.linalg.norm(gfib, axis=1) <= tol * scale)
        if np.all(ok | ~ok_eval):
            break
        step = solve_rows(hess[:, m:, m:], gfib)
        upd = ~ok & ok_eval
        fiber = fiber - np.where(upd[:, None], step, 0.0)
    return fiber, ok


def reduced_covector(gf: GenFun, base: np.ndarray, fiber: np.ndarray):
    """Base gradient at a fiber-critical point: the covector of i_F."""
    x = np.concatenate([base, fiber], axis=1)
    _, grad, _, ok = evaluate_stacked(gf, x, order=1)
    return grad[:, : gf.base_dim], ok


# ---------------------------------------------------------------------------
# Shared-schedule families and monotonicity
# ---------------------------------------------------------------------------


def shared_schedule_family(spec, schedule, settings: IntegratorSettings):
    """t -> GenFun for the isotopy time-t map, on one fixed total space.

    Every piece of the fixed subdivision schedule is present for every t,
    clamped to [min(a, t), min(b, t)]; pieces ahead of t degenerate to the
    identity leaf.  The total space therefore never changes with t, which is
    what makes d F_t / d t meaningful pointwise.
    """

    def family_at(t: float) -> GenFun:
        gf: GenFun | None = None
        for a, b in schedule:
            leaf = LeafGF(FlowMap(spec, min(a, t), min(b, t), settings))
            gf = leaf if gf is None else gf_compose(gf, leaf)
        return gf

    return family_at


def monotonicity_probe_values(
    spec,
    settings: IntegratorSettings | None = None,
    delta: float = 1.0,
    sample_count: int = 64,
    t_count: int = 16,
    fd_step: float = 1e-4,
):
    """Finite-difference values of dF_t/dt on fixed total-space samples.

    Requires a sign-definite Hamiltonian (checked by sampling the sphere);
    raises otherwise.  Returns an array of shape (t_count, sample_count).
    """
    from .flow import subdivide_c1_small
    from .hamiltonian import sphere_value
    from .linsymp import to_complex

    if settings is None:
        settings = IntegratorSettings()
    schedule = subdivide_c1_small(spec, 0.0, 1.0, delta, settings)
    family_at = shared_schedule_family(spec, schedule, settings)
    dim = family_at(0.5).total_dim
    samples = sphere_points(sample_count, dim, seed=0.3)

    knots = np.array([a for a, _ in schedule] + [1.0])
    t_grid = (np.arange(t_count) + 0.5) / t_count
    for i, t in enumerate(t_grid):
        # keep the centered stencil inside one piece
        while np.min(np.abs(knots - t_grid[i])) < 2 * fd_step:
            t_grid[i] += 4 * fd_step

    sphere_q = to_complex(sphere_points(64 * spec.n, 2 * spec.n))
    h_vals = np.concatenate([np.atleast_1d(sphere_value(spec, sphere_q, t)) for t in t_grid])
    if np.any(h_vals > 0) and np.any(h_vals < 0) or np.any(h_vals == 0):
        raise ValueError("Hamiltonian is not sign-definite on the sphere sample set")

    probes = np.zeros((t_count, sample_count))
    for i, t in enumerate(t_grid):
        hi, _, _, ok_hi = evaluate_stacked(family_at(t + fd_step), samples, order=0)
        lo, _, _, ok_lo = evaluate_stacked(family_at(t - fd_step), samples, order=0)
        if not np.all(ok_hi & ok_lo):
            raise LeafNewtonError("leaf solve failed during the monotonicity probe")
        probes[i] = (hi - lo) / (2.0 * fd_step)
    return probes

