"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own code paths: the
eigenvalue counter is a hand-rolled cyclic Jacobi iteration (not LAPACK's
QR used by numpy.linalg.eigh), the matrix exponential is scaling-and-
squaring on a Taylor series, the Hamiltonian value is a direct
transcription with python loops, and the lifted gradient and Hessian come
from complex Wirtinger monomial tables instead of the library's real ones.

Wirtinger reference.  For a real function H the Euclidean gradient, read as
a complex vector in the (x, y) block layout, is G_j = 2 dH/dzbar_j, and the
real Hessian is the real-linear map v -> P v + Q conj(v) with
P_jl = dG_j/dz_l and Q_jl = dG_j/dzbar_l.  Every entry of (H, G, P, Q) of
the lift expands into monomial primitives

    coef * rho^pow * prod z^p * prod conj(z)^q,

so each spec compiles once into exponent/coefficient tables and evaluation is
a couple of gathers plus one matrix product, batched over points.

bisect_c1_small is the C^1 subdivision with one probe per interval, the
reference for the library's piece count, which probes each level once.

Reference integrator.  reference_flow runs the DOP853 scheme of
flow.integrate_flow on the library's compiled tables, one numpy call per
tableau term, per coordinate and per gathered operand, with separate stage
buffers for the state and the Jacobian and the whole batch in one pass.  The
library must give every row the same bits.

The test-only helpers at the end are not called by the library: the
library's compiled field at a batch of points, matrices of the linear
symplectic structure, the contact form alpha (the pullback
oracle of the conformal factor), the covector of the graph-to-cotangent
identification tau, chains with solved leaves (solved_chain), the
finite-difference monotonicity probe of dF_t/dt, quadratic generating
functions, the k-piece rotation family as a chain next to its matrix, and
the translated points of a quadratic-form Hamiltonian from the eigenvalues
of its linear pencil (linear_translated_points), the record-at-a-time
dedup (loop_dedup_and_flag) and kernel classifier (classify_kernel), and
records.csv written by csv.writer (csv_writer_records).

Nested reference.  The library stores every generating function as one chain
of links in chain coordinates sigma (genfun).  The reference here is the
nested sharp-product DAG of the same links: ComposeGF nodes in the
coordinates x = (u, v, w, mu, eta) of every level, whose Hessian adds each
level's blocks into a fresh zero matrix.  chain_change gives the unimodular S
with sigma = S x for a left-associated chain.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from contactmorse import flow
from contactmorse import hamiltonian as ham
from contactmorse import translated as tp
from contactmorse.genfun import (
    ChainGF,
    LeafGF,
    LeafState,
    evaluate_stacked,
    flow_chain,
    gf_compose,
    leaf_hessian,
    rotation_family_matrices,
    split_chain,
)
from contactmorse.linsymp import complex_structure_matrix, mul_i, to_complex, to_real
from contactmorse.sampling import sphere_points


def jacobi_eigenvalues(M: np.ndarray, tol: float = 1e-13, max_sweeps: int = 64):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(M, dtype=float)
    m = A.shape[0]
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(A**2) - np.sum(np.diag(A) ** 2))
        if off <= tol * max(1.0, np.abs(np.diag(A)).max()):
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                if abs(A[p, q]) < 1e-300:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * A[:, p] - s * A[:, q]
                rot_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = rot_p, rot_q
                rot_p = c * A[p, :] - s * A[q, :]
                rot_q = s * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = rot_p, rot_q
    return np.sort(np.diag(A))


def inertia_via_jacobi(M: np.ndarray, tol: float):
    vals = jacobi_eigenvalues(M)
    index = int(np.sum(vals < -tol))
    coindex = int(np.sum(vals > tol))
    return index, len(vals) - index - coindex, coindex


def expm(A: np.ndarray, order: int = 18) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring on the Taylor series."""
    A = np.asarray(A, dtype=float)
    norm = np.linalg.norm(A, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-16)))) + 1)
    B = A / (2.0**squarings)
    E = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, order + 1):
        term = term @ B / k
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E


class WirtingerTables:
    """Monomial primitives of the value/gradient/Hessian of the lift.

    Output slots: 0 -> H (real part taken afterwards); 1..n -> G_j;
    then P row-major, then Q row-major.
    """

    def __init__(self, spec):
        n = spec.n
        self.n = n
        prim: list[tuple[float, np.ndarray, np.ndarray, float, int]] = []

        def emit(coef, p, q, pw, slot):
            if coef != 0.0 and np.all(p >= 0) and np.all(q >= 0):
                prim.append((float(coef), p.copy(), q.copy(), float(pw), slot))

        def e(j):
            v = np.zeros(n, dtype=int)
            v[j] = 1
            return v

        slot_P = lambda j, l: 1 + n + j * n + l
        slot_Q = lambda j, l: 1 + n + n * n + j * n + l

        for term in spec.terms:
            A = term.amplitude
            a = np.asarray(term.z_powers, dtype=int)
            b = np.asarray(term.zbar_powers, dtype=int)
            d = term.degree
            s = 0.5 * (2 - d)
            emit(A, a, b, s, 0)
            for j in range(n):
                emit(A * (2 - d) / 2.0, a + e(j), b, s - 1, 1 + j)
                emit(A * (2 - d) / 2.0, b + e(j), a, s - 1, 1 + j)
                if b[j] > 0:
                    emit(A * b[j], a, b - e(j), s, 1 + j)
                if a[j] > 0:
                    emit(A * a[j], b, a - e(j), s, 1 + j)
            for j in range(n):
                for l in range(n):
                    ss = s * (s - 1)
                    emit(A * ss, a + e(j), b + e(l), s - 2, slot_P(j, l))
                    emit(A * ss, b + e(j), a + e(l), s - 2, slot_P(j, l))
                    if j == l:
                        emit(A * s, a, b, s - 1, slot_P(j, l))
                        emit(A * s, b, a, s - 1, slot_P(j, l))
                    if a[l] > 0:
                        emit(A * s * a[l], a - e(l) + e(j), b, s - 1, slot_P(j, l))
                    if b[l] > 0:
                        emit(A * s * b[l], b - e(l) + e(j), a, s - 1, slot_P(j, l))
                    if b[j] > 0:
                        emit(A * s * b[j], a, b - e(j) + e(l), s - 1, slot_P(j, l))
                    if a[j] > 0:
                        emit(A * s * a[j], b, a - e(j) + e(l), s - 1, slot_P(j, l))
                    if b[j] > 0 and a[l] > 0:
                        emit(A * b[j] * a[l], a - e(l), b - e(j), s, slot_P(j, l))
                    if a[j] > 0 and b[l] > 0:
                        emit(A * a[j] * b[l], b - e(l), a - e(j), s, slot_P(j, l))

                    emit(A * ss, a + e(j) + e(l), b, s - 2, slot_Q(j, l))
                    emit(A * ss, b + e(j) + e(l), a, s - 2, slot_Q(j, l))
                    if b[l] > 0:
                        emit(A * s * b[l], a + e(j), b - e(l), s - 1, slot_Q(j, l))
                    if a[l] > 0:
                        emit(A * s * a[l], b + e(j), a - e(l), s - 1, slot_Q(j, l))
                    if b[j] > 0:
                        emit(A * s * b[j], a + e(l), b - e(j), s - 1, slot_Q(j, l))
                    if a[j] > 0:
                        emit(A * s * a[j], b + e(l), a - e(j), s - 1, slot_Q(j, l))
                    if b[j] > 0 and b[l] - (1 if j == l else 0) > 0:
                        emit(A * b[j] * (b - e(j))[l], a, b - e(j) - e(l), s, slot_Q(j, l))
                    if a[j] > 0 and a[l] - (1 if j == l else 0) > 0:
                        emit(A * a[j] * (a - e(j))[l], b, a - e(j) - e(l), s, slot_Q(j, l))

        self.n_out = 1 + n + 2 * n * n
        # Primitives sharing (p, q, pow) collapse into one row of the output
        # matrix; this roughly halves the gather width.
        merged: dict[tuple, np.ndarray] = {}
        for coef, p, q, pw, slot in prim:
            key = (tuple(p), tuple(q), pw)
            row = merged.setdefault(key, np.zeros(self.n_out))
            row[slot] += coef
        self.K = len(merged)
        if self.K:
            keys = list(merged.keys())
            self.P_exp = np.array([k[0] for k in keys], dtype=int)
            self.Q_exp = np.array([k[1] for k in keys], dtype=int)
            self.pows = pows = np.array([k[2] for k in keys])
            # All powers are integer multiples of 1/2 >= some floor; index a
            # small table of powers of sqrt(rho).
            half_steps = np.round(2.0 * pows).astype(int)
            if not np.allclose(half_steps, 2.0 * pows):
                raise AssertionError("rho powers must be half-integers")
            self.half_lo = int(half_steps.min())
            self.half_hi = int(half_steps.max())
            self.half_idx = half_steps - self.half_lo
            self.S = np.array([merged[k] for k in keys])
            self.maxdeg = int(max(self.P_exp.max(), self.Q_exp.max()))
            self.PQ_exp = np.concatenate([self.P_exp, self.Q_exp], axis=0)
        self.quad = np.asarray(spec.quadratic)

    def eval(self, z: np.ndarray):
        """Returns (H, G, P, Q) at complex points z of shape (B, n)."""
        n = self.n
        B = z.shape[0]
        rho = np.sum((z * z.conj()).real, axis=-1)
        if np.any(rho <= 0.0) or not np.all(np.isfinite(rho)):
            raise ValueError("the lifted Hamiltonian is undefined at z = 0")
        zz = (z * z.conj()).real
        H = zz @ self.quad
        G = 2.0 * self.quad * z
        P = np.zeros((B, n, n), dtype=complex)
        P[:, np.arange(n), np.arange(n)] = 2.0 * self.quad
        Q = np.zeros((B, n, n), dtype=complex)
        if self.K:
            tab = np.ones((B, n, self.maxdeg + 1), dtype=complex)
            if self.maxdeg:
                tab[:, :, 1:] = np.cumprod(
                    np.broadcast_to(z[:, :, None], (B, n, self.maxdeg)), axis=2
                )
            jj = np.arange(n)
            gathered = np.prod(tab[:, jj, self.PQ_exp], axis=-1)
            mono = gathered[:, : self.K] * gathered[:, self.K :].conj()
            # powers of sqrt(rho) from half_lo to half_hi, one multiply each
            r = np.sqrt(rho)
            span = self.half_hi - self.half_lo + 1
            rpow = np.empty((B, span))
            rpow[:, 0] = r**self.half_lo
            for i in range(1, span):
                rpow[:, i] = rpow[:, i - 1] * r
            prim = mono * rpow[:, self.half_idx]
            out = prim @ self.S
            H = H + out[:, 0].real
            G = G + out[:, 1 : 1 + n]
            P = P + out[:, 1 + n : 1 + n + n * n].reshape(B, n, n)
            Q = Q + out[:, 1 + n + n * n :].reshape(B, n, n)
        return H, G, P, Q


def wirtinger_lift(spec, z: np.ndarray):
    """(H, G, P, Q) of the lift at complex points z (..., n)."""
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    zb = z[None, :] if single else z
    H, G, P, Q = WirtingerTables(spec).eval(zb)
    if single:
        return H[0], G[0], P[0], Q[0]
    return H, G, P, Q


def naive_lift_value(spec, z_complex: np.ndarray) -> float:
    """Direct loop transcription of |z|^2 h(z/|z|) for one complex point."""
    z = np.asarray(z_complex, dtype=complex)
    rho = float(np.sum((z * z.conj()).real))
    val = sum(c * float((zj * zj.conjugate()).real) for c, zj in zip(spec.quadratic, z))
    for term in spec.terms:
        mono = 1.0 + 0.0j
        for j in range(spec.n):
            mono *= z[j] ** term.z_powers[j]
            mono *= z[j].conjugate() ** term.zbar_powers[j]
        val += term.amplitude * rho ** (0.5 * (2 - term.degree)) * mono.real
    return val


def fd_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(x, dtype=float)
    for k in range(x.shape[0]):
        e = np.zeros_like(x, dtype=float)
        e[k] = eps
        g[k] = (f(x + e) - f(x - e)) / (2.0 * eps)
    return g


def random_orthogonal(m: int, rng: np.random.Generator) -> np.ndarray:
    Q, R = np.linalg.qr(rng.normal(size=(m, m)))
    return Q * np.sign(np.diag(R))


def bisect_c1_small(spec, t0: float, t1: float, delta: float, settings):
    """Reference subdivision: the bisection of [t0, t1] that
    flow.subdivide_c1_small counts, with its delta, settings and piece cap,
    and one c1_distance probe per interval it visits, whatever the spec.
    Returns the pieces (a, b) in order."""
    from contactmorse.sampling import subdivision_probe_points

    probe_settings = flow.IntegratorSettings(steps_per_unit=min(settings.steps_per_unit, 16))
    samples = subdivision_probe_points(spec.n)
    pieces = []
    stack = [(t0, t1)]
    while stack:
        a, b = stack.pop()
        if flow.c1_distance(spec, b - a, probe_settings, samples) < delta:
            pieces.append((a, b))
        else:
            if (b - a) * flow._MAX_PIECES < (t1 - t0):
                raise RuntimeError("C1-small subdivision exceeded the piece cap")
            mid = 0.5 * (a + b)
            stack.append((mid, b))
            stack.append((a, mid))
    pieces.sort()
    return pieces


# Reference integrator.


class ReferenceFieldEval:
    """The compiled field of flow._RealField's tables at B points, evaluated
    one numpy call per coordinate and per gathered operand: |x|^2 as 2n
    multiplies and 2n - 1 in-place adds, and each monomial level as two
    gathers, from the monomials and from u, and a multiply.  The matrix
    product runs in the library's fixed blocks."""

    def __init__(self, tables, B: int, with_jacobian: bool):
        self.tables = tables
        self.plan = tables.plans[with_jacobian]
        two_n = 2 * tables.n
        padded = -(-B // flow._GEMM_ROWS) * flow._GEMM_ROWS
        self.uT = np.zeros((two_n, padded))
        self.r = np.empty(B)
        self.tmp = np.empty(B)
        if self.plan is not None:
            levels, mat = self.plan
            self.tab = np.empty((len(mat), padded))
            self.tab[0] = 1.0
            self.out = np.empty((padded // flow._GEMM_ROWS, flow._GEMM_ROWS, mat.shape[1]))

    def __call__(self, x, field, jac=None):
        tables = self.tables
        B, two_n = x.shape
        uT, r = self.uT[:, :B], self.r
        np.copyto(uT, x.T)
        np.multiply(uT[0], uT[0], out=r)
        for j in range(1, two_n):
            r += np.multiply(uT[j], uT[j], out=self.tmp)
        if not (r.min(initial=np.inf) > 0.0 and r.max(initial=1.0) < np.inf):
            raise ValueError("the lifted Hamiltonian is undefined at z = 0")
        np.matmul(x, tables.lin_T, out=field)
        if self.plan is not None:
            np.sqrt(r, out=r)
            np.divide(uT, r, out=uT)
            levels, mat = self.plan
            tab, out = self.tab, self.out
            K = len(mat)
            for start, stop, gather in levels:
                w = stop - start
                np.multiply(tab.take(gather[:w], axis=0), self.uT.take(gather[w:] - K, axis=0),
                            out=tab[start:stop])
            blocks = out.shape[0]
            np.matmul(tab.reshape(K, blocks, flow._GEMM_ROWS).transpose(1, 2, 0), mat, out=out)
            out = out.reshape(blocks * flow._GEMM_ROWS, mat.shape[1])[:B]
            field += r[:, None] * out[:, :two_n]
            if jac is not None:
                np.add(out[:, two_n:].reshape(B, two_n, two_n), tables.lin, out=jac)
        elif jac is not None:
            jac[...] = tables.lin


def reference_dop853(field, z, jac, h: float, steps: int) -> None:
    """Fixed-step DOP853 of z (B, m) and, unless jac is None, of the
    variational equation, in place: state and Jacobian in separate stage
    buffers, each stage's argument one multiply and one add per tableau
    term, in tableau order."""

    def weighted(k, terms):
        (j, w), rest = terms[0], terms[1:]
        acc = k[j] * (h * w)
        for j, w in rest:
            acc += k[j] * (h * w)
        return acc

    B, m = z.shape
    k = np.empty((len(flow._C), B, m))
    if jac is not None:
        D = np.empty((B, m, m))
        a = np.empty((len(flow._C), B, m, m))
    for _ in range(steps):
        for s in range(len(flow._C)):
            x = z + weighted(k, flow._A[s]) if s else z
            if jac is None:
                field(x, k[s])
            else:
                field(x, k[s], D)
                np.matmul(D, jac + weighted(a, flow._A[s]) if s else jac, out=a[s])
        z += weighted(k, flow._B)
        if jac is not None:
            jac += weighted(a, flow._B)


def reference_flow(spec, z0, t0: float, t1: float, settings, with_jacobian: bool = True):
    """flow.integrate_flow on the reference pair, the whole batch at once;
    only the span t1 - t0 matters.

    A linear field takes its flow from one unit row integrated with its
    Jacobian, and applies it to every row, one column at a time."""
    z = np.array(z0, dtype=float, ndmin=2)
    B, m = z.shape
    jac = np.broadcast_to(np.eye(m), (B, m, m)).copy() if with_jacobian else None
    span = t1 - t0
    if span != 0.0:
        steps = settings.steps_for(span)
        tables = flow._real_field(spec)
        if tables.linear:
            one, unit = np.eye(1, m), np.eye(m)[None].copy()
            reference_dop853(ReferenceFieldEval(tables, 1, True), one, unit, span / steps, steps)
            z0, z = z, np.zeros((B, m))
            for k in range(m):
                z += z0[:, k:k + 1] * unit[0][:, k]
            if with_jacobian:
                jac[...] = unit[0]
        else:
            reference_dop853(ReferenceFieldEval(tables, B, with_jacobian), z, jac, span / steps,
                             steps)
    return z, jac


# Test-only helpers, no longer called by the library.


def compiled_field(spec, x, with_jacobian: bool = True):
    """The library's lifted field dx/dt = FIELD_SCALE * J * grad H (B, 2n)
    at real points x (B, 2n), through one flow._FieldEval, and its real
    Jacobian (B, 2n, 2n), or None."""
    x = np.asarray(x, dtype=float)
    field = np.empty_like(x)
    jac = np.empty(x.shape + x.shape[-1:]) if with_jacobian else None
    flow._FieldEval(flow._real_field(spec), x.shape[0], with_jacobian)(x, field, jac)
    return field, jac


def symplectic_form_matrix(n: int) -> np.ndarray:
    """Matrix Omega of omega(u, v) = <iu, v> = u^T Omega^T v ... stored so that
    omega(u, v) = u @ Omega @ v."""
    # <iu, v> = (J u)^T v = u^T J^T v, so Omega = J^T = -J.
    return -complex_structure_matrix(n)


def realify(P: np.ndarray, Q: np.ndarray | None = None) -> np.ndarray:
    """Real 2n x 2n matrix of the real-linear map v -> P v + Q conj(v) on C^n.

    P, Q may be batched (..., n, n); the result is (..., 2n, 2n).
    """
    if Q is None:
        Q = np.zeros_like(P)
    A = P + Q
    B = P - Q
    top = np.concatenate([A.real, -B.imag], axis=-1)
    bot = np.concatenate([A.imag, B.real], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def contact_form_eval(q, v) -> float:
    """Value of alpha = x dy - y dx at q on the vector v.

    Works on the whole of R^{2n}; on the unit sphere this is the standard
    contact form, and alpha_q(i q) = |q|^2.
    """
    qa = np.asarray(q, dtype=float)
    va = np.asarray(v, dtype=float)
    if qa.shape != va.shape:
        raise ValueError("q and v must have the same dimension")
    n = qa.shape[-1] // 2
    x, y = qa[..., :n], qa[..., n:]
    vx, vy = va[..., :n], va[..., n:]
    val = np.sum(x * vy - y * vx, axis=-1)
    return float(val) if qa.ndim == 1 else val


def tau_covector(z: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Covector of the graph point (z, Z) under the identification tau.

    tau maps (x, y, X, Y) to the point ((x+X)/2, (y+Y)/2) of R^{2n} with the
    covector (Y-y, x-X), which is -i(Z - z) in complex notation; the diagonal
    z == Z goes to the zero section.  Batched over leading axes.
    """
    return -mul_i(Z - z)


def cold_leaf_state(bases: np.ndarray) -> LeafState:
    """The LeafState with every midpoint at its base, bases (B, L, 2n), and
    DPhi = I: its leaf step toward those bases is zero, so the next
    evaluate_stacked integrates each leaf at its base, where a cold leaf
    Newton starts."""
    m = bases.shape[-1]
    return LeafState(bases, bases.copy(), np.broadcast_to(np.eye(m), bases.shape + (m,)).copy())


def chain_leaf_bases(gf: ChainGF, x: np.ndarray) -> np.ndarray:
    """The bases (B, L, 2n) of gf's leaves at x (B, total_dim), in chain order."""
    a, b = split_chain(np.asarray(x, dtype=float), gf.base_dim)
    leaves = [j for j, link in enumerate(gf.links) if isinstance(link, LeafGF)]
    return np.concatenate([a[:, :1], b], axis=1)[:, leaves]


# Evaluations of solve_leaves at most.
_SOLVE_EVALUATIONS = 30


def solve_leaves(gf: ChainGF, x: np.ndarray, state: LeafState):
    """The production step evaluate_stacked(gf, x, state) repeated from
    state until every integrated row passes the leaf test at its bases
    (LeafState.solves), at most _SOLVE_EVALUATIONS times.  Returns the last
    (val, grad, hess, ok, state), with ok narrowed to the rows whose leaves
    were integrated and pass the leaf test."""
    bases = chain_leaf_bases(gf, x)
    for _ in range(_SOLVE_EVALUATIONS):
        val, grad, hess, ok, state = evaluate_stacked(gf, x, state)
        solved = state.solves(bases)
        if np.all(solved | ~ok):
            break
    return val, grad, hess, ok & solved, state


def solved_chain(gf: ChainGF, x: np.ndarray):
    """(val, grad, hess, ok) of the chain gf at x (B, total_dim) with its
    leaves solved: solve_leaves from cold_leaf_state, from which
    LeafState.predict takes exactly the steps of a cold leaf Newton."""
    return solve_leaves(gf, x, cold_leaf_state(chain_leaf_bases(gf, x)))[:4]


def monotonicity_probe_values(spec, settings, delta: float = 1.0, sample_count: int = 64,
                              t_count: int = 16, fd_step: float = 1e-4) -> np.ndarray:
    """Centered finite differences of dF_t/dt on fixed total-space samples,
    shape (t_count, sample_count), for F_t the chain of the isotopy's pieces
    up to time t.

    F_t clamps each piece [a, b] of the subdivision to [min(a, t), min(b, t)]:
    it generates the isotopy's time-t map, and the pieces ahead of t
    degenerate to the identity but stay in the chain, so the total space
    does not change with t, which is what makes dF_t/dt meaningful
    pointwise.

    Requires a sign-definite Hamiltonian: h at unit points of the sphere
    (the lift eval_lift there) must be all positive or all negative; raises
    ValueError otherwise.
    """
    pieces = flow.subdivide_c1_small(spec, delta, settings)
    schedule = [(i / pieces, (i + 1) / pieces) for i in range(pieces)]
    samples = sphere_points(sample_count, flow_chain(spec, pieces, settings).total_dim,
                            seed=0.3)
    knots = np.array([a for a, _ in schedule] + [1.0])
    t_grid = (np.arange(t_count) + 0.5) / t_count
    for i in range(t_count):
        # keep the centered stencil inside one piece
        while np.min(np.abs(knots - t_grid[i])) < 2 * fd_step:
            t_grid[i] += 4 * fd_step

    unit = to_complex(sphere_points(64 * spec.n, 2 * spec.n))
    h_vals = ham.eval_lift(spec, unit)
    if not (np.all(h_vals > 0) or np.all(h_vals < 0)):
        raise ValueError("Hamiltonian is not sign-definite on the sphere sample set")

    def clamped_chain(t):
        return ChainGF(LeafGF(spec, min(b, t) - min(a, t), settings) for a, b in schedule)

    probes = np.zeros((t_count, sample_count))
    for i, t in enumerate(t_grid):
        hi, _, _, ok_hi = solved_chain(clamped_chain(t + fd_step), samples)
        lo, _, _, ok_lo = solved_chain(clamped_chain(t - fd_step), samples)
        if not np.all(ok_hi & ok_lo):
            raise RuntimeError("leaf solve failed during the monotonicity probe")
        probes[i] = (hi - lo) / (2.0 * fd_step)
    return probes


class QuadraticGF:
    """Chain link Q(b) = b^T M b on the base."""

    def __init__(self, matrix: np.ndarray):
        M = np.asarray(matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2 != 0:
            raise ValueError("matrix must be square of even size")
        self.matrix = 0.5 * (M + M.T)
        self.base_dim = M.shape[0]
        n = self.base_dim // 2
        J = complex_structure_matrix(n)
        # Graph of dQ under the midpoint identification: Z = (M+J)^{-1}(J-M) z.
        self._map = np.linalg.solve(self.matrix + J, J - self.matrix)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        B = x.shape[0]
        val = np.einsum("bi,ij,bj->b", x, self.matrix, x)
        grad = 2.0 * x @ self.matrix
        hess = np.broadcast_to(2.0 * self.matrix, (B,) + self.matrix.shape).copy()
        return val, grad, hess, np.ones(B, dtype=bool)

    def map_points(self, z):
        return np.asarray(z, dtype=float) @ self._map.T


def quadratic_form_for_rotation(t: float, n: int) -> np.ndarray:
    """The matrix of Q_t(u) = -tan(pi t) |u|^2 on R^{2n}, generating the
    rotation e^{-2 pi i t}."""
    if abs(t) >= 0.5:
        raise ValueError("|t| must be < 1/2; compose pieces for larger rotations")
    return -math.tan(math.pi * t) * np.eye(2 * n)


def rotation_leaf(t: float, n: int) -> ChainGF:
    """The one-link chain of quadratic_form_for_rotation(t, n)."""
    return ChainGF((QuadraticGF(quadratic_form_for_rotation(t, n)),))


@dataclass(frozen=True)
class RotationFamily:
    """The k-piece generating family A_t of the negative Reeb flow a_t."""

    t: float
    n: int
    k: int
    genfun: ChainGF
    matrix: np.ndarray


def build_rotation_family(t: float, n: int, k: int) -> RotationFamily:
    """Compose k copies of the rotation quadratic for a_{t/k}, next to the
    library's matrix of the chain."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    gf = gf_compose(*[rotation_leaf(t / k, n)] * k)
    matrix = rotation_family_matrices(t, n, k)
    return RotationFamily(t=t, n=n, k=k, genfun=gf, matrix=matrix)


# Nested reference.


class SharpLayout:
    """Coordinates x = (u, v, w, mu, eta) of a sharp product F # G.

    F is evaluated at (u + w; mu) and G at (v + w; eta); m is the base
    dimension and mu, eta are the fibers of F and G.
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
        F and G at the points of split(x)."""
        m = self.m
        u, v, w = x[:, self.u], x[:, self.v], x[:, self.w]
        iw = mul_i(w)
        val = vF + vG + 2.0 * np.sum((u - v) * iw, axis=1)
        grad = np.zeros((x.shape[0], self.dim))
        grad[:, self.u] = gF[:, :m] + 2.0 * iw
        grad[:, self.v] = gG[:, :m] - 2.0 * iw
        grad[:, self.w] = gF[:, :m] + gG[:, :m] - 2.0 * mul_i(u - v)
        grad[:, self.mu] = gF[:, m:]
        grad[:, self.eta] = gG[:, m:]
        return val, grad


def sharp_hessian(layout: SharpLayout, HF: np.ndarray, HG: np.ndarray,
                  pairing: float) -> np.ndarray:
    """Batched (B, dim, dim) block matrix of F # G from those of F and G.

    pairing scales the block of the pairing term 2<u - v, iw>: 2 for
    Hessians, 1 for the matrices M of forms x^T M x.
    """
    self = layout
    m = self.m
    N = np.zeros((HF.shape[0], self.dim, self.dim))
    for H, base, fiber in ((HF, self.u, self.mu), (HG, self.v, self.eta)):
        bb, bf, ff = H[:, :m, :m], H[:, :m, m:], H[:, m:, m:]
        bfT = np.swapaxes(bf, -1, -2)
        for s1 in (base, self.w):
            for s2 in (base, self.w):
                N[:, s1, s2] += bb
            N[:, s1, fiber] += bf
            N[:, fiber, s1] += bfT
        N[:, fiber, fiber] += ff
    J = pairing * complex_structure_matrix(m // 2)
    N[:, self.u, self.w] += J
    N[:, self.w, self.u] -= J
    N[:, self.v, self.w] -= J
    N[:, self.w, self.v] += J
    return N


def _evaluate_node(node, x):
    if isinstance(node, LeafGF):
        val, grad, hess, ok = solved_chain(ChainGF((node,)), x)
        return val, grad, hess[:, 0], ok
    return node.evaluate(x)


class ComposeGF:
    """Sharp-product node F # G of the nested reference, F = first the map
    applied first.  Children are nodes or chain links."""

    def __init__(self, first, second):
        if first.base_dim != second.base_dim:
            raise ValueError("base dimensions must match")
        self.first = first
        self.second = second
        self.base_dim = m = first.base_dim
        fibers = [c.total_dim - m if isinstance(c, ComposeGF) else 0 for c in (first, second)]
        self.layout = SharpLayout(m, *fibers)
        self.total_dim = self.layout.dim

    def evaluate(self, x):
        """(val, grad, hess, ok) at x (B, total_dim); hess is assembled level
        by level with sharp_hessian.  Every link evaluates alone, a leaf as a
        one-link chain with its leaf solved (solved_chain)."""
        xF, xG = self.layout.split(np.asarray(x, dtype=float))
        vF, gF, HF, okF = _evaluate_node(self.first, xF)
        vG, gG, HG, okG = _evaluate_node(self.second, xG)
        val, grad = self.layout.value_grad(x, vF, gF, vG, gG)
        return val, grad, sharp_hessian(self.layout, HF, HG, 2.0), okF & okG


def nested_chain(gf: ChainGF) -> ComposeGF:
    """The left-associated DAG ((g_1 # g_2) # ...) # g_N of a chain's links."""
    return functools.reduce(ComposeGF, gf.links)


def chain_change(N: int, m: int) -> np.ndarray:
    """The unimodular matrix S with sigma = S x, from the coordinates x of the
    left-associated nested chain of N links on R^m to flat chain coordinates:
    at every level a_j = u, b_j = v + w, and the first child sits at
    (a_{j-1}; mu) = (u + w; mu)."""
    x = np.eye((2 * N - 1) * m)
    blocks = []
    for _ in range(N - 1):
        lay = SharpLayout(m, x.shape[1] - 3 * m, 0)
        u, v, w = x[:, lay.u], x[:, lay.v], x[:, lay.w]
        blocks += [u, v + w]
        x = np.concatenate([u + w, x[:, lay.mu]], axis=1)
    return np.concatenate(blocks + [x], axis=1).T


def nested_chain_hessian(link_matrices, pairing: float = 2.0) -> np.ndarray:
    """(B, D, D) matrix of the left-associated nested chain from the (B, m,
    m) matrices of its links, in chain order, with pairing as in
    sharp_hessian."""
    M = link_matrices[0]
    m = M.shape[-1]
    for piece in link_matrices[1:]:
        M = sharp_hessian(SharpLayout(m, M.shape[-1] - m, 0), M, piece, pairing)
    return M


def nested_rotation_matrices(t, n: int, k: int):
    """rotation_family_matrices in nested coordinates for t of shape (B,)."""
    t = np.asarray(t, dtype=float)
    piece = -np.tan(np.pi * t / k)[:, None, None] * np.eye(2 * n)
    return nested_chain_hessian([piece] * k, 1.0)


def nested_bordered(family, sigma: np.ndarray, t: np.ndarray, dgrad: np.ndarray,
                    border: np.ndarray, leaf_jac: np.ndarray) -> np.ndarray:
    """The (B, D + 1, D + 1) bordered Newton matrix of the genfun route at
    chain coordinates sigma: the nested Hessian of F_t, built from the leaf
    Jacobians leaf_jac (B, L, 2n, 2n) and the rotation pieces at t and
    mapped by S, bordered by the column dgrad and the row border."""
    B, D = sigma.shape
    m, k = 2 * family.n, family.k
    rot = -2.0 * np.tan(np.pi * t / k)[:, None, None] * np.eye(m)
    links = [leaf_hessian(leaf_jac[:, i]) for i in range(leaf_jac.shape[1])] + [rot] * k
    T = np.rint(np.linalg.inv(chain_change(len(links), m)))
    M = np.zeros((B, D + 1, D + 1))
    M[:, :D, :D] = T.T @ nested_chain_hessian(links) @ T
    M[:, :D, D] = dgrad
    M[:, D, :D] = border
    return M


# A pencil eigenvalue within this of the unit circle is a translated point,
# and two eigenvalues within it of each other are one root.
_PENCIL_TOL = 1e-8


def linear_translated_points(spec, settings):
    """Translated points of a quadratic-form Hamiltonian, from the pencil of
    its lifted time-1 map, with no Newton and no seeds.

    The map is one real matrix P (flow._real_field(spec).jacobian), and a
    translated point is a unit q with P q = lambda q, lambda = e^{2 pi i t}
    acting by complex multiplication.  In complex coordinates P z = A z +
    B conj(z); with v standing for conj(z) and |lambda| = 1 the equation is
    the 2n x 2n linear pencil

        [[A - lambda I, B], [lambda conj(B), lambda conj(A) - I]] (z, v) = 0,

    solved here as the eigenproblem of [[I, 0], [conj(B), conj(A)]]^{-1}
    [[A, B], [0, I]].  Returns one (q, t, multiplicity) per unimodular root
    in t order: t = arg(lambda) / 2 pi in [0, 1), and for a simple root q is
    the unit kernel vector with its phase fixed so that v = conj(z), which
    is defined up to sign, one antipodal class.  A root of multiplicity m
    has a great sphere of dimension 2m - 1 of translated points, a
    continuum, and q None.
    """
    field = flow._real_field(spec)
    if not field.linear:
        raise ValueError("the pencil needs a quadratic-form Hamiltonian")
    n = spec.n
    P = field.jacobian(1.0, settings.steps_for(1.0))
    P11, P12, P21, P22 = P[:n, :n], P[:n, n:], P[n:, :n], P[n:, n:]
    A = 0.5 * (P11 + P22 + 1j * (P21 - P12))
    B = 0.5 * (P11 - P22 + 1j * (P21 + P12))
    eye, zero = np.eye(n), np.zeros((n, n))
    lam, W = np.linalg.eig(np.linalg.solve(np.block([[eye, zero], [B.conj(), A.conj()]]),
                                           np.block([[A, B], [zero, eye]])))
    keep = np.abs(np.abs(lam) - 1.0) <= _PENCIL_TOL
    lam, W = lam[keep], W[:, keep]
    points = []
    used = np.zeros(lam.size, dtype=bool)
    for i in np.argsort(np.angle(lam) % (2.0 * np.pi)):
        if used[i]:
            continue
        root = np.abs(lam - lam[i]) <= _PENCIL_TOL
        used |= root
        t = float(np.angle(lam[i]) / (2.0 * np.pi) % 1.0)
        q = None
        if root.sum() == 1:
            z, v = W[:n, i], W[n:, i]
            c = np.exp(-0.5j * np.angle(np.sum(z * v)))
            q = to_real(c * z)
            q /= np.linalg.norm(q)
        points.append((q, t, int(root.sum())))
    return points


def loop_dedup_and_flag(records, n):
    """translated._dedup_and_flag one record at a time: each record is
    compared with the kept ones by one numpy call, and each t-slice by
    another."""
    if not records:
        return [], False
    order = sorted(range(len(records)),
                   key=lambda i: (records[i].residual_fixed, records[i].t, records[i].q))
    qs = np.array([records[i].q for i in order])
    ts = np.array([records[i].t for i in order])
    chosen: list[int] = []
    for i in range(len(order)):
        if chosen:
            close = (tp._angular_distance(qs[chosen], qs[i]) < tp._DEDUP_ANGULAR) & (
                tp._t_distance(ts[chosen], ts[i]) < tp._DEDUP_T
            )
            if np.any(close):
                continue
        chosen.append(i)
    kept = [records[order[i]] for i in chosen]
    kept.sort(key=tp.record_sort_key)

    threshold = tp._CONTINUUM_FACTOR * max(2, 2 * n)
    continuum = False
    kept_ts = np.array([r.t for r in kept])
    used = np.zeros(len(kept), dtype=bool)
    for i in range(len(kept)):
        if used[i]:
            continue
        slice_mask = tp._t_distance(kept_ts, kept_ts[i]) < max(tp._DEDUP_T * 10, 1e-4)
        used |= slice_mask
        degenerate = sum(1 for j in np.where(slice_mask)[0] if kept[j].nondegenerate is not True)
        if degenerate > threshold:
            continuum = True
    return kept, continuum


def classify_kernel(svals: np.ndarray, vt: np.ndarray, q: np.ndarray, tol: float):
    """translated._classify_kernels for one verified record: True iff
    ker(DPsi - I) is exactly the radial line span(q), given the singular
    values svals (2n,) and right singular vectors vt (2n, 2n) of DPsi - I.
    None when a singular value sits within a factor 10 of tol; ValueError
    when no singular value is below tol."""
    if np.any((svals > tol / 10.0) & (svals < tol * 10.0)):
        return None
    count = int(np.sum(svals < tol))
    if count == 0:
        raise ValueError("no kernel direction: the point fails the residual contract")
    if count >= 2:
        return False
    qhat = q / np.linalg.norm(q)
    return bool(abs(float(np.dot(vt[-1], qhat))) > 1.0 - 1e-6)


def csv_writer_records(records, n: int) -> str:
    """report.records_csv written by csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"q_x{j + 1}" for j in range(n)] + [f"q_y{j + 1}" for j in range(n)]
                    + ["t", "residual_fixed", "residual_g", "nondegenerate", "route"])
    flags = {None: "indeterminate", True: "true", False: "false"}
    for rec in sorted(records, key=tp.record_sort_key):
        writer.writerow([repr(float(v)) for v in (*rec.q, rec.t, rec.residual_fixed,
                                                  rec.residual_g)]
                        + [flags[rec.nondegenerate], rec.route])
    return buf.getvalue()
