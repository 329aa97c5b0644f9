"""Contact Hamiltonians on the unit sphere and their degree-2 homogeneous lifts.

A Hamiltonian is a quadratic part sum_j c_j |z_j|^2 plus a real trigonometric
polynomial: terms amplitude * Re(z^a conj(z)^b) with integer exponent vectors
a, b.  Restricted to the sphere and lifted by |z|^2 h(z/|z|), each term becomes
amplitude * rho^{(2-d)/2} * Re(z^a conj(z)^b) with rho = |z|^2 and d = sum(a+b).

Derivatives are computed with Wirtinger calculus.  For a real function H the
Euclidean gradient, read as a complex vector in the (x, y) block layout, is
G_j = 2 dH/dzbar_j, and the real Hessian is the real-linear map
v -> P v + Q conj(v) with P_jl = dG_j/dz_l and Q_jl = dG_j/dzbar_l.  Every
entry of (H, G, P, Q) expands into monomial primitives

    coef * rho^pow * prod z^p * prod conj(z)^q,

so each spec compiles once into exponent/coefficient tables and evaluation is
a couple of gathers plus one matrix product, batched over points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linsymp import realify


@dataclass(frozen=True)
class PerturbationTerm:
    """amplitude * Re( prod_j z_j^{z_powers_j} * conj(z_j)^{zbar_powers_j} )."""

    amplitude: float
    z_powers: tuple[int, ...]
    zbar_powers: tuple[int, ...]

    def __post_init__(self):
        if len(self.z_powers) != len(self.zbar_powers):
            raise ValueError("z_powers and zbar_powers must have equal length")
        if any(p < 0 for p in self.z_powers + self.zbar_powers):
            raise ValueError("monomial exponents must be nonnegative")
        if not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        object.__setattr__(self, "z_powers", tuple(int(p) for p in self.z_powers))
        object.__setattr__(self, "zbar_powers", tuple(int(p) for p in self.zbar_powers))

    @property
    def degree(self) -> int:
        return sum(self.z_powers) + sum(self.zbar_powers)


TIME_PROFILES = ("constant", "bump")


@dataclass(frozen=True)
class ContactHamiltonianSpec:
    """Time-dependent Hamiltonian h_t = profile(t) * h on S^{2n-1}.

    Real-valuedness is automatic: every perturbation term is a real part, so
    the conjugate pair is built in.
    """

    n: int
    quadratic: tuple[float, ...] = ()
    terms: tuple[PerturbationTerm, ...] = ()
    time_profile: str = "constant"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        quad = tuple(float(c) for c in self.quadratic)
        if len(quad) == 0:
            quad = (0.0,) * self.n
        if len(quad) != self.n:
            raise ValueError(f"quadratic must have {self.n} coefficients")
        if not all(np.isfinite(c) for c in quad):
            raise ValueError("quadratic coefficients must be finite")
        terms = tuple(self.terms)
        for term in terms:
            if len(term.z_powers) != self.n:
                raise ValueError("perturbation exponent vectors must have length n")
        if self.time_profile not in TIME_PROFILES:
            raise ValueError(f"time_profile must be one of {TIME_PROFILES}")
        object.__setattr__(self, "quadratic", quad)
        object.__setattr__(self, "terms", terms)

    def is_autonomous(self) -> bool:
        return self.time_profile == "constant"


@lru_cache(maxsize=1)
def _bump_norm() -> float:
    # Normalize the bump so its integral over [0,1] is 1; then the time-1 map
    # of a bump-profiled Hamiltonian equals the constant-profile time-1 map.
    t = np.linspace(0.0, 1.0, 1 << 14 | 1)
    vals = np.zeros_like(t)
    inner = (t > 0) & (t < 1)
    vals[inner] = np.exp(-1.0 / (t[inner] * (1.0 - t[inner])))
    return float(np.trapezoid(vals, t))


def time_profile_value(spec: ContactHamiltonianSpec, t) -> np.ndarray | float:
    t = np.asarray(t, dtype=float)
    if spec.time_profile == "constant":
        return np.ones_like(t) if t.ndim else 1.0
    inner = (t > 0) & (t < 1)
    if t.ndim:
        vals = np.zeros_like(t)
        vals[inner] = np.exp(-1.0 / (t[inner] * (1.0 - t[inner]))) / _bump_norm()
        return vals
    if inner:
        return float(np.exp(-1.0 / (t * (1.0 - t))) / _bump_norm())
    return 0.0


# ---------------------------------------------------------------------------
# Compiled monomial tables
# ---------------------------------------------------------------------------


class _Tables:
    """Monomial primitives of the value/gradient/Hessian of the lift.

    Output slots: 0 -> H (real part taken afterwards); 1..n -> G_j;
    then P row-major, then Q row-major.
    """

    def __init__(self, spec: ContactHamiltonianSpec):
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


@lru_cache(maxsize=64)
def _tables(spec: ContactHamiltonianSpec) -> _Tables:
    return _Tables(spec)


def eval_lift(spec: ContactHamiltonianSpec, z: np.ndarray, t=0.0):
    """(H, G, P, Q) of the lift at complex points z (..., n), profile applied."""
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    zb = z[None, :] if single else z
    H, G, P, Q = _tables(spec).eval(zb)
    scale = time_profile_value(spec, t)
    H, G, P, Q = H * scale, G * scale, P * scale, Q * scale
    if single:
        return H[0], G[0], P[0], Q[0]
    return H, G, P, Q


def lift_value(spec: ContactHamiltonianSpec, z: np.ndarray, t=0.0) -> np.ndarray:
    """H_t(z) = |z|^2 h_t(z/|z|) at complex points z of shape (..., n)."""
    return eval_lift(spec, z, t)[0]


def lift_grad(spec: ContactHamiltonianSpec, z: np.ndarray, t=0.0) -> np.ndarray:
    """Complex gradient G_j = 2 dH_t/dzbar_j of the lift, shape (..., n)."""
    return eval_lift(spec, z, t)[1]


def lift_hess(spec: ContactHamiltonianSpec, z: np.ndarray, t=0.0):
    """Wirtinger Hessian blocks (P, Q) of the lift, each shape (..., n, n)."""
    _, _, P, Q = eval_lift(spec, z, t)
    return P, Q


def lift_hess_real(spec: ContactHamiltonianSpec, z: np.ndarray, t=0.0) -> np.ndarray:
    """Real 2n x 2n Hessian of the lifted Hamiltonian at complex points z."""
    P, Q = lift_hess(spec, z, t)
    return realify(P, Q)


def sphere_value(spec: ContactHamiltonianSpec, q: np.ndarray, t=0.0) -> np.ndarray:
    """h_t evaluated at unit-sphere points (complex shape (..., n))."""
    q = np.asarray(q, dtype=complex)
    rho = np.sum((q * q.conj()).real, axis=-1)
    if np.any(np.abs(rho - 1.0) > 1e-8):
        raise ValueError("sphere_value expects unit vectors")
    return lift_value(spec, q, t)


def lift_hamiltonian(spec: ContactHamiltonianSpec, z, t: float = 0.0) -> float:
    """Public scalar interface: H_t at a single point given in real coordinates."""
    from .linsymp import as_coords, to_complex

    zc = to_complex(as_coords(z, spec.n))
    return float(lift_value(spec, zc, t))
