"""Contact Hamiltonians on the unit sphere and their degree-2 homogeneous lifts.

A Hamiltonian is a quadratic part sum_j c_j |z_j|^2 plus a real trigonometric
polynomial: terms amplitude * Re(z^a conj(z)^b) with integer exponent vectors
a, b.  Restricted to the sphere and lifted by |z|^2 h(z/|z|), each term becomes
amplitude * rho^{(2-d)/2} * Re(z^a conj(z)^b) with rho = |z|^2 and d = sum(a+b).

This module holds the specs, the time profile and the value of the lift
(`eval_lift`).  The lifted field and its Jacobian are
compiled from the spec terms in `flow`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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


def eval_lift(spec: ContactHamiltonianSpec, z: np.ndarray, t=0.0):
    """H_t(z) = |z|^2 h_t(z/|z|) at complex points z of shape (..., n).

    Each term contributes amplitude * rho^{(2-d)/2} * Re(z^a conj(z)^b), with
    rho = |z|^2 and d its degree; the profile scales the sum.
    """
    z = np.asarray(z, dtype=complex)
    zz = (z * z.conj()).real
    rho = np.sum(zz, axis=-1)
    if np.any(rho <= 0.0) or not np.all(np.isfinite(rho)):
        raise ValueError("the lifted Hamiltonian is undefined at z = 0")
    H = zz @ np.asarray(spec.quadratic)
    for term in spec.terms:
        mono = np.prod(z**term.z_powers * z.conj() ** term.zbar_powers, axis=-1)
        H = H + term.amplitude * rho ** (0.5 * (2 - term.degree)) * mono.real
    return H * time_profile_value(spec, t)
