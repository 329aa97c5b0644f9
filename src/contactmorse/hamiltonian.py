"""Contact Hamiltonians on the unit sphere and their degree-2 homogeneous lifts.

A Hamiltonian is a quadratic part sum_j c_j |z_j|^2 plus a real trigonometric
polynomial: terms amplitude * Re(z^a conj(z)^b) with integer exponent vectors
a, b.  Restricted to the sphere and lifted by |z|^2 h(z/|z|), each term becomes
amplitude * rho^{(2-d)/2} * Re(z^a conj(z)^b) with rho = |z|^2 and d = sum(a+b).

The Hamiltonian is autonomous: the contactomorphism studied is the time-1
map of its flow.  This module holds the specs and the value of the lift
(`eval_lift`).  The lifted field and its Jacobian are compiled from the spec
terms in `flow`.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ContactHamiltonianSpec:
    """Autonomous Hamiltonian h on S^{2n-1}.

    Real-valuedness is automatic: every perturbation term is a real part, so
    the conjugate pair is built in.
    """

    n: int
    quadratic: tuple[float, ...] = ()
    terms: tuple[PerturbationTerm, ...] = ()

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
        object.__setattr__(self, "quadratic", quad)
        object.__setattr__(self, "terms", terms)


def eval_lift(spec: ContactHamiltonianSpec, z: np.ndarray):
    """H(z) = |z|^2 h(z/|z|) at complex points z of shape (..., n).

    Each term contributes amplitude * rho^{(2-d)/2} * Re(z^a conj(z)^b), with
    rho = |z|^2 and d its degree.
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
    return H
