"""Z2-equivariance layer for the projective space RP^{2n-1}.

The projective space is never represented intrinsically: all computation
happens on the sphere through the unique lift of an isotopy starting at the
identity, and the antipodal quotient is applied only when reporting.  A
projective Hamiltonian must satisfy h(-z) = h(z); its lifted flow is then an
odd map and every generating function built from it is even, hence conical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flow import _real_expansion
from .hamiltonian import ContactHamiltonianSpec
from .translated import _DEDUP_ANGULAR, _DEDUP_T, TranslatedPointRecord, pair_records


class AntipodalPairingError(RuntimeError):
    """Projective records not antipodally closed: the seed grid missed a
    record's partner, or a record has two partner candidates."""


# Every finite double times 2^1074 is an integer, so coefficients scaled by
# _EXACT add up exactly as Python ints.
_EXACT = 2**1074


def _times_norm_squared(poly: dict[tuple, int]) -> dict[tuple, int]:
    """poly times |u|^2 = sum_i u_i^2, over the real monomials u^alpha."""
    out: dict[tuple, int] = {}
    for alpha, c in poly.items():
        for i in range(len(alpha)):
            beta = alpha[:i] + (alpha[i] + 2,) + alpha[i + 1:]
            out[beta] = out.get(beta, 0) + c
    return out


def _monomial_name(alpha: tuple) -> str:
    """u^alpha in the coordinates (x_1..x_n, y_1..y_n), z_j = x_j + i y_j."""
    n = len(alpha) // 2
    return " ".join(f"{'xy'[i // n]}{i % n + 1}" + (f"^{e}" if e > 1 else "")
                    for i, e in enumerate(alpha) if e)


@dataclass(frozen=True)
class ProjectiveSpec:
    """A contact Hamiltonian with the antipodal symmetry h(-z) = h(z).

    The quadratic part and the even-degree terms are even, and an odd-degree
    term is odd, so h is Z2-symmetric iff its odd-degree terms sum to zero on
    the sphere.  Each is a real polynomial of its degree d (flow's
    _real_expansion); multiplied by |u|^(D - d) = 1, with D the largest odd
    degree, they become homogeneous of degree D, and such a polynomial
    vanishes on the sphere iff each of its coefficients is zero.  The
    coefficients are integers times the amplitudes, summed exactly.
    """

    base: ContactHamiltonianSpec

    def __post_init__(self):
        odd = [term for term in self.base.terms if term.degree % 2]
        top = max((term.degree for term in odd), default=0)
        coeffs: dict[tuple, int] = {}
        for term in odd:
            num, den = float(term.amplitude).as_integer_ratio()
            amplitude = num * (_EXACT // den)
            poly = {alpha: int(c.real) * amplitude
                    for alpha, c in _real_expansion(term.z_powers, term.zbar_powers).items()}
            for _ in range((top - term.degree) // 2):
                poly = _times_norm_squared(poly)
            for alpha, c in poly.items():
                coeffs[alpha] = coeffs.get(alpha, 0) + c
        left = {alpha: c for alpha, c in coeffs.items() if c}
        if left:
            alpha = max(left, key=lambda a: abs(left[a]))
            raise ValueError(
                f"Hamiltonian is not Z2-symmetric: its odd part has coefficient "
                f"{left[alpha] / _EXACT:.3e} on {_monomial_name(alpha)}"
            )


def antipodal_classes(records: list[TranslatedPointRecord]) -> list[TranslatedPointRecord]:
    """Pair each record q with its antipode -q at equal t, within the
    tolerances that deduplicate records.

    Returns one class per antipodal pair, represented by its first member
    in records, in the input order.  An unpaired record, or one with two
    partner candidates, is a hard failure.  h(-z) = h(z) is checked exactly
    where the config is parsed, so an unpaired record's partner exists and
    the seed grid missed it.
    """
    partner = pair_records(records, records, _DEDUP_ANGULAR, _DEDUP_T, antipodal=True)
    if partner is None:
        raise AntipodalPairingError("a record has two antipodal partner candidates")
    for rec, j in zip(records, partner):
        if j < 0:
            raise AntipodalPairingError(f"record at t={rec.t:.6f} has no antipodal partner: the "
                                        "seed grid missed it; raise seeds.sphere_count")
    return [rec for i, rec in enumerate(records) if i < partner[i]]
