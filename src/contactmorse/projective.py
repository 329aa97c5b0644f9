"""Z2-equivariance layer for the projective space RP^{2n-1}.

The projective space is never represented intrinsically: all computation
happens on the sphere through the unique lift of an isotopy starting at the
identity, and the antipodal quotient is applied only when reporting.  A
projective Hamiltonian must satisfy h(-z) = h(z), which a spec meets by
having even-degree perturbation terms only; its lifted flow is then an odd
map and every generating function built from it is even, hence conical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hamiltonian import ContactHamiltonianSpec
from .translated import _DEDUP_ANGULAR, _DEDUP_T, TranslatedPointRecord, pair_records


class AntipodalPairingError(RuntimeError):
    """Projective records not antipodally closed: the seed grid missed a
    record's partner, or a record has two partner candidates."""


@dataclass(frozen=True)
class ProjectiveSpec:
    """A contact Hamiltonian with the antipodal symmetry h(-z) = h(z).

    A term Re(z^a conj(z)^b) has the parity of its degree |a| + |b|, and the
    quadratic part is even, so a spec whose terms all have even degree is
    Z2-symmetric.  A spec with an odd-degree term is rejected, even when its
    odd terms cancel on the sphere: a symmetric h is the sum of its
    even-degree terms alone.
    """

    base: ContactHamiltonianSpec

    def __post_init__(self):
        for i, term in enumerate(self.base.terms):
            if term.degree % 2:
                raise ValueError(f"perturbations[{i}] has odd degree {term.degree}: "
                                 "the Hamiltonian is not Z2-symmetric")


def antipodal_classes(records: list[TranslatedPointRecord]) -> list[TranslatedPointRecord]:
    """Pair each record q with its antipode -q at equal t, within the
    tolerances that deduplicate records.

    Returns one class per antipodal pair, represented by its first member
    in records, in the input order.  An unpaired record, or one with two
    partner candidates, is a hard failure.  The sweep checks h(-z) = h(z)
    term by term first (ProjectiveSpec), so an unpaired record's partner
    exists and the seed grid missed it.
    """
    partner = pair_records(records, records, _DEDUP_ANGULAR, _DEDUP_T, antipodal=True)
    if partner is None:
        raise AntipodalPairingError("a record has two antipodal partner candidates")
    for rec, j in zip(records, partner):
        if j < 0:
            raise AntipodalPairingError(f"record at t={rec.t:.6f} has no antipodal partner: the "
                                        "seed grid missed it; raise seeds.sphere_count")
    return [rec for i, rec in enumerate(records) if i < partner[i]]
