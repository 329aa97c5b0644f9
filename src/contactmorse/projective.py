"""Z2-equivariance layer for the projective space RP^{2n-1}.

The projective space is never represented intrinsically: all computation
happens on the sphere through the unique lift of an isotopy starting at the
identity, and the antipodal quotient is applied only when reporting.  A
projective Hamiltonian must satisfy h(-z) = h(z); its lifted flow is then an
odd map and every generating function built from it is even, hence conical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import IntegratorSettings, integrate_flow
from .genfun import ChainGF, evaluate_stacked
from .hamiltonian import ContactHamiltonianSpec, sphere_value
from .linsymp import to_complex
from .sampling import sphere_points
from .translated import _DEDUP_ANGULAR, _DEDUP_T, TranslatedPointRecord, pair_records


class AntipodalPairingError(RuntimeError):
    """A record set from a projective spec is not antipodally closed."""


# Largest |h(z) - h(-z)| over the sample set that a projective spec allows.
_SYMMETRY_TOL = 1e-12


def _symmetry_samples(n: int, count: int = 128) -> np.ndarray:
    return sphere_points(count, 2 * n, seed=0.25)


@dataclass(frozen=True)
class ProjectiveSpec:
    """A contact Hamiltonian with the antipodal symmetry h(-z) = h(z)."""

    base: ContactHamiltonianSpec

    def __post_init__(self):
        samples = _symmetry_samples(self.base.n)
        zc = to_complex(samples)
        defect = np.max(np.abs(sphere_value(self.base, zc) - sphere_value(self.base, -zc)))
        if defect > _SYMMETRY_TOL:
            raise ValueError(
                f"Hamiltonian is not Z2-symmetric: max |h(z) - h(-z)| = {defect:.3e} "
                f"over the sample set (needs <= {_SYMMETRY_TOL:.0e})"
            )


def z2_equivariance_check(
    spec: ContactHamiltonianSpec | ProjectiveSpec,
    samples: np.ndarray | None = None,
    t1: float = 1.0,
    settings: IntegratorSettings | None = None,
) -> float:
    """max |Phi(-z) + Phi(z)| over samples; vanishes for equivariant lifts."""
    base = spec.base if isinstance(spec, ProjectiveSpec) else spec
    if settings is None:
        settings = IntegratorSettings()
    if samples is None:
        samples = _symmetry_samples(base.n)
    plus, _ = integrate_flow(base, samples, 0.0, t1, settings, with_jacobian=False)
    minus, _ = integrate_flow(base, -samples, 0.0, t1, settings, with_jacobian=False)
    return float(np.max(np.linalg.norm(plus + minus, axis=1)))


def gf_invariance_check(gf: ChainGF, samples: np.ndarray | None = None) -> float:
    """max |F(-x) - F(x)| / |x|^2 over total-space samples.

    Even generating functions are exactly the conical ones once degree-2
    homogeneity holds, so this is the Z2-invariance defect.
    """
    if samples is None:
        samples = sphere_points(64, gf.total_dim, seed=0.75)
    vp, _, _, okp = evaluate_stacked(gf, samples, order=0)
    vm, _, _, okm = evaluate_stacked(gf, -samples, order=0)
    if not np.all(okp & okm):
        raise RuntimeError("leaf solves failed on the invariance sample set")
    scale = np.sum(samples * samples, axis=1)
    return float(np.max(np.abs(vp - vm) / scale))


def antipodal_classes(records: list[TranslatedPointRecord]) -> list[TranslatedPointRecord]:
    """Pair each record q with its antipode -q at equal t, within the
    tolerances that deduplicate records.

    Returns one representative per class, with the canonical phase (the
    first complex coordinate of significant modulus gets argument in
    [0, pi)).  An unpaired record, or one with two partner candidates, is a
    hard failure: equivariance was violated somewhere upstream.
    """
    partner = pair_records(records, records, _DEDUP_ANGULAR, _DEDUP_T, antipodal=True)
    if partner is None:
        raise AntipodalPairingError("a record has two antipodal partner candidates")
    for rec, j in zip(records, partner):
        if j < 0:
            raise AntipodalPairingError(f"record at t={rec.t:.6f} has no antipodal partner")
    classes = [canonical_phase(rec) for i, rec in enumerate(records) if i < partner[i]]
    classes.sort(key=lambda r: (r.t, r.q))
    return classes


def canonical_phase(record: TranslatedPointRecord) -> TranslatedPointRecord:
    """Flip the sign so the leading complex coordinate has argument in [0, pi)."""
    q = record.q_array()
    zc = to_complex(q)
    mags = np.abs(zc)
    lead = int(np.argmax(mags > 0.25 * mags.max())) if mags.max() > 0 else 0
    arg = float(np.angle(zc[lead]))
    if not (0.0 <= arg < np.pi):
        from dataclasses import replace

        return replace(record, q=tuple(float(-v) for v in q))
    return record
