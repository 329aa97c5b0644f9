"""Translated points of contactomorphisms of S^{2n-1} and RP^{2n-1}.

Contactomorphisms isotopic to the identity lift to R_+-equivariant
Hamiltonian symplectomorphisms of R^{2n}; their translated points are
detected both as critical rays of degree-2 homogeneous generating functions
and by a direct fixed-point solve, and the two routes cross-validate each
other.
"""

from .flow import (
    IntegratorSettings,
    calibrate_steps_per_unit,
    integrate_flow,
    subdivide_c1_small,
)
from .genfun import (
    ChainGF,
    LeafGF,
    gf_compose,
)
from .hamiltonian import ContactHamiltonianSpec, PerturbationTerm
from .linsymp import Inertia, inertia
from .projective import (
    AntipodalPairingError,
    ProjectiveSpec,
    antipodal_classes,
)
from .translated import (
    ConfigurationError,
    DetectionResult,
    ShiftedGenFunFamily,
    SweepParams,
    SweepReport,
    TranslatedPointRecord,
    direct_translated_points,
    find_critical_rays,
    sweep_and_count,
)

__version__ = "0.1.0"
