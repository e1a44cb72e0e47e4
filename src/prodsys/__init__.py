"""Exact finite-dimensional laboratory for lattice product systems.

Subpackages cover dense subspace arithmetic, lattice product systems with
additive sections, continuum Fock-side closed forms, amalgamated and
spatial products, the cluster construction, an exact hyperspace of rational
interval sets, and the random-set correspondence between the two worlds.
"""

from .linalg import (
    Subspace,
    complement,
    contains,
    full_space,
    intersect,
    join,
    orthonormalize,
    projector,
    span,
    subspace_distance,
    tensor,
    zero_space,
)
from .lattice import (
    AdditSection,
    Composition,
    LatticeInclusionSystem,
    LatticeProductSystem,
    LatticeSubsystem,
    addit_decompose,
    addit_inner,
    addit_root_space,
    addit_section,
    composition_net_inner,
    compositions,
    flip_unitary,
    full_subsystem,
    generate_product_system,
    single_excitation_inclusion,
    solve_addit_seeds,
    standard_system,
    unit_line_subsystem,
    unit_section,
)
from .fock import (
    StepFunction,
    UnitLabel,
    euler_norm_defect,
    euler_product,
    exp_inner,
    guichardet_eval,
    index_from_units,
    root_inner,
    weyl_on_coherent,
)
from .amalgam import (
    AmalgamResult,
    SlotMorphism,
    amalgamate,
    root_space_of_amalgam,
    spatial_product_defect,
    spatial_product_in_tensor,
    tensor_root_witness,
)
from .cluster import (
    ClusterReport,
    cluster_inclusion,
    cluster_report,
    cluster_system,
    excitation_decomposition_check,
    excitation_space,
    ominus_levels,
    shift_orthogonality_check,
)
from .hyperspace import (
    ClosedSet,
    RandomClosedSetDist,
    boundary,
    boundary_identity_check,
    cb_derivative,
    closed_set,
    hausdorff,
    normalize,
)
from .randomsets import (
    CorrespondenceReport,
    ProjectionFamily,
    StateDensity,
    measure_from_state,
    projections_from_subsystem,
    pushforward_cb,
    verify_derivative_correspondence,
)

__version__ = "0.1.0"
