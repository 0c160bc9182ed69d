"""Exact combinatorics of non-crossing linked partitions and their transforms.

The package provides the partition families NC(n), NCL(n), and their
parity-split variants, the Kreweras complement, planar and bicolor
planar trees with the bijections between trees and linked partitions,
and the exact rational transforms between moments, free cumulants, and
t-coefficients, including a machine check of the multiplicativity of
the t-coefficient generating series under free multiplication.
"""

from .errors import (
    BadLink,
    BlockStraddlesSet,
    Crossing,
    LetterNotInDomain,
    LimitExceeded,
    NonCrossingError,
    NotACover,
    NotAPartition,
    NotConnected,
    NotNclS,
    OddGroundSet,
    OrderTooLow,
    SizeMismatch,
    ZeroFirstMoment,
    ZeroT0,
)
from .freeness import (
    Letter,
    Scenario,
    VanishingReport,
    Word,
    freeness_vanishing_suite,
    mixed_cumulant,
    mixed_moment,
    mixed_tcoeff,
    product_moments,
    sum_moments,
)
from .partitions import (
    NCLPartition,
    NCPartition,
    class_members,
    connected_components,
    enumerate_nc,
    enumerate_ncl,
    enumerate_ncls,
    enumerate_ncs,
    exterior_blocks,
    is_ncls,
    is_ncs,
    iter_blocks,
    iter_nc,
    iter_ncl,
    kreweras,
    leq,
    non_minimal_elements,
    restrict,
    validate_nc,
    validate_ncl,
)
from .transforms import (
    CumulantSequence,
    IdentityCheck,
    MomentSequence,
    MultiplicativityReport,
    TCoeffSequence,
    cumulant_via_classes,
    cumulant_via_trees,
    cumulants_to_moments,
    eval_bicolor,
    eval_tree,
    free_additive,
    free_multiplicative,
    moments_to_cumulants,
    moments_to_tcoeffs,
    ncls_weight,
    t_convolve,
    tcoeffs_to_moments,
    verify_t_multiplicativity,
)
from .trees import (
    BicolorPlanarTree,
    PlanarTree,
    bicolor_from_ncls,
    connected_from_tree,
    elementary_decomposition,
    enumerate_bicolor,
    enumerate_bicolor_elementary,
    enumerate_planar_trees,
    ncls_from_bicolor,
    tree_from_connected,
    vertex_order,
)

__version__ = "0.1.0"
