"""Exact combinatorics of non-crossing linked partitions and their transforms.

The package provides the partition families NC(n), NCL(n), and their
parity-split variants, the Kreweras complement, planar and bicolor
planar trees with the bijections between trees and linked partitions,
and the exact rational transforms between moments, free cumulants, and
t-coefficients, including a machine check of the multiplicativity of
the t-coefficient generating series under free multiplication.

Every public name, and every submodule, loads on first use (PEP 562), so
a process compiles only the modules it reads: the series transforms need
no partition or tree enumerator.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "errors": (
        "BadLink",
        "BlockStraddlesSet",
        "Crossing",
        "LetterNotInDomain",
        "LimitExceeded",
        "NonCrossingError",
        "NotACover",
        "NotAPartition",
        "NotConnected",
        "NotNclS",
        "OddGroundSet",
        "OrderTooLow",
        "SizeMismatch",
        "ZeroFirstMoment",
        "ZeroT0",
    ),
    "freeness": (
        "Letter",
        "Scenario",
        "VanishingReport",
        "Word",
        "freeness_vanishing_suite",
        "mixed_cumulant",
        "mixed_moment",
        "mixed_tcoeff",
        "product_moments",
        "sum_moments",
    ),
    "partitions": (
        "NCLPartition",
        "NCPartition",
        "class_members",
        "connected_components",
        "enumerate_nc",
        "enumerate_ncl",
        "enumerate_ncls",
        "enumerate_ncs",
        "exterior_blocks",
        "is_ncls",
        "is_ncs",
        "iter_blocks",
        "iter_nc",
        "iter_ncl",
        "kreweras",
        "leq",
        "non_minimal_elements",
        "restrict",
        "validate_nc",
        "validate_ncl",
    ),
    "transforms": (
        "CumulantSequence",
        "IdentityCheck",
        "MomentSequence",
        "MultiplicativityReport",
        "TCoeffSequence",
        "cumulant_via_classes",
        "cumulant_via_trees",
        "cumulants_to_moments",
        "eval_bicolor",
        "eval_tree",
        "free_additive",
        "free_multiplicative",
        "moments_to_cumulants",
        "moments_to_tcoeffs",
        "ncls_weight",
        "t_convolve",
        "tcoeffs_to_moments",
        "verify_t_multiplicativity",
    ),
    "trees": (
        "BicolorPlanarTree",
        "PlanarTree",
        "bicolor_from_ncls",
        "connected_from_tree",
        "elementary_decomposition",
        "enumerate_bicolor",
        "enumerate_bicolor_elementary",
        "enumerate_planar_trees",
        "ncls_from_bicolor",
        "tree_from_connected",
        "vertex_order",
    ),
}
_SUBMODULES = ("cli", "errors", "freeness", "jsonio", "limits", "partitions", "poly",
               "render", "transforms", "trees", "verify")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # runs only for a name not yet in the module's globals; the first lookup
    # imports its module and keeps the value, so later ones are plain reads
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_SUBMODULES))
