"""Formal Massey-product calculus over finite groups and Z/p^s modules."""

from .cochains import (
    Cochain,
    CoeffModule,
    all_cocycles,
    coboundary,
    cup,
    is_cocycle,
    is_homomorphism,
    random_cocycle,
    vanishes_in_h2,
)
from .groups import FiniteGroup, cyclic, dihedral, direct_product, symmetric
from .products import (
    DefiningSystem,
    InvalidDefiningSystem,
    coordinate_relation,
    cup_sum,
    deformation_tables,
    massey_power_vanishes,
    power_defining_systems,
    shifted_system,
    unipotent_concatenation,
    unipotent_hom,
)

__all__ = [
    "Cochain",
    "CoeffModule",
    "DefiningSystem",
    "FiniteGroup",
    "InvalidDefiningSystem",
    "all_cocycles",
    "coboundary",
    "coordinate_relation",
    "cup",
    "cup_sum",
    "cyclic",
    "deformation_tables",
    "dihedral",
    "direct_product",
    "is_cocycle",
    "is_homomorphism",
    "massey_power_vanishes",
    "power_defining_systems",
    "random_cocycle",
    "shifted_system",
    "symmetric",
    "unipotent_concatenation",
    "unipotent_hom",
    "vanishes_in_h2",
]
