"""Arithmetic substrate: Z/p^M scalars, polynomials, linear algebra,
discrete logs, Newton polygons, and Hensel lifting."""

from .dlog import DlogTable, build_dlog_table, is_power, smallest_generator
from .linalg import (
    FullPivotFactor,
    berkowitz_charpoly,
    howell_membership,
    howell_solve,
    kernel_of_free_summand,
    kernel_spanning_set,
    matmul_mod,
    restrict_operator,
    unit_echelon,
)
from .newton import (
    NewtonPolygon,
    hensel_lift_coprime,
    hensel_split_distinguished,
    lower_convex_hull,
    newton_polygon,
    t_sequence,
    unit_window_factor,
)
from .zmod import AtLeast, Modulus, PadicPoly, valuation_p

__all__ = [
    "AtLeast",
    "DlogTable",
    "FullPivotFactor",
    "Modulus",
    "NewtonPolygon",
    "PadicPoly",
    "berkowitz_charpoly",
    "build_dlog_table",
    "hensel_lift_coprime",
    "hensel_split_distinguished",
    "howell_membership",
    "howell_solve",
    "is_power",
    "kernel_of_free_summand",
    "kernel_spanning_set",
    "lower_convex_hull",
    "matmul_mod",
    "newton_polygon",
    "restrict_operator",
    "smallest_generator",
    "t_sequence",
    "unit_echelon",
    "unit_window_factor",
    "valuation_p",
]
