"""Modular-symbols computation of the Eisenstein-local cuspidal Hecke data."""

from .eisenstein import (
    ConsistencyError,
    EisensteinReport,
    MismatchError,
    NoGoodPrime,
    PrecisionExhausted,
    SlopeComponent,
    component_slopes,
    default_precision,
    eisenstein_local_factor,
    generator_check,
    smallest_good_prime,
)
from .manin import (
    ManinSpace,
    build_manin_space,
    genus_x0,
    heilbronn_matrices,
)

__all__ = [
    "ConsistencyError",
    "EisensteinReport",
    "ManinSpace",
    "MismatchError",
    "NoGoodPrime",
    "PrecisionExhausted",
    "SlopeComponent",
    "build_manin_space",
    "component_slopes",
    "default_precision",
    "eisenstein_local_factor",
    "generator_check",
    "genus_x0",
    "heilbronn_matrices",
    "smallest_good_prime",
]
