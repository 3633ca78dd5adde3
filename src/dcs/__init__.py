"""Numerical verification engine for Desargues configuration spaces."""

from .projective import (
    DEFAULT_TOL,
    HPoint,
    Tolerances,
    proj_dist,
)
from .strata import Config6, MembershipReport, SpaceTag, validate

__version__ = "0.1.0"

__all__ = [
    "Config6",
    "DEFAULT_TOL",
    "HPoint",
    "MembershipReport",
    "SpaceTag",
    "Tolerances",
    "proj_dist",
    "validate",
    "__version__",
]
