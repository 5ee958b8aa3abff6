"""Simulation and almost-periodicity analysis of p-adic self-similar processes.

The package builds stationary-increment self-similar paths and fields
indexed by p-adic integers from hierarchical noise trees, and provides
estimators for the classical almost-periodicity hierarchy (Bohr, Weyl,
Besicovitch) alongside p-adic continuity moduli, plus Monte Carlo checks
of the distributional identities the construction promises.
"""

__version__ = "0.1.0"

from .errors import ConfigError, PadicSssiError, ResourceCapError
from .laws import (
    Gaussian,
    IncrementLaw,
    LawIssue,
    Rademacher,
    SymmetricPareto,
    law_from_dict,
    law_to_dict,
    mean_abs,
    pareto_alpha_window,
    validate_law,
)
from .padic import PadicContext, box_points, checked_modulus, valuation_array
from .rng import derive_seed
from .tree import (
    FieldPath,
    Path,
    TreeSpec,
    build_levels,
    field,
    lazy_path,
    read_binary,
    truncation_tail_bound,
    write_binary,
)

__all__ = [
    "__version__",
    "ConfigError",
    "PadicSssiError",
    "ResourceCapError",
    "Gaussian",
    "IncrementLaw",
    "LawIssue",
    "Rademacher",
    "SymmetricPareto",
    "law_from_dict",
    "law_to_dict",
    "mean_abs",
    "pareto_alpha_window",
    "validate_law",
    "PadicContext",
    "box_points",
    "checked_modulus",
    "valuation_array",
    "derive_seed",
    "FieldPath",
    "Path",
    "TreeSpec",
    "build_levels",
    "field",
    "lazy_path",
    "read_binary",
    "truncation_tail_bound",
    "write_binary",
]
