"""Variable-exponent moduli of curve families in annuli and cylinders.

The extremal density for the family of curves joining the two boundary
components has a closed form up to one scalar, the Lagrange multiplier of
the unit-integral normalization.  This package evaluates those densities,
solves for the multiplier by safeguarded Newton steps in its logarithm,
computes the resulting moduli with a Simpson error estimate, compares
them against explicit test-density upper bounds, and cross-checks every
analytic number with a discrete variational oracle.
"""

from .annulus import (
    AnnulusProblem,
    constant_exponent_modulus,
    log_density_upper_bound,
    normalization_value,
    solve_annulus,
    unit_sphere_area,
)
from .core import ExtremalSolution, SweepRow, modulus_sweep
from .cylinder import (
    CylinderProblem,
    constant_density_upper_bound,
    cylinder_normalization_value,
    solve_cylinder,
)
from .exponent import (
    DomainError,
    ExponentFunction,
    ExponentRangeError,
    ParseError,
    parse_exponent,
)
from .quadrature import (
    IntervalTooFine,
    NonFiniteIntegrand,
    QuadratureConfig,
    integrate,
    subinterval_count,
)
from .rootfind import (
    BisectionConfig,
    BisectionResult,
    BracketFailure,
    MaxItersExceeded,
    solve_increasing,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AnnulusProblem",
    "BisectionConfig",
    "BisectionResult",
    "BracketFailure",
    "CylinderProblem",
    "DomainError",
    "ExponentFunction",
    "ExponentRangeError",
    "ExtremalSolution",
    "IntervalTooFine",
    "MaxItersExceeded",
    "NonFiniteIntegrand",
    "ParseError",
    "QuadratureConfig",
    "SweepRow",
    "constant_density_upper_bound",
    "constant_exponent_modulus",
    "cylinder_normalization_value",
    "integrate",
    "log_density_upper_bound",
    "modulus_sweep",
    "normalization_value",
    "parse_exponent",
    "solve_annulus",
    "solve_cylinder",
    "solve_increasing",
    "subinterval_count",
    "unit_sphere_area",
]
