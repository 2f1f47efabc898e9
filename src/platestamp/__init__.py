"""Fourier-series plane-strain solver for a rigid stamp on a rectangular plate.

The package computes exact truncated-series displacement and stress
fields for a plate 0 <= x <= l, 0 <= y <= h whose top face carries a
prescribed vertical displacement with zero shear, by three mutually
verifying per-mode routes, together with central-difference residual
meters and a discrepancy report that check them.
"""
from .core import (
    BoundaryCompatibilityError,
    ConfigError,
    DomainError,
    FieldSample,
    Geometry,
    Material,
    MaterialError,
    ModeDegeneracyError,
    PathDivergenceError,
    PlateStampError,
)
from .strip_solution import (
    SeriesField,
    SolutionPath,
    assemble_series,
    evaluate_fields,
)
from .stamp_problem import (
    BoundaryProfile,
    ProfileKind,
    contact_pressure,
    sine_coefficients,
    total_force,
)
from .verification import (
    DiscrepancyReport,
    GridSpec,
    ResidualReport,
    constitutive_residual,
    discrepancy_report,
    equilibrium_residual,
)
from .cli import RunConfig, parse_config, run

__version__ = "0.1.0"
