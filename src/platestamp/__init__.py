"""Fourier-series plane-strain solver for a rigid stamp on a rectangular plate.

The package computes exact truncated-series displacement and stress
fields for a plate 0 <= x <= l, 0 <= y <= h whose top face carries a
prescribed vertical displacement with zero shear, by three mutually
verifying per-mode routes, together with a general Laplace-Dirichlet
rectangle solver and finite-difference verification oracles.
"""
from .core import (
    BoundaryCompatibilityError,
    ConfigError,
    DomainError,
    FdSolveError,
    FieldSample,
    Geometry,
    Material,
    MaterialError,
    ModeDegeneracyError,
    Parity,
    PathDivergenceError,
    PlateStampError,
    QuadratureError,
    SingularRatioError,
)
from .modal_calculus import (
    OperatorId,
    RatioKind,
    stable_ratio,
)
from .harmonic_rect import (
    DirichletData,
    HarmonicSeries,
    evaluate_harmonic,
    solve_dirichlet,
)
from .strip_solution import (
    SeriesField,
    SolutionPath,
    assemble_series,
    calibrate_delta_ratio,
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
    fd_laplace_solve,
    laplacian_residual,
)
from .cli import RunConfig, parse_config, run

__version__ = "0.1.0"
