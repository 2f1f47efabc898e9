"""Shared value types and exceptions.

Coordinate conventions used throughout the package: the plate occupies
0 <= x <= l, 0 <= y <= h under plane strain.  The stamp acts on the face
y = h, where the vertical displacement is prescribed and the shear
traction vanishes; the opposite face y = 0 is held at zero vertical
displacement with zero shear.

Field naming follows the shear-modulus scaling used by the transfer
(initial-function) representation: U = G*u and V = G*v are the scaled
displacements, Y = sigma_y, X = tau_xy.  Public evaluation routines
return physical u, v and stresses.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


class PlateStampError(Exception):
    """Base class for all solver errors."""


class DomainError(PlateStampError):
    """Coordinate or mode index outside its admissible range."""


class MaterialError(PlateStampError):
    """Elastic constants outside the admissible plane-strain range."""


class ModeDegeneracyError(PlateStampError):
    """Per-mode boundary system too ill-conditioned to solve reliably."""

    def __init__(self, n: int, beta: float, cond: float):
        self.n = n
        self.beta = beta
        self.cond = cond
        super().__init__(
            f"per-mode boundary system is degenerate for mode n={n} "
            f"(beta={beta:.6g}, condition number {cond:.3e} > 1e12)"
        )


class BoundaryCompatibilityError(PlateStampError):
    """Stamp profile violates the clamped-corner conditions."""


class PathDivergenceError(PlateStampError):
    """The two authoritative solution paths disagree beyond tolerance."""


class ConfigError(PlateStampError):
    """Malformed or inconsistent run configuration."""


def _positive_integer(value, name: str) -> int:
    """``value`` as an int; anything but a whole number >= 1 raises
    :class:`DomainError` naming ``name``."""
    if isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer():
        if value >= 1:
            return int(value)
    raise DomainError(f"{name} must be a whole number >= 1, got {value}")


@dataclass(frozen=True)
class Geometry:
    """Rectangle dimensions: length l along x, height h along y."""

    l: float
    h: float

    def __post_init__(self):
        if not (self.l > 0 and math.isfinite(self.l)):
            raise DomainError(f"plate length must be positive, got l={self.l}")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise DomainError(f"plate height must be positive, got h={self.h}")


@dataclass(frozen=True)
class Material:
    """Isotropic elastic constants for plane strain.

    The shear modulus G and Lame constant lam are derived properties so
    they are always consistent with E and nu to machine precision.
    """

    E: float
    nu: float

    def __post_init__(self):
        if not (self.E > 0 and math.isfinite(self.E)):
            raise MaterialError(f"Young's modulus must be positive, got E={self.E}")
        if not (0.0 <= self.nu < 0.5):
            raise MaterialError(
                f"Poisson ratio must satisfy 0 <= nu < 0.5 (incompressible "
                f"limit excluded), got nu={self.nu}"
            )

    @property
    def G(self) -> float:
        return self.E / (2.0 * (1.0 + self.nu))

    @property
    def lam(self) -> float:
        return self.E * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))


@dataclass(frozen=True)
class FieldSample:
    """Physical displacements and stresses at one point."""

    x: float
    y: float
    u: float
    v: float
    sigma_x: float
    sigma_y: float
    tau_xy: float

    def __post_init__(self):
        for name in ("u", "v", "sigma_x", "sigma_y", "tau_xy"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"non-finite field value {name} at "
                                  f"({self.x}, {self.y})")
