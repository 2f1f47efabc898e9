"""Stamp displacement profiles, sine coefficients, pressure and force.

A :class:`BoundaryProfile` prescribes the scaled face displacement
V_h(x) = G*v(x, h) on the top face.  Admissible profiles vanish at both
corners (the lateral conditions force V_h(0) = V_h(l) = 0); the flat
stamp satisfies this as long as its contact patch stays clear of the
edges.  Positive depth means positive v at the face.

The flat stamp is the classical discontinuous case; its sine series and
the contact pressure under it converge non-uniformly (edge spikes grow
with the truncation order).  The raised cosine is the smooth default
used wherever tight tolerances are asserted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import BoundaryCompatibilityError, DomainError, FieldSample, Geometry
from .harmonic_rect import QuadratureSpec, sine_transform
from .strip_solution import SeriesField

__all__ = [
    "ProfileKind",
    "BoundaryProfile",
    "FieldSample",
    "sine_coefficients",
    "contact_pressure",
    "total_force",
]

_EDGE_TOL = 1e-12


class ProfileKind(Enum):
    SINGLE_MODE = "single_mode"
    RAISED_COSINE = "raised_cosine"
    PARABOLIC_BUMP = "parabolic_bump"
    FLAT_STAMP = "flat_stamp"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class BoundaryProfile:
    """Evaluable stamp displacement V_h on [0, l].

    Use the factory classmethods; the raw constructor is not meant to be
    called directly.
    """

    kind: ProfileKind
    depth: float = 0.0
    center: float = 0.0
    half_width: float = 0.0
    mode: int = 0
    xs: tuple = ()
    values: tuple = ()

    # -- factories ---------------------------------------------------------

    @classmethod
    def single_mode(cls, mode: int, depth: float = 1.0) -> "BoundaryProfile":
        if mode < 1:
            raise DomainError(f"mode number must be >= 1, got {mode}")
        return cls(kind=ProfileKind.SINGLE_MODE, mode=int(mode), depth=float(depth))

    @classmethod
    def raised_cosine(cls, center: float, half_width: float, depth: float) -> "BoundaryProfile":
        cls._check_bump(center, half_width)
        return cls(kind=ProfileKind.RAISED_COSINE, center=float(center),
                   half_width=float(half_width), depth=float(depth))

    @classmethod
    def parabolic_bump(cls, center: float, half_width: float, depth: float) -> "BoundaryProfile":
        cls._check_bump(center, half_width)
        return cls(kind=ProfileKind.PARABOLIC_BUMP, center=float(center),
                   half_width=float(half_width), depth=float(depth))

    @classmethod
    def flat_stamp(cls, center: float, half_width: float, depth: float) -> "BoundaryProfile":
        cls._check_bump(center, half_width)
        return cls(kind=ProfileKind.FLAT_STAMP, center=float(center),
                   half_width=float(half_width), depth=float(depth))

    @classmethod
    def tabulated(cls, xs, values) -> "BoundaryProfile":
        xs = tuple(float(x) for x in xs)
        values = tuple(float(v) for v in values)
        if len(xs) != len(values) or len(xs) < 2:
            raise DomainError("tabulated profile needs matching xs/values, length >= 2")
        if any(b <= a for a, b in zip(xs[:-1], xs[1:])):
            raise DomainError("tabulated abscissae must be strictly increasing")
        return cls(kind=ProfileKind.TABULATED, xs=xs, values=values)

    @staticmethod
    def _check_bump(center, half_width):
        if half_width <= 0:
            raise DomainError(f"half_width must be positive, got {half_width}")
        if center <= 0:
            raise DomainError(f"center must be positive, got {center}")

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x, geom: Geometry):
        """V_h(x); scalar or array."""
        xa = np.asarray(x, dtype=float)
        if self.kind is ProfileKind.SINGLE_MODE:
            out = self.depth * np.sin(self.mode * np.pi * xa / geom.l)
        elif self.kind is ProfileKind.RAISED_COSINE:
            t = (xa - self.center) / self.half_width
            out = np.where(np.abs(t) <= 1.0,
                           0.5 * self.depth * (1.0 + np.cos(np.pi * np.clip(t, -1, 1))),
                           0.0)
        elif self.kind is ProfileKind.PARABOLIC_BUMP:
            t = (xa - self.center) / self.half_width
            out = np.where(np.abs(t) <= 1.0, self.depth * (1.0 - t * t), 0.0)
        elif self.kind is ProfileKind.FLAT_STAMP:
            t = np.abs(xa - self.center)
            out = np.where(t <= self.half_width, self.depth, 0.0)
        else:
            out = np.interp(xa, self.xs, self.values)
        if np.isscalar(x):
            return float(out)
        return out

    def scale(self) -> float:
        if self.kind is ProfileKind.TABULATED:
            return max((abs(v) for v in self.values), default=0.0)
        return abs(self.depth)

    def breakpoints(self, geom: Geometry) -> tuple:
        """Interior abscissae where smoothness is lost (quadrature splits there)."""
        if self.kind in (ProfileKind.RAISED_COSINE, ProfileKind.PARABOLIC_BUMP,
                         ProfileKind.FLAT_STAMP):
            return (self.center - self.half_width, self.center + self.half_width)
        if self.kind is ProfileKind.TABULATED:
            return self.xs
        return ()

    def exact_transform(self, ns, geom: Geometry) -> Optional[np.ndarray]:
        """Closed-form raw sine transforms (2/l) int V_h sin(n pi x / l) dx,
        or None when only quadrature is available."""
        ns = np.asarray(ns)
        l = geom.l
        if self.kind is ProfileKind.SINGLE_MODE:
            return np.where(ns == self.mode, self.depth, 0.0)
        if self.kind is ProfileKind.FLAT_STAMP:
            a = self.center - self.half_width
            b = self.center + self.half_width
            return (2.0 * self.depth / (ns * np.pi)) * (
                np.cos(ns * np.pi * a / l) - np.cos(ns * np.pi * b / l))
        if self.kind is ProfileKind.PARABOLIC_BUMP:
            k = ns * np.pi / l
            kw = k * self.half_width
            return (8.0 * self.depth / (l * k**3 * self.half_width**2)) * \
                np.sin(k * self.center) * (np.sin(kw) - kw * np.cos(kw))
        return None

    def validate_edges(self, geom: Geometry) -> None:
        """Both corners of the face must carry zero displacement."""
        if self.kind is ProfileKind.FLAT_STAMP:
            if self.center - self.half_width <= 0.0:
                raise BoundaryCompatibilityError(
                    "flat stamp touches the edge x = 0: the face displacement "
                    "must vanish there (V_h(0) = 0)")
            if self.center + self.half_width >= geom.l:
                raise BoundaryCompatibilityError(
                    f"flat stamp touches the edge x = {geom.l}: the face "
                    "displacement must vanish there (V_h(l) = 0)")
        tol = _EDGE_TOL * max(self.scale(), 1e-300)
        v0 = abs(self.evaluate(0.0, geom))
        vl = abs(self.evaluate(geom.l, geom))
        if v0 > tol:
            raise BoundaryCompatibilityError(
                f"profile violates V_h(0) = 0: |V_h(0)| = {v0:.3e}")
        if vl > tol:
            raise BoundaryCompatibilityError(
                f"profile violates V_h(l) = 0: |V_h(l)| = {vl:.3e}")


def sine_coefficients(
    profile: BoundaryProfile,
    geom: Geometry,
    N: int,
    quad: QuadratureSpec | None = None,
    force_quadrature: bool = False,
) -> np.ndarray:
    """Sine coefficients c_1..c_N of V_h.

    Closed forms are used where the profile has them (single mode, flat
    stamp, parabolic bump) unless ``force_quadrature`` asks for the
    Simpson route; the two agree to 1e-10 for resolutions beyond the
    default (the comparison is part of the test suite).
    """
    if N < 1:
        raise DomainError(f"need at least one mode, got N={N}")
    profile.validate_edges(geom)
    if profile.kind is ProfileKind.SINGLE_MODE and profile.mode > N:
        raise DomainError(
            f"single-mode profile at mode {profile.mode} is not representable "
            f"with N={N} coefficients")
    ns = np.arange(1, N + 1)
    if not force_quadrature:
        exact = profile.exact_transform(ns, geom)
        if exact is not None:
            return np.asarray(exact, dtype=float)
    quad = quad or QuadratureSpec()
    return sine_transform(lambda t: profile.evaluate(t, geom), geom.l, ns,
                          quad.subintervals(N), profile.breakpoints(geom))


def contact_pressure(sf: SeriesField, x):
    """Normal stress sigma_y on the stamp face y = h; scalar or array x.

    Sums c_n Y_n(1) sin(k_n x) over the modes in order, from the face
    value of the normal-stress profile alone.  Any 0-d ``x`` (a Python or
    NumPy scalar, or a 0-d array) gives a float.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xa)):
        raise DomainError("pressure requested at a non-finite x")
    if np.any(xa < 0.0) or np.any(xa > sf.geometry.l):
        raise DomainError("pressure requested outside the face [0, l]")
    out = np.zeros(xa.shape)
    for mode, c, prof in sf.modes:
        if c != 0.0:
            out += c * (prof.Y(1.0) * np.sin(mode.k * xa))
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def total_force(sf: SeriesField) -> float:
    """Resultant of the face normal stress per unit thickness.

    Term-by-term: int_0^l sin(n pi x / l) dx = l (1 - cos(n pi)) / (n pi),
    so only odd modes contribute.
    """
    l = sf.geometry.l
    total = 0.0
    for mode, c, prof in sf.modes:
        if mode.n % 2 == 0 or c == 0.0:
            continue
        total += c * float(prof.Y(1.0)) * 2.0 * l / (mode.n * math.pi)
    return total
