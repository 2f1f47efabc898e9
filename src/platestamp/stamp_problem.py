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
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .core import BoundaryCompatibilityError, DomainError, Geometry, _positive_integer
from .strip_solution import SeriesField

__all__ = [
    "ProfileKind",
    "BoundaryProfile",
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
        cls._check_finite(mode=mode, depth=depth)
        mode = _positive_integer(mode, "mode")
        return cls(kind=ProfileKind.SINGLE_MODE, mode=mode, depth=float(depth))

    @classmethod
    def raised_cosine(cls, center: float, half_width: float, depth: float) -> "BoundaryProfile":
        return cls._bump(ProfileKind.RAISED_COSINE, center, half_width, depth)

    @classmethod
    def parabolic_bump(cls, center: float, half_width: float, depth: float) -> "BoundaryProfile":
        return cls._bump(ProfileKind.PARABOLIC_BUMP, center, half_width, depth)

    @classmethod
    def flat_stamp(cls, center: float, half_width: float, depth: float) -> "BoundaryProfile":
        return cls._bump(ProfileKind.FLAT_STAMP, center, half_width, depth)

    @classmethod
    def tabulated(cls, xs, values) -> "BoundaryProfile":
        xs, values = tuple(xs), tuple(values)
        cls._check_finite(xs=xs, values=values)
        xs, values = tuple(map(float, xs)), tuple(map(float, values))
        if len(xs) != len(values) or len(xs) < 2:
            raise DomainError("tabulated profile needs matching xs/values, length >= 2")
        if any(b <= a for a, b in zip(xs[:-1], xs[1:])):
            raise DomainError("tabulated abscissae must be strictly increasing")
        return cls(kind=ProfileKind.TABULATED, xs=xs, values=values)

    @staticmethod
    def _check_finite(**params):
        """Raise :class:`DomainError` naming the first parameter that is
        not, or (for a tuple) holds one that is not, a finite real number."""
        for name, value in params.items():
            for v in value if isinstance(value, tuple) else (value,):
                if not (isinstance(v, numbers.Real) and math.isfinite(v)):
                    raise DomainError(f"{name} must be finite and real, got {v!r}")

    @classmethod
    def _bump(cls, kind, center, half_width, depth) -> "BoundaryProfile":
        """The bump of ``kind`` on the support [center - half_width,
        center + half_width]."""
        cls._check_finite(center=center, half_width=half_width, depth=depth)
        if half_width <= 0:
            raise DomainError(f"half_width must be positive, got {half_width}")
        if center <= 0:
            raise DomainError(f"center must be positive, got {center}")
        if center - half_width == center or center + half_width == center:
            # the support would round to a point, which no quadrature
            # sample reaches: every coefficient would be 0
            raise DomainError(f"half_width {half_width} is below the float resolution at "
                              f"center {center}: the support rounds to a point")
        return cls(kind=kind, center=float(center), half_width=float(half_width),
                   depth=float(depth))

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
            # on the closed support of breakpoints() and exact_transform()
            lo, hi = self.breakpoints(geom)
            out = np.where((xa >= lo) & (xa <= hi), self.depth, 0.0)
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

    def touches_face(self, geom: Geometry) -> bool:
        """Whether the stamp displaces some of the face 0 < x < l; one that
        does not solves to an all-zero field.  A bump's support is its
        interval whatever its depth."""
        if self.kind is ProfileKind.TABULATED:
            # piecewise linear and constant beyond its end knots, so zero on
            # the face exactly when it is zero at both corners and at every
            # knot on the face
            xs = np.array([0.0, geom.l, *self.xs])
            return bool(np.any(self.evaluate(xs[(xs >= 0.0) & (xs <= geom.l)], geom)))
        return self.kind is ProfileKind.SINGLE_MODE or self.center - self.half_width < geom.l

    def validate_edges(self, geom: Geometry) -> None:
        """The stamp must touch the face (:meth:`touches_face`), and both
        corners of the face must carry zero displacement; so a flat stamp
        of nonzero depth must stay clear of both edges."""
        if not self.touches_face(geom):
            raise DomainError(f"{self.kind.value} profile leaves the face [0, {geom.l:g}] "
                              "untouched: it would solve to an all-zero field")
        tol = _EDGE_TOL * max(self.scale(), 1e-300)
        v0 = abs(self.evaluate(0.0, geom))
        vl = abs(self.evaluate(geom.l, geom))
        if v0 > tol:
            raise BoundaryCompatibilityError(
                f"profile violates V_h(0) = 0: |V_h(0)| = {v0:.3e}")
        if vl > tol:
            raise BoundaryCompatibilityError(
                f"profile violates V_h(l) = 0: |V_h(l)| = {vl:.3e}")


def sine_transform(f: Callable, length: float, ns: np.ndarray,
                   subintervals: int, breakpoints: tuple = ()) -> np.ndarray:
    """Raw transforms (2/length) * integral f(t) sin(n pi t / length) dt
    by composite Simpson, split at the breakpoints; a piece where f is
    zero at every sample is skipped.

    A piece's P + 1 samples are indexed j = q R + r with R = isqrt(P + 1)
    and Q = ceil((P + 1) / R), so that with phi = n pi / length and the
    sample spacing s, sin(phi t_j) = sin(phi (lo + s r)) cos(phi s R q)
    + cos(phi (lo + s r)) sin(phi s R q).  The tables of those angles are
    N x R and N x Q, not N x P, and the sums are fixed-order einsums,
    which never use BLAS.
    """
    pts = sorted({0.0, float(length), *(float(b) for b in breakpoints
                                        if 0.0 < float(b) < length)})
    phi = np.asarray(ns) * np.pi / length
    total = np.zeros(len(ns))
    for lo, hi in zip(pts[:-1], pts[1:]):
        width = hi - lo
        p = max(2, int(round(subintervals * width / length)))
        p += p % 2
        t = np.linspace(lo, hi, p + 1)
        w = np.ones(p + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= (width / p) / 3.0
        # one-sided limits at the piece ends: a breakpoint may carry a jump
        t_eval = t.copy()
        t_eval[0] += 1e-12 * width
        t_eval[-1] -= 1e-12 * width
        ft = np.asarray(f(t_eval), dtype=float)
        if ft.shape != t.shape:
            ft = np.broadcast_to(ft, t.shape)
        if not ft.any():
            # a piece outside the data's support adds only signed zeros,
            # which leave ``total`` (never -0.0) unchanged
            continue
        R = math.isqrt(p + 1)
        Q = -(-(p + 1) // R)
        g = np.zeros(Q * R)
        g[:p + 1] = ft * w
        g = g.reshape(Q, R)
        s = width / p
        a = np.outer(phi, lo + s * np.arange(R))
        gs = np.einsum("qr,nr->nq", g, np.sin(a), optimize=False)
        gc = np.einsum("qr,nr->nq", g, np.cos(a), optimize=False)
        del a
        b = np.outer(phi, s * R * np.arange(Q))
        total += (np.einsum("nq,nq->n", gs, np.cos(b), optimize=False)
                  + np.einsum("nq,nq->n", gc, np.sin(b), optimize=False))
    return (2.0 / length) * total


def sine_coefficients(profile: BoundaryProfile, geom: Geometry, N: int) -> np.ndarray:
    """Sine coefficients c_1..c_N of V_h.

    Closed forms where the profile has them (single mode, flat stamp,
    parabolic bump), composite Simpson with 8 N subintervals
    (:func:`sine_transform`) elsewhere.
    """
    N = _positive_integer(N, "N")
    profile.validate_edges(geom)
    if profile.kind is ProfileKind.SINGLE_MODE and profile.mode > N:
        raise DomainError(
            f"single-mode profile at mode {profile.mode} is not representable "
            f"with N={N} coefficients")
    ns = np.arange(1, N + 1)
    exact = profile.exact_transform(ns, geom)
    if exact is not None:
        return np.asarray(exact, dtype=float)
    return sine_transform(lambda t: profile.evaluate(t, geom), geom.l, ns, 8 * N,
                          profile.breakpoints(geom))


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
    # one kernel call per mode: batching the face values makes a solve so
    # cheap that perfbench's loop budget, which counts operation time only,
    # stretches a 30 s sweep-desk run past three minutes (ROADMAP item 1)
    for i, (c, k) in enumerate(zip(sf.c[:, 0].tolist(), sf.k[:, 0].tolist())):
        if c != 0.0:
            out += c * (sf.face_normal_stress(i) * np.sin(k * xa))
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
    # per mode, like contact_pressure, for the same reason
    for n, c in enumerate(sf.c[:, 0].tolist(), start=1):
        if n % 2 == 0 or c == 0.0:
            continue
        total += c * sf.face_normal_stress(n - 1) * 2.0 * l / (n * math.pi)
    return total
