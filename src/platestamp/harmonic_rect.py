"""General Dirichlet solver for Laplace's equation on a rectangle.

The solution is the classical four-series superposition: one sine series
per edge, each damped into the interior by a sinh ratio.  Coefficients
are stored as the raw sine transforms of the edge data, i.e. O(1)
numbers; the 1/sh normalisation is folded into evaluation through
:func:`platestamp.modal_calculus.stable_ratio`, which keeps every mode
representable.

Edge data may advertise exact transforms; otherwise coefficients come
from composite Simpson quadrature, applied piecewise between declared
breakpoints so that discontinuous data (the flat stamp) does not destroy
the quadrature order.  Corner-incompatible data is accepted: the series
then converges non-uniformly near the offending corner, which is
inherent to the representation, not an error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import DomainError, Geometry, QuadratureError, _positive_integer
from .modal_calculus import RatioKind, stable_ratio

__all__ = [
    "DirichletData",
    "HarmonicSeries",
    "sine_transform",
    "solve_dirichlet",
    "evaluate_harmonic",
]

_EDGES = ("f1", "f2", "f3", "f4")


def _simpson_subintervals(N: int, panels: int | None) -> int:
    """``panels``, by default 8 N: the top retained mode sampled 16 points
    per period.  :func:`sine_transform` rounds each piece's share to even."""
    return 8 * N if panels is None else panels


@dataclass(frozen=True)
class DirichletData:
    """Boundary values on the four edges.

    f1(y), f2(y) act on the left (x=0) and right (x=l) edges; f3(x),
    f4(x) on the bottom (y=0) and top (y=h).  ``None`` means identically
    zero.  ``exact`` optionally maps an edge name to a closed-form raw
    sine transform (callable on an array of mode numbers); ``breakpoints``
    lists interior abscissae where an edge function loses smoothness.
    """

    f1: Optional[Callable] = None
    f2: Optional[Callable] = None
    f3: Optional[Callable] = None
    f4: Optional[Callable] = None
    exact: dict = field(default_factory=dict)
    breakpoints: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in self.exact:
            if key not in _EDGES:
                raise DomainError(f"unknown edge name {key!r} in exact transforms")
        for key in self.breakpoints:
            if key not in _EDGES:
                raise DomainError(f"unknown edge name {key!r} in breakpoints")


@dataclass(frozen=True)
class HarmonicSeries:
    """Raw sine transforms of the four edges; evaluation applies the
    sinh-ratio damping."""

    A: np.ndarray  # left edge,   modes along y
    B: np.ndarray  # right edge,  modes along y
    C: np.ndarray  # bottom edge, modes along x
    D: np.ndarray  # top edge,    modes along x
    geom: Geometry
    N: int

    def __post_init__(self):
        for name in "ABCD":
            arr = getattr(self, name)
            if arr.shape != (self.N,):
                raise DomainError(f"coefficient array {name} must have length {self.N}")


def sine_transform(f: Callable, length: float, ns: np.ndarray,
                   subintervals: int, breakpoints: tuple = ()) -> np.ndarray:
    """Raw transforms (2/length) * integral f(t) sin(n pi t / length) dt
    by composite Simpson, split at the breakpoints; a piece where f is
    zero at every sample is skipped."""
    pts = sorted({0.0, float(length), *(float(b) for b in breakpoints
                                        if 0.0 < float(b) < length)})
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
        total += np.einsum("p,np->n", ft * w,
                           np.sin(np.outer(ns, t) * np.pi / length))
    return (2.0 / length) * total


def solve_dirichlet(
    data: DirichletData,
    geom: Geometry,
    N: int,
    panels: int | None = None,
) -> HarmonicSeries:
    """Sine-transform the four edges into a :class:`HarmonicSeries`.

    Edges with an ``exact`` transform take it; the others are integrated
    by composite Simpson with ``panels`` subintervals, by default 8 N.
    """
    N = _positive_integer(N, "N")
    ns = np.arange(1, N + 1)
    sub = _simpson_subintervals(N, panels)
    lengths = {"f1": geom.h, "f2": geom.h, "f3": geom.l, "f4": geom.l}
    out = {}
    for edge in _EDGES:
        f = getattr(data, edge)
        if edge in data.exact:
            coeffs = np.asarray(data.exact[edge](ns), dtype=float)
        elif f is None:
            coeffs = np.zeros(N)
        else:
            coeffs = sine_transform(f, lengths[edge], ns, sub,
                                    data.breakpoints.get(edge, ()))
        if not np.all(np.isfinite(coeffs)):
            raise QuadratureError(edge, "non-finite transform coefficients")
        out[edge] = coeffs
    return HarmonicSeries(A=out["f1"], B=out["f2"], C=out["f3"], D=out["f4"],
                          geom=geom, N=N)


def evaluate_harmonic(series: HarmonicSeries, x, y):
    """Evaluate the truncated four-series sum; scalars or broadcastable
    arrays within the rectangle."""
    geom = series.geom
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if not np.all((xa >= 0) & (xa <= geom.l) & (ya >= 0) & (ya <= geom.h)):
        raise DomainError("evaluation point not finite or outside the rectangle")
    xa, ya = np.broadcast_arrays(xa, ya)
    total = np.zeros(xa.shape)
    l, h = geom.l, geom.h
    for i in range(series.N):
        n = i + 1
        kh = n * np.pi / h   # y-direction modes (vertical edges)
        kl = n * np.pi / l   # x-direction modes (horizontal edges)
        if series.A[i] != 0.0:
            total += series.A[i] * stable_ratio(RatioKind.SH_SH, kh * (l - xa), kh * l) * np.sin(kh * ya)
        if series.B[i] != 0.0:
            total += series.B[i] * stable_ratio(RatioKind.SH_SH, kh * xa, kh * l) * np.sin(kh * ya)
        if series.C[i] != 0.0:
            total += series.C[i] * np.sin(kl * xa) * stable_ratio(RatioKind.SH_SH, kl * (h - ya), kl * h)
        if series.D[i] != 0.0:
            total += series.D[i] * np.sin(kl * xa) * stable_ratio(RatioKind.SH_SH, kl * ya, kl * h)
    if np.isscalar(x) and np.isscalar(y):
        return float(total)
    return total

