"""Residual meters and the three-path discrepancy report.

Central-difference residual meters check that assembled fields satisfy
force balance and the plane-strain stress-strain law; the discrepancy
report runs the three per-mode solution routes against each other and
documents the closed-form corrections.

Residual meters evaluate on the interior of a uniform grid (one cell
from the boundary so the central stencils stay valid) outside a band of
width ``0.15 * min(l, h)`` along all four sides: a truncated series with
top wavenumber k_N has a boundary layer of thickness ~1/k_N that a
desk-scale grid cannot resolve, and convergence-order measurements are
meaningful only outside it.  A meter evaluates only the grid rows its
stencils read: the rows outside the band, and one more on either side.
Each meter measures the grid it is given and its refinement, with
2 n - 1 interior points per axis for n, and computes the observed order
from the l2 (root-mean-square) residuals of that pair.  The band and the
refinement are the meters' own (:func:`_exclusion_band`,
:func:`_refined_grid`); a caller passes only the coarse grid.  The
meters read only ``geometry``, ``material`` and
``grid_fields`` of the field they are given.  :class:`SharedGridFields`
is a memo of a series field's ``grid_fields``: it evaluates a grid the
first time a meter asks for it and hands the kept fields to the next, so
one instance given to both meters evaluates each grid once.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DomainError,
    Geometry,
    Material,
    PathDivergenceError,
    _positive_integer,
)
from .strip_solution import (
    FIELD_NAMES,
    _exp_m2,
    block_profiles,
    closed_profiles,
    initial_amplitudes,
    initial_profiles,
    mode_columns,
)

__all__ = [
    "GridSpec",
    "ResidualReport",
    "SharedGridFields",
    "equilibrium_residual",
    "constitutive_residual",
    "discrepancy_report",
    "DiscrepancyReport",
    "ModeDiscrepancy",
]

_PATH_AB_HARD_LIMIT = 1e-8


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid described by its interior point counts.

    Spacing is l/(nx+1) by h/(ny+1); the sampled grid includes the
    boundary ring, residuals are formed on the interior points.  A count
    must be a whole number (an integral float is taken as an int).
    """

    nx: int
    ny: int

    def __post_init__(self):
        if not (self.nx >= 3 and self.ny >= 3):
            raise DomainError(f"grid needs at least 3x3 interior points, got "
                              f"{self.nx}x{self.ny}")
        for name in ("nx", "ny"):
            object.__setattr__(self, name, _positive_integer(getattr(self, name), name))

    def spacing(self, geom: Geometry) -> tuple[float, float]:
        return geom.l / (self.nx + 1), geom.h / (self.ny + 1)

    def axes(self, geom: Geometry) -> tuple[np.ndarray, np.ndarray]:
        """Full sample axes including the boundary ring."""
        return (np.linspace(0.0, geom.l, self.nx + 2),
                np.linspace(0.0, geom.h, self.ny + 2))


@dataclass(frozen=True)
class ResidualReport:
    """Residual statistics over the evaluated interior points.

    ``l2`` is the root-mean-square residual; ``observed_order`` comes
    from the l2 of the grid and its refinement, and is NaN when either
    grid's l2 is 0.
    """

    max_abs: float
    l2: float
    observed_order: float


def _stats(vals: np.ndarray) -> tuple[float, float]:
    return float(np.max(np.abs(vals))), float(np.sqrt(np.mean(vals**2)))


def _refined_grid(grid: GridSpec) -> GridSpec:
    """The fine grid of a meter's pair: 2 n - 1 interior points per axis
    for n."""
    return GridSpec(2 * grid.nx - 1, 2 * grid.ny - 1)


def _exclusion_band(geom: Geometry) -> float:
    """Width of the band along all four sides that the meters leave out,
    a fraction of the plate's shorter side (a fraction of the longer side
    could leave no interior point).  The fraction is below 1/4, so every
    grid of at least 3x3 interior points keeps a row and a column."""
    return 0.15 * min(geom.l, geom.h)


def _meter(fields_on, geom: Geometry, grid: GridSpec, terms) -> tuple:
    """One report per residual array that ``terms(f, dx, dy)`` builds from
    the fields ``f = fields_on(xs, ys)`` of a grid, over the grid's interior
    points outside the exclusion band, with the observed order from the
    grid and its refinement.

    The fields are evaluated on the full x axis and on the y rows from one
    below the first interior row outside the band to one above the last,
    the rows that the central differences on those rows read."""
    m = _exclusion_band(geom)

    def run(g: GridSpec):
        dx, dy = g.spacing(geom)
        xs, ys = g.axes(geom)
        xi, yi = xs[1:-1], ys[1:-1]
        cols = (xi >= m) & (xi <= geom.l - m)
        (rows,) = np.nonzero((yi >= m) & (yi <= geom.h - m))
        # interior row i is sample row i + 1, so its stencil spans sample
        # rows i..i + 2
        residuals = terms(fields_on(xs, ys[rows[0]:rows[-1] + 3]), dx, dy)
        # raveled, the band sums in the order of a full-grid mask; the mean
        # of the 2-D block sums in another order, with other bits
        return [_stats(res[:, cols].ravel()) for res in residuals], dx

    stats, dx = run(grid)
    stats_f, dx_f = run(_refined_grid(grid))

    def order(l2, l2_f):
        """The observed order from the l2 residuals of the grid pair; a
        residual of 0 (a field that is zero) has none."""
        if l2 == 0.0 or l2_f == 0.0:
            return math.nan
        return math.log(l2 / l2_f) / math.log(dx / dx_f)

    return tuple(ResidualReport(*s, observed_order=order(s[1], s_f[1]))
                 for s, s_f in zip(stats, stats_f))


# ---------------------------------------------------------------------------
# physics residual meters
# ---------------------------------------------------------------------------

# Residual builders: from a grid's fields ``f`` and its spacing, the
# residual arrays one meter reports, by central differences on the interior.

def _ddx(a: np.ndarray, dx: float) -> np.ndarray:
    return (a[1:-1, 2:] - a[1:-1, :-2]) / (2.0 * dx)


def _ddy(a: np.ndarray, dy: float) -> np.ndarray:
    return (a[2:, 1:-1] - a[:-2, 1:-1]) / (2.0 * dy)


def _equilibrium_terms(f, dx, dy) -> tuple:
    return (_ddx(f["sigma_x"], dx) + _ddy(f["tau_xy"], dy),
            _ddx(f["tau_xy"], dx) + _ddy(f["sigma_y"], dy))


def _constitutive_terms(mat: Material, f, dx, dy) -> tuple:
    ex = _ddx(f["u"], dx)
    ey = _ddy(f["v"], dy)
    gxy = _ddy(f["u"], dy) + _ddx(f["v"], dx)
    lam, G = mat.lam, mat.G
    trace = lam * (ex + ey)
    return (f["sigma_x"][1:-1, 1:-1] - (trace + 2.0 * G * ex),
            f["sigma_y"][1:-1, 1:-1] - (trace + 2.0 * G * ey),
            f["tau_xy"][1:-1, 1:-1] - G * gxy)


class SharedGridFields:
    """A series field whose grid evaluations are kept, so that the residual
    meters, given the same instance, evaluate each grid once between them.

    Forwards ``geometry`` and ``material``.  ``grid_fields`` evaluates a
    pair of axes by one ``grid_fields`` call of the wrapped field the first
    time it is asked for, and returns the kept fields of equal axes after
    that; callers must not modify them.  It holds every grid it was asked
    for, so it is meant to live for one run.
    """

    def __init__(self, sf):
        self.geometry = sf.geometry
        self.material = sf.material
        self._sf = sf
        self._kept = {}

    def grid_fields(self, xs, ys) -> dict:
        key = tuple(np.asarray(a, dtype=float).tobytes() for a in (xs, ys))
        if key not in self._kept:
            self._kept[key] = self._sf.grid_fields(xs, ys)
        return self._kept[key]


def equilibrium_residual(sf, grid: GridSpec) -> tuple[ResidualReport, ResidualReport]:
    """Central-difference residuals of the two force-balance equations
    d(sigma_x)/dx + d(tau_xy)/dy and d(tau_xy)/dx + d(sigma_y)/dy."""
    return _meter(sf.grid_fields, sf.geometry, grid, _equilibrium_terms)


def constitutive_residual(
    sf, grid: GridSpec,
) -> tuple[ResidualReport, ResidualReport, ResidualReport]:
    """Residuals of the three plane-strain stress-strain relations of
    ``sf.material``, with strains from central differences of u and v."""
    return _meter(sf.grid_fields, sf.geometry, grid,
                  functools.partial(_constitutive_terms, sf.material))


# ---------------------------------------------------------------------------
# three-path discrepancy report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeDiscrepancy:
    n: int
    beta: float
    rel_diff_ab: float
    rel_diff_cb: float
    amplitude_ratio: float
    uncorrected_shear_face: float   # closed-form tau_xy(h) before the factor fix
    corrected_shear_face: float


@dataclass(frozen=True)
class DiscrepancyReport:
    geometry: Geometry
    material: Material
    calibration_ratio: float
    rows: tuple
    max_rel_ab: float
    max_rel_cb: float

    def as_dict(self) -> dict:
        return {
            "calibration_ratio": self.calibration_ratio,
            "path_equiv_max_rel_diff_ab": self.max_rel_ab,
            "path_equiv_max_rel_diff_cb": self.max_rel_cb,
        }

    def as_text(self) -> str:
        lines = [
            "three-path discrepancy report",
            f"  geometry l={self.geometry.l:g} h={self.geometry.h:g}; "
            f"material E={self.material.E:g} nu={self.material.nu:g}",
            f"  closed-form amplitude calibration ratio: {self.calibration_ratio:.15g}",
            f"  max relative profile difference, boundary solve vs blocks: {self.max_rel_ab:.3e}",
            f"  max relative profile difference, closed form vs blocks:    {self.max_rel_cb:.3e}",
            "  per-mode (n, beta, |A-B|, |C-B|, delta/c, uncorrected tau(h), corrected tau(h)):",
        ]
        for r in self.rows:
            lines.append(
                f"    {r.n:4d}  {r.beta:12.6g}  {r.rel_diff_ab:9.3e}  "
                f"{r.rel_diff_cb:9.3e}  {r.amplitude_ratio:.12f}  "
                f"{r.uncorrected_shear_face: .6e}  {r.corrected_shear_face: .6e}")
        lines.append(
            "  note: the uncorrected closed-form shear factor eta*sh(beta*eta) "
            "leaves tau_xy(x, h) nonzero; the corrected factor eta*ch(beta*eta) "
            "cancels it exactly.")
        return "\n".join(lines)


_CMP_ETAS = np.linspace(0.0, 1.0, 11)
_SCALE_ETAS = np.linspace(0.0, 1.0, 101)
#: samples of the layer variable s = beta*(1 - eta) next to the loaded face
_LAYER_S = np.linspace(0.0, 40.0, 81)


def _layer_etas(beta):
    """eta samples at s = beta*(1 - eta) in [0, 40], clipped at eta = 0:
    a high mode's profiles rise and decay there, within a few multiples
    of 1/beta of the face, between the uniform samples."""
    return np.maximum(1.0 - _LAYER_S / beta, 0.0)


def _calibration_ratio(geom: Geometry, mat: Material) -> float:
    """Least-squares ratio that scales path C's mode-1 V-profile onto
    path B's at 33 uniform eta samples: 1 analytically."""
    _, k, beta = (a.item() for a in mode_columns([1], geom))
    etas = np.linspace(0.0, 1.0, 33)
    (vb,) = block_profiles(k, beta, mat.nu, etas, fields=("V",))
    (vc,) = closed_profiles(beta, mat.nu, geom.h, etas, fields=("V",))
    return float(np.dot(vc, vb) / np.dot(vc, vc))


def _uncorrected_shear_face(beta, nu: float, h: float):
    """Face value X(1) of path C's shear profile with the uncorrected
    factor eta*sh(beta*eta) for eta*ch(beta*eta) (:func:`closed_profiles`),
    per mode of ``beta``.  There its bracket is (1 - F) 2E, with the
    kernel's E (libm) and F (numpy) of e^(-2 beta): the factor (1 - F)
    keeps the violation, exponentially small in beta, in floats."""
    E2 = _exp_m2(beta)
    F = np.exp(-2.0 * beta)
    return (beta * beta / h) * ((1 - F) * (2 * E2)) / ((1 - nu) * (1 - E2) ** 2)


def discrepancy_report(geom: Geometry, mat: Material,
                       modes: Sequence[int]) -> DiscrepancyReport:
    """Run the three per-mode routes against each other.

    Every route evaluates all modes at once; each row equals the report of
    its mode alone.  A row's differences are the max of |A - B| and |C - B|
    over fields and coarse samples, relative to the block profile's max
    over a fine uniform eta grid and the face layer (:func:`_layer_etas`):
    the coarse and uniform samples can miss a high mode's boundary layer,
    which would turn roundoff into a spurious relative error.

    Path disagreements are report content, with one exception: a
    boundary-solve vs blocks divergence beyond 1e-8 means the solver
    itself is broken (those two routes share no formulas) and raises
    :class:`PathDivergenceError`.  Path C is compared below its beta floor
    too, and its amplitude ratios (:func:`_calibration_ratio`) are content.
    """
    ns, k, beta = mode_columns(modes, geom)
    nu, h = mat.nu, geom.h
    u0, y0 = initial_amplitudes(ns, k, beta, nu)

    # profile stacks of shape (5, N, samples); the scale is per field and
    # mode, 1 where the profile is 0
    b_cmp = np.stack(block_profiles(k, beta, nu, _CMP_ETAS))
    b_fine = np.stack(block_profiles(k, beta, nu, _SCALE_ETAS))
    b_layer = np.stack(block_profiles(k, beta, nu, _layer_etas(beta)))
    scale = np.maximum(np.max(np.abs(b_fine), axis=2, keepdims=True),
                       np.max(np.abs(b_layer), axis=2, keepdims=True))
    scale = np.where(scale == 0.0, 1.0, scale)
    a_cmp = np.stack(initial_profiles(k, beta, nu, u0, y0, _CMP_ETAS))
    c_cmp = np.stack(closed_profiles(beta, nu, h, _CMP_ETAS))
    d_ab = np.max(np.abs(a_cmp - b_cmp) / scale, axis=(0, 2))
    d_cb = np.max(np.abs(c_cmp - b_cmp) / scale, axis=(0, 2))

    # per-mode least-squares amplitude ratio of the closed form; the
    # stacked row products give the same bits as one np.dot per mode
    (vc,) = closed_profiles(beta, nu, h, _SCALE_ETAS, fields=("V",))
    vb = b_fine[FIELD_NAMES.index("V")]
    delta = ((vc[:, None, :] @ vb[:, :, None]) / (vc[:, None, :] @ vc[:, :, None])).ravel()

    unfixed = _uncorrected_shear_face(beta, nu, h)
    (fixed,) = closed_profiles(beta, nu, h, 1.0, fields=("X",))

    rows = tuple(
        ModeDiscrepancy(
            n=int(ns[i, 0]), beta=float(beta[i, 0]),
            rel_diff_ab=float(d_ab[i]), rel_diff_cb=float(d_cb[i]),
            amplitude_ratio=float(delta[i]),
            uncorrected_shear_face=float(unfixed[i, 0]),
            corrected_shear_face=float(fixed[i, 0]),
        )
        for i in range(len(ns)))
    max_ab = float(np.max(d_ab, initial=0.0))
    max_cb = float(np.max(d_cb, initial=0.0))
    if not max_ab <= _PATH_AB_HARD_LIMIT:
        raise PathDivergenceError(
            f"boundary-solve profiles diverge from block profiles by "
            f"{max_ab:.3e} (> {_PATH_AB_HARD_LIMIT:g})")
    return DiscrepancyReport(geometry=geom, material=mat,
                             calibration_ratio=_calibration_ratio(geom, mat),
                             rows=rows, max_rel_ab=max_ab, max_rel_cb=max_cb)
