"""Independent oracles and residual meters.

A 5-point finite-difference Laplace solver cross-checks the harmonic
series layer.  It shares no code with the series solvers, and solves its
linear system by DST-I along both axes (through ``numpy.fft``); the
5-point stencil of :func:`laplacian_residual` forms its right-hand side
and its residual.  Central-difference residual meters check that
assembled fields satisfy force balance and the plane-strain
stress-strain law; the discrepancy report runs the three per-mode
solution routes against each other and documents the closed-form
corrections.

Residual meters evaluate on the interior of a uniform grid (one cell
from the boundary so the central stencils stay valid) and can exclude a
further band of physical width ``exclusion_margin``: a truncated series
with top wavenumber k_N has a boundary layer of thickness ~1/k_N that a
desk-scale grid cannot resolve, and convergence-order measurements are
meaningful only outside it.  Observed orders are computed from the l2
(root-mean-square) residual of a grid pair.  The meters read only
``geometry``, ``material`` and ``grid_fields`` of the field they are
given; wrapped in :class:`SharedGridFields`, one series field serves both
meters, and the rest of a run, with one evaluation per grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    DomainError,
    FdSolveError,
    Geometry,
    Material,
    PathDivergenceError,
)
from .harmonic_rect import DirichletData
from .strip_solution import (
    FIELD_NAMES,
    block_profiles,
    calibrate_delta_ratio,
    closed_profiles,
    initial_amplitudes,
    initial_profiles,
    mode_columns,
)

__all__ = [
    "GridSpec",
    "ResidualReport",
    "SharedGridFields",
    "fd_laplace_solve",
    "laplacian_residual",
    "equilibrium_residual",
    "constitutive_residual",
    "discrepancy_report",
    "DiscrepancyReport",
    "ModeDiscrepancy",
]

_FD_RESIDUAL_TOL = 1e-11
_PATH_AB_HARD_LIMIT = 1e-8


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid described by its interior point counts.

    Spacing is l/(nx+1) by h/(ny+1); the sampled grid includes the
    boundary ring, residuals are formed on the interior points.
    """

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise DomainError(f"grid needs at least 3x3 interior points, got "
                              f"{self.nx}x{self.ny}")

    def spacing(self, geom: Geometry) -> tuple[float, float]:
        return geom.l / (self.nx + 1), geom.h / (self.ny + 1)

    def axes(self, geom: Geometry) -> tuple[np.ndarray, np.ndarray]:
        """Full sample axes including the boundary ring."""
        return (np.linspace(0.0, geom.l, self.nx + 2),
                np.linspace(0.0, geom.h, self.ny + 2))


@dataclass(frozen=True)
class ResidualReport:
    """Residual statistics over the evaluated interior points.

    ``l2`` is the root-mean-square residual; ``observed_order`` (from the
    l2 of a coarse/fine grid pair) is present only when a refined grid
    was supplied.
    """

    max_abs: float
    l2: float
    location: tuple[float, float]
    observed_order: Optional[float] = None


def _stats(res: np.ndarray, XI: np.ndarray, YI: np.ndarray,
           mask: np.ndarray) -> tuple[float, float, tuple[float, float]]:
    vals = res[mask]
    if vals.size == 0:
        raise DomainError("exclusion margin leaves no interior points")
    idx = int(np.argmax(np.abs(vals)))
    max_abs = float(np.abs(vals[idx]))
    l2 = float(np.sqrt(np.mean(vals**2)))
    loc = (float(XI[mask][idx]), float(YI[mask][idx]))
    return max_abs, l2, loc


def _interior_mask(geom: Geometry, xi: np.ndarray, yi: np.ndarray,
                   margin: float) -> np.ndarray:
    XI, YI = np.meshgrid(xi, yi)
    if margin <= 0.0:
        return XI, YI, np.ones_like(XI, dtype=bool)
    mask = ((XI >= margin) & (XI <= geom.l - margin)
            & (YI >= margin) & (YI <= geom.h - margin))
    return XI, YI, mask


def _order(l2_coarse: float, l2_fine: float, dx_coarse: float, dx_fine: float) -> float:
    return math.log(l2_coarse / l2_fine) / math.log(dx_coarse / dx_fine)


# ---------------------------------------------------------------------------
# finite-difference Laplace oracle
# ---------------------------------------------------------------------------

def _five_point(F: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """5-point discrete Laplacian of the grid values ``F`` on its interior."""
    return ((F[1:-1, 2:] - 2 * F[1:-1, 1:-1] + F[1:-1, :-2]) / dx**2
            + (F[2:, 1:-1] - 2 * F[1:-1, 1:-1] + F[:-2, 1:-1]) / dy**2)


def _dst2(a: np.ndarray) -> np.ndarray:
    """DST-I of ``a`` along both axes, sum_j a_j sin(pi p j / (n + 1)) for
    p, j = 1..n on each: per axis, minus the imaginary part of a real FFT
    of length 2(n + 1) of the data with one leading zero."""
    for _ in range(2):
        n = a.shape[1]
        padded = np.zeros((a.shape[0], 2 * (n + 1)))
        padded[:, 1:n + 1] = a
        a = -np.fft.rfft(padded, axis=1).imag[:, 1:n + 1].T
    return a


def fd_laplace_solve(data: DirichletData, geom: Geometry, grid: GridSpec) -> np.ndarray:
    """Solve the 5-point discrete Laplace system for the given Dirichlet
    data; returns the full (ny+2, nx+2) grid including the boundary ring.

    The right-hand side is the 5-point stencil of the boundary ring.  The
    Dirichlet 5-point Laplacian is diagonalised by DST-I along each axis,
    so the solve is a transform of the right-hand side, a division by the
    eigenvalue sums and the inverse transform (the fast Poisson solver of
    Hockney and of Buzbee, Golub and Nielson).  The algebraic residual,
    the stencil of the solved grid, is checked against 1e-11 relative to
    the right-hand side's scale; a failure raises :class:`FdSolveError`.
    Deterministic for fixed inputs.
    """
    nx, ny = grid.nx, grid.ny
    dx, dy = grid.spacing(geom)
    xs, ys = grid.axes(geom)

    def edge(f, pts):
        if f is None:
            return np.zeros(len(pts))
        vals = np.asarray(f(pts), dtype=float)
        return np.broadcast_to(vals, pts.shape).astype(float)

    full = np.zeros((ny + 2, nx + 2))
    full[:, 0] = edge(data.f1, ys)    # x = 0
    full[:, -1] = edge(data.f2, ys)   # x = l
    full[0, :] = edge(data.f3, xs)    # y = 0
    full[-1, :] = edge(data.f4, xs)   # y = h
    b = -_five_point(full, dx, dy)

    # eigenvalues of the 1-D second differences, sin(p pi j/(n+1)) in j
    lam_x = -4.0 / dx**2 * np.sin(np.arange(1, nx + 1) * np.pi / (2 * (nx + 1)))**2
    lam_y = -4.0 / dy**2 * np.sin(np.arange(1, ny + 1) * np.pi / (2 * (ny + 1)))**2
    spectrum = _dst2(b) / (lam_y[:, None] + lam_x)
    full[1:-1, 1:-1] = _dst2(spectrum) * (4.0 / ((nx + 1) * (ny + 1)))

    scale = max(1.0, float(np.max(np.abs(b))))
    residual = float(np.max(np.abs(_five_point(full, dx, dy)))) / scale
    if not np.isfinite(residual) or residual > _FD_RESIDUAL_TOL:
        raise FdSolveError(
            f"fast Poisson solve residual {residual:.3e} exceeds {_FD_RESIDUAL_TOL:g}")
    return full


def laplacian_residual(
    field: Callable,
    geom: Geometry,
    grid: GridSpec,
    refined: GridSpec | None = None,
    exclusion_margin: float = 0.0,
) -> ResidualReport:
    """5-point discrete Laplacian of a callable field on interior points.

    ``field(X, Y)`` must accept broadcast numpy arrays.
    """

    def run(g: GridSpec):
        dx, dy = g.spacing(geom)
        xs, ys = g.axes(geom)
        X, Y = np.meshgrid(xs, ys)
        lap = _five_point(np.asarray(field(X, Y), dtype=float), dx, dy)
        XI, YI, mask = _interior_mask(geom, xs[1:-1], ys[1:-1], exclusion_margin)
        return _stats(lap, XI, YI, mask), dx

    (max_abs, l2, loc), dx = run(grid)
    order = None
    if refined is not None:
        (_, l2_f, _), dx_f = run(refined)
        order = _order(l2, l2_f, dx, dx_f)
    return ResidualReport(max_abs=max_abs, l2=l2, location=loc, observed_order=order)


# ---------------------------------------------------------------------------
# physics residual meters
# ---------------------------------------------------------------------------

# Residual builders: from a grid's fields ``f``, its central-difference
# operators and the material, the residual arrays one meter reports.

def _equilibrium_terms(f, Dx, Dy, mat: Material) -> tuple:
    return (Dx(f["sigma_x"]) + Dy(f["tau_xy"]),
            Dx(f["tau_xy"]) + Dy(f["sigma_y"]))


def _constitutive_terms(f, Dx, Dy, mat: Material) -> tuple:
    ex = Dx(f["u"])
    ey = Dy(f["v"])
    gxy = Dy(f["u"]) + Dx(f["v"])
    lam, G = mat.lam, mat.G
    trace = lam * (ex + ey)
    return (f["sigma_x"][1:-1, 1:-1] - (trace + 2.0 * G * ex),
            f["sigma_y"][1:-1, 1:-1] - (trace + 2.0 * G * ey),
            f["tau_xy"][1:-1, 1:-1] - G * gxy)


def _central_residuals(sf, geom: Geometry, grid: GridSpec, terms, material: Material):
    """The residual arrays ``terms`` builds from the grid's fields and
    central differences, on the grid's interior."""
    dx, dy = grid.spacing(geom)
    xs, ys = grid.axes(geom)
    f = sf.grid_fields(xs, ys)

    def Dx(a):
        return (a[1:-1, 2:] - a[1:-1, :-2]) / (2.0 * dx)

    def Dy(a):
        return (a[2:, 1:-1] - a[:-2, 1:-1]) / (2.0 * dy)

    return terms(f, Dx, Dy, material), xs[1:-1], ys[1:-1], dx


def _meter(sf, grid, refined, exclusion_margin, terms, material=None):
    geom = sf.geometry
    mat = material if material is not None else sf.material
    res_c, xi, yi, dx = _central_residuals(sf, geom, grid, terms, mat)
    XI, YI, mask = _interior_mask(geom, xi, yi, exclusion_margin)
    reports = []
    stats_c = [_stats(res, XI, YI, mask) for res in res_c]
    if refined is not None:
        res_f, xif, yif, dxf = _central_residuals(sf, geom, refined, terms, mat)
        XIf, YIf, maskf = _interior_mask(geom, xif, yif, exclusion_margin)
        for (max_abs, l2, loc), res in zip(stats_c, res_f):
            _, l2f, _ = _stats(res, XIf, YIf, maskf)
            reports.append(ResidualReport(max_abs, l2, loc,
                                          observed_order=_order(l2, l2f, dx, dxf)))
    else:
        for max_abs, l2, loc in stats_c:
            reports.append(ResidualReport(max_abs, l2, loc))
    return tuple(reports)


class SharedGridFields:
    """A series field whose grid evaluations are kept, so that the residual
    meters, given the same instance, evaluate each grid once between them.

    Forwards ``geometry`` and ``material``.  Each ``(xs, ys)`` pair of
    ``axes`` is evaluated up front by one ``grid_fields`` call of the
    wrapped field.  ``grid_fields`` returns the kept fields of equal axes,
    which callers must not modify, and raises :class:`KeyError` for axes
    that were not given.  It holds every grid it was given, so it is meant
    to live for one run.
    """

    def __init__(self, sf, axes):
        self.geometry = sf.geometry
        self.material = sf.material
        self._kept = {self._key(a): sf.grid_fields(*a) for a in axes}

    @staticmethod
    def _key(axes) -> tuple:
        return tuple(np.asarray(a, dtype=float).tobytes() for a in axes)

    def grid_fields(self, xs, ys) -> dict:
        return self._kept[self._key((xs, ys))]


def equilibrium_residual(
    sf,
    grid: GridSpec,
    refined: GridSpec | None = None,
    exclusion_margin: float = 0.0,
) -> tuple[ResidualReport, ResidualReport]:
    """Central-difference residuals of the two force-balance equations
    d(sigma_x)/dx + d(tau_xy)/dy and d(tau_xy)/dx + d(sigma_y)/dy."""
    return _meter(sf, grid, refined, exclusion_margin, _equilibrium_terms)


def constitutive_residual(
    sf,
    grid: GridSpec,
    refined: GridSpec | None = None,
    exclusion_margin: float = 0.0,
    material: Material | None = None,
) -> tuple[ResidualReport, ResidualReport, ResidualReport]:
    """Residuals of the three plane-strain stress-strain relations, with
    strains from central differences of u and v.

    ``material`` overrides the constants used by the check only (negative
    control: a perturbed Poisson ratio must leave a visible residual).
    """
    return _meter(sf, grid, refined, exclusion_margin, _constitutive_terms,
                  material=material)


# ---------------------------------------------------------------------------
# three-path discrepancy report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeDiscrepancy:
    n: int
    beta: float
    rel_diff_ab: float
    rel_diff_cb: float
    delta_ratio: float
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
                f"{r.rel_diff_cb:9.3e}  {r.delta_ratio:.12f}  "
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


def _profile_scale(*stacks) -> np.ndarray:
    """Per field and mode, the largest magnitude over the samples of all
    ``stacks`` (profile stacks of shape (5, N, samples)); 1 where it is 0."""
    scale = np.max([np.max(np.abs(s), axis=2, keepdims=True) for s in stacks], axis=0)
    return np.where(scale == 0.0, 1.0, scale)


def _relative_difference(a, b, scale) -> np.ndarray:
    """Per mode, max over fields and samples of |a - b| / scale, for profile
    stacks of shape (5, N, samples) and a scale from :func:`_profile_scale`."""
    return np.max(np.abs(a - b) / scale, axis=(0, 2))


def path_profile_difference(pa, pb, beta: float) -> float:
    """Max over fields/samples of |pa - pb| / max_eta |pb| for one mode.

    ``pa`` and ``pb`` are two routes' kernels bound to the mode's scalar
    arguments, e.g. ``functools.partial(block_profiles, k, beta, nu)``:
    called on a row of eta samples, each returns the five profiles.
    The scale is the profile's max over a fine uniform eta grid and over
    samples of the face boundary layer (:func:`_layer_etas` of ``beta``):
    the coarse comparison samples can miss the boundary layer of a high
    mode entirely, and so can the uniform ones once beta is large, which
    would turn roundoff into a spurious relative error.
    """
    def stack(p, etas):
        return np.stack(p(etas))[:, None, :]

    scale = _profile_scale(stack(pb, _SCALE_ETAS), stack(pb, _layer_etas(beta)))
    return float(_relative_difference(stack(pa, _CMP_ETAS), stack(pb, _CMP_ETAS), scale)[0])


def discrepancy_report(geom: Geometry, mat: Material,
                       modes: Sequence[int]) -> DiscrepancyReport:
    """Run the three per-mode routes against each other.

    Every route evaluates all modes at once; each row equals what the
    kernels give for that mode alone, on its scalar arguments, through
    :func:`path_profile_difference`.

    Path disagreements are report content, with one exception: a
    boundary-solve vs blocks divergence beyond 1e-8 means the solver
    itself is broken (those two routes share no formulas) and raises
    :class:`PathDivergenceError`.
    """
    rho = calibrate_delta_ratio(geom, mat)
    ns, k, beta = mode_columns(modes, geom)
    nu, h = mat.nu, geom.h
    u0, y0 = initial_amplitudes(ns, k, beta, nu)

    b_cmp = np.stack(block_profiles(k, beta, nu, _CMP_ETAS))
    b_fine = np.stack(block_profiles(k, beta, nu, _SCALE_ETAS))
    scale = _profile_scale(b_fine, np.stack(block_profiles(k, beta, nu, _layer_etas(beta))))
    d_ab = _relative_difference(np.stack(initial_profiles(k, beta, nu, u0, y0, _CMP_ETAS)),
                                b_cmp, scale)
    d_cb = _relative_difference(np.stack(closed_profiles(beta, nu, h, rho, _CMP_ETAS)),
                                b_cmp, scale)

    # per-mode least-squares amplitude ratio of the uncalibrated closed form;
    # the stacked row products give the same bits as one np.dot per mode
    (vc,) = closed_profiles(beta, nu, h, 1.0, _SCALE_ETAS, fields=("V",))
    vb = b_fine[FIELD_NAMES.index("V")]
    delta = ((vc[:, None, :] @ vb[:, :, None]) / (vc[:, None, :] @ vc[:, :, None])).ravel()

    (unfixed,) = closed_profiles(beta, nu, h, rho, 1.0, uncorrected_shear=True,
                                 fields=("X",))
    (fixed,) = closed_profiles(beta, nu, h, rho, 1.0, fields=("X",))

    rows = tuple(
        ModeDiscrepancy(
            n=int(ns[i, 0]), beta=float(beta[i, 0]),
            rel_diff_ab=float(d_ab[i]), rel_diff_cb=float(d_cb[i]),
            delta_ratio=float(delta[i]),
            uncorrected_shear_face=float(unfixed[i, 0]),
            corrected_shear_face=float(fixed[i, 0]),
        )
        for i in range(len(ns)))
    max_ab = float(np.max(d_ab, initial=0.0))
    max_cb = float(np.max(d_cb, initial=0.0))
    if max_ab > _PATH_AB_HARD_LIMIT:
        raise PathDivergenceError(
            f"boundary-solve profiles diverge from block profiles by "
            f"{max_ab:.3e} (> {_PATH_AB_HARD_LIMIT:g})")
    return DiscrepancyReport(geometry=geom, material=mat, calibration_ratio=rho,
                             rows=rows, max_rel_ab=max_ab, max_rel_cb=max_cb)
