"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk scale throughout: l=2, h=1, E=1, nu=0.3, N=64, 41x41 grid.
"""
import filecmp
import math

import numpy as np
import pytest

from platestamp import (
    BoundaryProfile,
    Geometry,
    GridSpec,
    Material,
    assemble_series,
    constitutive_residual,
    discrepancy_report,
    equilibrium_residual,
    parse_config,
    run,
    sine_coefficients,
    total_force,
)
from platestamp.stamp_problem import contact_pressure
from platestamp.strip_solution import _ratios
from platestamp.verification import _uncorrected_shear_face

from conftest import mode_kernel, mode_scalars, simpson_coefficients
from laplace_oracles import fd_solution, laplacian_order, series_solution

L, H, E_MOD, NU, N_MODES = 2.0, 1.0, 1.0, 0.3, 64
GEOM = Geometry(L, H)
MAT = Material(E_MOD, NU)

ETAS_11 = np.linspace(0.0, 1.0, 11)
ETAS_FINE = np.linspace(0.0, 1.0, 101)


def _report(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def raised_cosine_series():
    profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
    coeffs = sine_coefficients(profile, GEOM, N_MODES)
    return profile, coeffs, assemble_series(coeffs, GEOM, MAT, path="B")


@pytest.fixture(scope="module")
def all_paths_per_mode():
    return [(mode_kernel("A", n, GEOM, MAT), mode_kernel("B", n, GEOM, MAT),
             mode_kernel("C", n, GEOM, MAT)) for n in range(1, N_MODES + 1)]


def test_criterion_1_three_path_equivalence():
    """Paths A, B, C agree to 1e-10 relative on all five profiles,
    modes 1..64, 11 eta samples (scale: per-profile max over eta)."""
    rep = discrepancy_report(GEOM, MAT, range(1, N_MODES + 1))
    worst = max(rep.max_rel_ab, rep.max_rel_cb)
    print(f"  worst three-path relative difference: {worst:.3e}")
    _report(1, "three-path equivalence", worst <= 1e-10)


def test_criterion_2_boundary_conditions(all_paths_per_mode, raised_cosine_series):
    """Per-mode face conditions to 1e-12 x profile scale; lateral edge
    conditions to roundoff; face displacement reproduces the truncated
    sine reconstruction within 1e-9."""
    ok = True
    # per-mode: V(0), X(0), X(1) for every path
    for pa, pb, pc in all_paths_per_mode:
        for prof in (pa, pb, pc):
            scales = np.max(np.abs(prof(ETAS_FINE)), axis=1)
            v_scale = max(scales[1], 1e-300)
            x_scale = max(scales[3], 1e-300)
            (v0, x0), (x1,) = prof(0.0, fields=("V", "X")), prof(1.0, fields=("X",))
            ok &= abs(v0) <= 1e-12 * v_scale
            ok &= abs(x0) <= 1e-12 * x_scale
            ok &= abs(x1) <= 1e-12 * x_scale

    profile, coeffs, sf = raised_cosine_series
    # lateral conditions at x = 0 and x = l
    ys = np.linspace(0.0, H, 21)
    interior = sf.grid_fields(np.linspace(0, L, 41), ys)
    scale = max(float(np.max(np.abs(interior[key])))
                for key in ("v", "sigma_y", "sigma_x"))
    for x_edge in (0.0, L):
        f = sf.grid_fields(np.array([x_edge]), ys)
        for key in ("v", "sigma_y", "sigma_x"):
            ok &= float(np.max(np.abs(f[key]))) <= 1e-12 * scale

    # face displacement against the N-term sine reconstruction of V_h / G
    xs = np.linspace(0.0, L, 161)
    ns = np.arange(1, N_MODES + 1)
    recon = np.einsum("n,np->p", coeffs, np.sin(np.outer(ns, xs) * np.pi / L)) / MAT.G
    v_face = sf.grid_fields(xs, np.array([H]))["v"][0]
    face_dev = float(np.max(np.abs(v_face - recon)))
    print(f"  face reconstruction deviation: {face_dev:.3e}")
    ok &= face_dev <= 1e-9
    _report(2, "boundary conditions", ok)


def test_criterion_3_physics_residuals(raised_cosine_series):
    """Equilibrium and constitutive residuals converge at observed order
    >= 1.9 between 41x41 and 81x81, outside the meters' band of 0.15 h
    (grids 41/81 cannot resolve the top retained modes next to the loaded
    face); 1% stress corruption keeps residuals above 1e-3 x field scale."""
    _, _, sf = raised_cosine_series
    coarse = GridSpec(41, 41)
    eq = equilibrium_residual(sf, coarse)
    con = constitutive_residual(sf, coarse)
    orders = [r.observed_order for r in (*eq, *con)]
    print("  observed orders:", ", ".join(f"{o:.3f}" for o in orders))
    ok = all(o >= 1.9 for o in orders)

    # negative control: corrupted horizontal stress
    class Corrupted:
        geometry = GEOM
        material = MAT

        def grid_fields(self, xs, ys):
            f = dict(sf.grid_fields(xs, ys))
            f["sigma_x"] = 1.01 * f["sigma_x"]
            return f

    xs, ys = coarse.axes(GEOM)
    scale = float(np.max(np.abs(sf.grid_fields(xs, ys)["sigma_x"])))
    r_corrupt, _ = equilibrium_residual(Corrupted(), coarse)
    print(f"  corrupted-field residual / scale: {r_corrupt.max_abs / scale:.3e}")
    ok &= r_corrupt.max_abs > 1e-3 * scale

    # the same fields checked against a perturbed Poisson ratio
    class Perturbed:
        geometry = GEOM
        material = Material(E=E_MOD, nu=NU + 0.02)
        grid_fields = sf.grid_fields

    c_corrupt = constitutive_residual(Perturbed(), coarse)
    ok &= max(r.max_abs for r in c_corrupt) > 1e-3 * scale
    _report(3, "physics residuals", ok)


def test_criterion_4_harmonic_layer():
    """Each of the four ratio profiles path B's building blocks are made
    of, times sin(k x) or cos(k x), passes the discrete-Laplacian
    O(step^2) test; the four-series Dirichlet solution matches the FD
    oracle at O(step^2) and the single-mode exact solution within 1e-9
    for any N >= 1."""
    ok = True
    # every block is a ratio profile times a power of +-k, so these fields
    # cover all eight blocks and the two sh(ky)-companions
    k, beta = mode_scalars(2, GEOM)
    for ratio in range(4):
        for trig in (np.sin, np.cos):
            def field(X, Y, ratio=ratio, trig=trig):
                profile = _ratios(beta, Y[:, :1] / H)[1 + ratio]
                return profile * trig(k * X)

            ok &= laplacian_order(field, GEOM, GridSpec(31, 31), GridSpec(63, 63)) >= 1.9

    # the series solution vs the FD oracle, O(step^2) interior agreement;
    # by sine orthogonality the top edge's exact transforms are e_1
    edges = {"f4": lambda x: np.sin(np.pi * x / L)}

    def unit_mode(N):
        return {"f4": np.where(np.arange(1, N + 1) == 1, 1.0, 0.0)}

    errs, spacings = [], []
    for grid in (GridSpec(41, 41), GridSpec(81, 81)):
        X, Y = np.meshgrid(*grid.axes(GEOM))
        diff = (fd_solution(edges, GEOM, grid)[1:-1, 1:-1]
                - series_solution(unit_mode(8), GEOM, X, Y)[1:-1, 1:-1])
        errs.append(float(np.max(np.abs(diff))))
        spacings.append(grid.spacing(GEOM)[0])
    fd_order = math.log(errs[0] / errs[1]) / math.log(spacings[0] / spacings[1])
    print(f"  FD-oracle agreement order: {fd_order:.3f}")
    ok &= fd_order >= 1.9

    # single-mode exact solution, N = 1 and N = 64
    worst = 0.0
    X, Y = np.meshgrid(np.linspace(0, L, 21), np.linspace(0, H, 11))
    exact = np.sin(np.pi * X / L) * np.sinh(np.pi * Y / L) / math.sinh(np.pi * H / L)
    for N in (1, 64):
        worst = max(worst, float(np.max(np.abs(series_solution(unit_mode(N), GEOM, X, Y)
                                                - exact))))
    print(f"  single-mode exact-solution deviation: {worst:.3e}")
    ok &= worst <= 1e-9
    _report(4, "harmonic layer", ok)


def test_criterion_5_shear_typo_regression():
    """The uncorrected closed-form shear leaves a face violation equal to
    sh(b)(ch(b) - sh(b)) in bracket units, reproduced to 1e-12 per mode;
    the corrected form gives exactly zero."""
    ok = True
    worst = 0.0
    for n in range(1, N_MODES + 1):
        b = mode_scalars(n, GEOM)[1]
        unfixed = _uncorrected_shear_face(b, NU, H)
        (corrected,) = mode_kernel("C", n, GEOM, MAT)(1.0, fields=("X",))
        bracket = float(unfixed) * H * (1 - NU) * math.sinh(b) ** 2 / b**2
        reference = -math.expm1(-2.0 * b) / 2.0    # sh(b)(ch(b) - sh(b))
        worst = max(worst, abs(bracket - reference))
        ok &= abs(bracket - reference) <= 1e-12
        ok &= corrected == 0.0
    print(f"  worst bracket deviation from sh(b)(ch(b)-sh(b)): {worst:.3e}")
    _report(5, "shear-formula typo regression", ok)


def test_criterion_6_flat_stamp_coefficients():
    """Closed-form flat-stamp coefficients match piecewise Simpson
    quadrature to 1e-10 for n <= 64."""
    d, a, b = 0.01, 0.6, 1.4
    profile = BoundaryProfile.flat_stamp(center=1.0, half_width=0.4, depth=d)
    ns = np.arange(1, N_MODES + 1)
    closed = (2 * d / (ns * np.pi)) * (np.cos(ns * np.pi * a / L)
                                       - np.cos(ns * np.pi * b / L))
    module_closed = sine_coefficients(profile, GEOM, N_MODES)
    quad = simpson_coefficients(profile, GEOM, N_MODES, 2**16)
    dev = max(float(np.max(np.abs(module_closed - closed))),
              float(np.max(np.abs(quad - closed))))
    print(f"  worst coefficient deviation: {dev:.3e}")
    _report(6, "flat-stamp Fourier layer", dev <= 1e-10)


def test_criterion_7_force_consistency(raised_cosine_series):
    """Analytic resultant equals Simpson quadrature of the contact
    pressure to 1e-8 relative."""
    _, _, sf = raised_cosine_series
    analytic = total_force(sf)
    P = 8192
    xs = np.linspace(0.0, L, P + 1)
    w = np.ones(P + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (L / P) / 3.0
    quad = float(np.sum(w * contact_pressure(sf, xs)))
    rel = abs(analytic - quad) / abs(analytic)
    print(f"  force: analytic {analytic:.12e}, quadrature {quad:.12e}, "
          f"rel diff {rel:.3e}")
    _report(7, "force consistency", rel <= 1e-8)


def test_criterion_8_determinism(tmp_path):
    """Identical configs produce byte-identical output bundles."""
    config_text = """\
[geometry]
l = 2
h = 1

[material]
E = 1
nu = 0.3

[stamp]
kind = raised_cosine
center = 1
half_width = 0.4
depth = 0.01

[solver]
modes = 64
grid = 41x41
verify = true
"""
    cfg = parse_config(config_text)
    run(cfg, output_dir=tmp_path / "a")
    run(cfg, output_dir=tmp_path / "b")
    ok = True
    for name in ("field_grid.csv", "pressure_profile.csv", "summary.txt", "report.txt"):
        ok &= filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
    _report(8, "determinism", ok)
