"""Tests for stamp profiles, their sine coefficients, pressure and force."""
import math

import mpmath as mp
import numpy as np
import pytest

from platestamp import (
    BoundaryCompatibilityError,
    BoundaryProfile,
    DomainError,
    QuadratureSpec,
    assemble_series,
    calibrate_delta_ratio,
    contact_pressure,
    sine_coefficients,
    total_force,
)

from conftest import mode_kernel, mode_scalars

mp.mp.dps = 40

# frozen via mpmath: total force of the unit-amplitude first-mode profile,
# l=2 h=1 nu=0.3: (2 l / pi) * Y_1(eta=1)
FORCE_SINGLE_MODE1 = 3.962666382871058


def test_frozen_force_constant_matches_high_precision():
    b = mp.pi / 2
    nu = mp.mpf("0.3")
    y1 = b * (mp.sinh(b) * mp.cosh(b) + b) / ((1 - nu) * mp.sinh(b) ** 2)
    assert FORCE_SINGLE_MODE1 == pytest.approx(float(4 / mp.pi * y1), rel=1e-15)


class TestSineCoefficients:
    def test_single_mode_orthogonality(self, geom):
        c = sine_coefficients(BoundaryProfile.single_mode(1, depth=1.0), geom, 8)
        assert c[0] == 1.0
        assert np.all(c[1:] == 0.0)

    def test_zero_depth_profile(self, geom):
        c = sine_coefficients(BoundaryProfile.raised_cosine(1.0, 0.4, 0.0), geom, 16)
        assert np.all(c == 0.0)

    def test_flat_stamp_closed_form(self, geom):
        # (2d/(n pi)) (cos(n pi a / l) - cos(n pi b / l)) for support [a, b]
        d, a, b = 0.01, 0.6, 1.4
        profile = BoundaryProfile.flat_stamp(center=1.0, half_width=0.4, depth=d)
        c = sine_coefficients(profile, geom, 64)
        ns = np.arange(1, 65)
        expected = (2 * d / (ns * np.pi)) * (np.cos(ns * np.pi * a / geom.l)
                                             - np.cos(ns * np.pi * b / geom.l))
        assert np.allclose(c, expected, rtol=0, atol=1e-16)

    def test_flat_stamp_quadrature_agreement(self, geom):
        # acceptance-grade check: piecewise Simpson at high resolution
        # reproduces the closed form to 1e-10 for every retained mode
        profile = BoundaryProfile.flat_stamp(center=1.0, half_width=0.4, depth=0.01)
        closed = sine_coefficients(profile, geom, 64)
        quad = sine_coefficients(profile, geom, 64, force_quadrature=True,
                                 quad=QuadratureSpec(panels=2**16))
        assert np.max(np.abs(closed - quad)) < 1e-10

    def test_parabolic_closed_form_vs_quadrature(self, geom):
        profile = BoundaryProfile.parabolic_bump(center=1.0, half_width=0.4, depth=0.01)
        closed = sine_coefficients(profile, geom, 64)
        quad = sine_coefficients(profile, geom, 64, force_quadrature=True,
                                 quad=QuadratureSpec(panels=2**16))
        assert np.max(np.abs(closed - quad)) < 1e-12

    def test_raised_cosine_quadrature_converged(self, geom):
        # default 8N-panel Simpson is converged to ~1e-9 per coefficient
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        base = sine_coefficients(profile, geom, 64)
        fine = sine_coefficients(profile, geom, 64, quad=QuadratureSpec(panels=2**14))
        assert np.max(np.abs(base - fine)) < 1e-9

    def test_tabulated_profile(self, geom):
        # sample a parabolic bump densely; transforms approach the closed form
        ref = BoundaryProfile.parabolic_bump(1.0, 0.4, 0.01)
        xs = np.linspace(0.0, geom.l, 4001)
        tab = BoundaryProfile.tabulated(xs, ref.evaluate(xs, geom))
        c_tab = sine_coefficients(tab, geom, 16)
        c_ref = sine_coefficients(ref, geom, 16)
        assert np.max(np.abs(c_tab - c_ref)) < 1e-7

    def test_flat_stamp_touching_edge_rejected(self, geom):
        profile = BoundaryProfile.flat_stamp(center=0.4, half_width=0.4, depth=0.01)
        with pytest.raises(BoundaryCompatibilityError) as err:
            sine_coefficients(profile, geom, 8)
        assert "V_h(0) = 0" in str(err.value)

    def test_nonzero_edge_value_rejected(self, geom):
        tab = BoundaryProfile.tabulated([0.0, 1.0, 2.0], [0.1, 0.5, 0.0])
        with pytest.raises(BoundaryCompatibilityError):
            sine_coefficients(tab, geom, 8)

    def test_single_mode_beyond_truncation_rejected(self, geom):
        with pytest.raises(DomainError):
            sine_coefficients(BoundaryProfile.single_mode(9), geom, 8)


class TestContactPressure:
    def test_zero_at_lateral_edges(self, geom, mat):
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        sf = assemble_series(sine_coefficients(profile, geom, 32), geom, mat)
        assert contact_pressure(sf, 0.0) == 0.0
        assert abs(contact_pressure(sf, geom.l)) < 1e-14

    def test_single_mode_shape(self, geom, mat):
        sf = assemble_series([1.0], geom, mat)
        xs = np.linspace(0, geom.l, 21)
        p = contact_pressure(sf, xs)
        (y1,) = mode_kernel("B", 1, geom, mat)(1.0, fields=("Y",))
        assert np.allclose(p, y1 * np.sin(np.pi * xs / geom.l), rtol=1e-13, atol=1e-13)

    def test_matches_face_row_of_grid(self, geom, mat):
        # the face sum from the Y profile alone equals sigma_y(x, h) of the
        # assembled grid, up to the order of the mode sum
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        sf = assemble_series(sine_coefficients(profile, geom, 128), geom, mat)
        xs = np.linspace(0, geom.l, 53)
        face = sf.grid_fields(xs, np.array([geom.h]))["sigma_y"][0]
        assert np.max(np.abs(contact_pressure(sf, xs) - face)) <= 1e-13 * np.max(np.abs(face))

    def test_flat_stamp_edge_growth_with_truncation(self, geom, mat):
        # the discontinuous profile has no bounded pressure limit: the max
        # grows monotonically as more modes are retained
        profile = BoundaryProfile.flat_stamp(1.0, 0.4, 0.01)
        xs = np.linspace(0, geom.l, 801)
        maxima = []
        for N in (16, 32, 64, 128):
            sf = assemble_series(sine_coefficients(profile, geom, N), geom, mat)
            maxima.append(np.max(np.abs(contact_pressure(sf, xs))))
        assert maxima[0] < maxima[1] < maxima[2] < maxima[3]

    def test_outside_face_rejected(self, geom, mat):
        sf = assemble_series([1.0], geom, mat)
        with pytest.raises(DomainError):
            contact_pressure(sf, geom.l + 0.1)

    @pytest.mark.parametrize("x", [np.nan, [0.5, np.nan], np.array(np.nan), np.inf])
    def test_non_finite_x_rejected(self, geom, mat, x):
        # NaN fails both range comparisons, so it needs its own check
        sf = assemble_series([1.0], geom, mat)
        with pytest.raises(DomainError, match="non-finite"):
            contact_pressure(sf, x)

    @pytest.mark.parametrize("x", [0.7, np.float64(0.7), np.array(0.7)])
    def test_zero_dim_input_returns_float(self, geom, mat, x):
        sf = assemble_series([1.0, 0.5], geom, mat)
        p = contact_pressure(sf, x)
        assert type(p) is float
        assert p == contact_pressure(sf, np.array([0.7]))[0]


class TestTotalForce:
    def test_zero_profile(self, geom, mat):
        sf = assemble_series([0.0, 0.0], geom, mat)
        assert total_force(sf) == 0.0

    def test_even_mode_integrates_to_zero(self, geom, mat):
        sf = assemble_series([0.0, 1.0], geom, mat)
        assert total_force(sf) == 0.0

    def test_single_mode_value(self, geom, mat):
        sf = assemble_series([1.0], geom, mat)
        assert total_force(sf) == pytest.approx(FORCE_SINGLE_MODE1, rel=1e-13)

    def test_matches_pressure_quadrature(self, geom, mat):
        # analytic odd-mode sum vs composite Simpson of the pressure profile
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        sf = assemble_series(sine_coefficients(profile, geom, 64), geom, mat)
        analytic = total_force(sf)
        P = 8192
        xs = np.linspace(0, geom.l, P + 1)
        w = np.ones(P + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (geom.l / P) / 3.0
        quad = float(np.sum(w * contact_pressure(sf, xs)))
        assert quad == pytest.approx(analytic, rel=1e-8)


def per_mode_face_sums(sf, xs):
    """Pressure at ``xs`` and total force summed mode by mode in mode order,
    each mode's face value Y(1) from its own kernel call."""
    geom, mat = sf.geometry, sf.material
    rho = calibrate_delta_ratio(geom, mat)
    pressure, force = np.zeros(xs.shape), 0.0
    for n, c in enumerate(sf.c[:, 0].tolist(), start=1):
        if c == 0.0:
            continue
        (y1,) = mode_kernel(sf.path.value, n, geom, mat, rho=rho)(1.0, fields=("Y",))
        pressure += c * (float(y1) * np.sin(mode_scalars(n, geom)[0] * xs))
        if n % 2:
            force += c * float(y1) * 2.0 * geom.l / (n * math.pi)
    return pressure, force


class TestFaceReaders:
    @pytest.mark.parametrize("path", ["A", "B", "C"])
    def test_equal_per_mode_kernel_sum(self, geom, mat, path):
        # bit for bit, with a zero coefficient among the odd modes
        coeffs = sine_coefficients(BoundaryProfile.raised_cosine(0.9, 0.4, 0.01), geom, 37)
        coeffs[4] = 0.0
        sf = assemble_series(coeffs, geom, mat, path=path)
        xs = np.linspace(0.0, geom.l, 29)
        pressure, force = per_mode_face_sums(sf, xs)
        assert contact_pressure(sf, xs).tobytes() == pressure.tobytes()
        assert total_force(sf) == force
        assert force != 0.0


class TestFieldStructure:
    def test_displacement_reproduction_bounded_by_truncation(self, geom, mat):
        # |v(x,h) - V_h(x)/G| is bounded by the measured sine-truncation error
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        N = 64
        coeffs = sine_coefficients(profile, geom, N)
        sf = assemble_series(coeffs, geom, mat)
        xs = np.linspace(0, geom.l, 201)
        ns = np.arange(1, N + 1)
        recon = np.einsum("n,np->p", coeffs, np.sin(np.outer(ns, xs) * np.pi / geom.l))
        trunc_err = np.max(np.abs(recon - profile.evaluate(xs, geom)))
        v_face = sf.grid_fields(xs, np.array([geom.h]))["v"][0]
        face_err = np.max(np.abs(v_face * mat.G - profile.evaluate(xs, geom)))
        assert face_err <= trunc_err * (1 + 1e-9) + 1e-15

    def test_symmetry_about_center(self, geom, mat):
        # symmetric profile about l/2: v and sigma_y symmetric, u antisymmetric
        profile = BoundaryProfile.raised_cosine(geom.l / 2, 0.4, 0.01)
        sf = assemble_series(sine_coefficients(profile, geom, 48), geom, mat)
        ys = np.linspace(0, geom.h, 7)
        xl = np.linspace(0.1, 0.9, 9)
        fl = sf.grid_fields(xl, ys)
        fr = sf.grid_fields(geom.l - xl, ys)
        assert np.allclose(fl["v"], fr["v"], atol=1e-13)
        assert np.allclose(fl["sigma_y"], fr["sigma_y"], atol=1e-13)
        assert np.allclose(fl["u"], -fr["u"], atol=1e-13)

    def test_profile_factories_validate(self):
        with pytest.raises(DomainError):
            BoundaryProfile.raised_cosine(1.0, -0.1, 0.01)
        with pytest.raises(DomainError):
            BoundaryProfile.single_mode(0)
        with pytest.raises(DomainError):
            BoundaryProfile.tabulated([0.0, 0.0, 1.0], [0, 1, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("factory,args,name", [
        ("single_mode", {"mode": 1, "depth": 1.0}, "mode"),
        ("single_mode", {"mode": 1, "depth": 1.0}, "depth"),
        *((kind, {"center": 1.0, "half_width": 0.5, "depth": 0.01}, name)
          for kind in ("raised_cosine", "parabolic_bump", "flat_stamp")
          for name in ("center", "half_width", "depth")),
        ("tabulated", {"xs": [0.0, 1.0, 2.0], "values": [0.0, 1.0, 0.0]}, "xs"),
        ("tabulated", {"xs": [0.0, 1.0, 2.0], "values": [0.0, 1.0, 0.0]}, "values"),
    ])
    def test_factories_reject_non_finite(self, factory, args, name, bad):
        # a NaN slips past every ordering check and solved to an all-zero field
        args = dict(args)
        if isinstance(args[name], list):
            args[name] = [args[name][0], bad, args[name][2]]
        else:
            args[name] = bad
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            getattr(BoundaryProfile, factory)(**args)
