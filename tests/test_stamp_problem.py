"""Tests for stamp profiles, their sine coefficients, pressure and force."""
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from platestamp import (
    BoundaryCompatibilityError,
    BoundaryProfile,
    DomainError,
    Geometry,
    assemble_series,
    contact_pressure,
    sine_coefficients,
    total_force,
)
from platestamp import stamp_problem
from platestamp.stamp_problem import sine_transform

from conftest import mode_kernel, mode_scalars, simpson_coefficients

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
        quad = simpson_coefficients(profile, geom, 64, 2**16)
        assert np.max(np.abs(closed - quad)) < 1e-10

    def test_parabolic_closed_form_vs_quadrature(self, geom):
        profile = BoundaryProfile.parabolic_bump(center=1.0, half_width=0.4, depth=0.01)
        closed = sine_coefficients(profile, geom, 64)
        quad = simpson_coefficients(profile, geom, 64, 2**16)
        assert np.max(np.abs(closed - quad)) < 1e-12

    def test_raised_cosine_quadrature_converged(self, geom):
        # default 8N-panel Simpson is converged to ~1e-9 per coefficient
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        base = sine_coefficients(profile, geom, 64)
        fine = simpson_coefficients(profile, geom, 64, 2**14)
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
        for center, half_width, edge in [
            (0.4, 0.4, "V_h(0) = 0"),
            (0.3, 0.5, "V_h(0) = 0"),
            # 1.7 + 0.3 rounds to l while |l - 1.7| rounds above 0.3: the
            # corner value is read on the same support as the breakpoints
            (1.7, 0.3, "V_h(l) = 0"),
            (1.8, 0.3, "V_h(l) = 0"),
        ]:
            profile = BoundaryProfile.flat_stamp(center, half_width, depth=0.01)
            with pytest.raises(BoundaryCompatibilityError) as err:
                sine_coefficients(profile, geom, 8)
            assert edge in str(err.value)

    def test_flat_stamp_support_is_closed(self, geom):
        profile = BoundaryProfile.flat_stamp(center=1.7, half_width=0.3, depth=0.01)
        lo, hi = profile.breakpoints(geom)
        assert profile.evaluate(np.array([lo, hi]), geom).tolist() == [0.01, 0.01]
        assert profile.evaluate(np.nextafter(lo, 0.0), geom) == 0.0

    @pytest.mark.parametrize("profile", [
        BoundaryProfile.raised_cosine(2.5, 0.5, 0.01),
        BoundaryProfile.parabolic_bump(3.5, 0.5, 0.01),
        BoundaryProfile.flat_stamp(2.5, 0.5, 0.01),
        BoundaryProfile.tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.01]),
        BoundaryProfile.tabulated([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
    ], ids=["raised_cosine-at-l", "parabolic_bump-beyond-l", "flat_stamp-at-l",
            "tabulated-beyond-l", "tabulated-zero"])
    def test_stamp_off_the_face_rejected(self, geom, profile):
        # each would integrate to all-zero or off-face coefficients
        assert not profile.touches_face(geom)
        with pytest.raises(DomainError, match="untouched"):
            sine_coefficients(profile, geom, 8)

    @pytest.mark.parametrize("profile", [
        BoundaryProfile.single_mode(3, 0.0),
        BoundaryProfile.raised_cosine(1.0, 0.4, 0.0),
        BoundaryProfile.raised_cosine(2.3, 0.5, 0.01),
        BoundaryProfile.parabolic_bump(1.3, 0.5, 0.01),
        BoundaryProfile.flat_stamp(0.8, 0.3, 0.01),
        BoundaryProfile.tabulated([0.0, 1.0, 2.0], [0.0, 0.01, 0.0]),
        BoundaryProfile.tabulated([-1.0, 3.0], [0.01, 0.01]),
    ], ids=["single_mode-zero-depth", "raised_cosine-zero-depth", "raised_cosine-over-l",
            "parabolic_bump", "flat_stamp", "tabulated", "tabulated-no-knot-on-face"])
    def test_stamp_on_the_face_touches(self, geom, profile):
        # a bump's support counts whatever its depth; a tabulated profile
        # counts where it is nonzero, between knots too
        assert profile.touches_face(geom)

    def test_nonzero_edge_value_rejected(self, geom):
        tab = BoundaryProfile.tabulated([0.0, 1.0, 2.0], [0.1, 0.5, 0.0])
        with pytest.raises(BoundaryCompatibilityError):
            sine_coefficients(tab, geom, 8)

    @pytest.mark.parametrize("bad", [2.5, 3.5, np.float64(1.5), 0, -2])
    @pytest.mark.parametrize("call", [
        lambda geom, n: BoundaryProfile.single_mode(n),
        lambda geom, n: sine_coefficients(BoundaryProfile.raised_cosine(1.0, 0.4, 0.01),
                                          geom, n),
    ], ids=["single_mode", "sine_coefficients"])
    def test_non_integer_mode_number_rejected(self, geom, call, bad):
        # a fractional mode number used to be truncated or rounded up
        with pytest.raises(DomainError, match=f"must be a whole number >= 1, got {bad}$"):
            call(geom, bad)

    @pytest.mark.parametrize("n", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_integral_mode_numbers_accepted(self, geom, n):
        assert BoundaryProfile.single_mode(n) == BoundaryProfile.single_mode(3)
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        got = sine_coefficients(profile, geom, n)
        assert got.tobytes() == sine_coefficients(profile, geom, 3).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "4", None])
    def test_non_number_truncation_rejected(self, geom, bad):
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        with pytest.raises(DomainError, match=f"^N must be a whole number >= 1, got {bad}$"):
            sine_coefficients(profile, geom, bad)

    def test_single_mode_beyond_truncation_rejected(self, geom):
        with pytest.raises(DomainError):
            sine_coefficients(BoundaryProfile.single_mode(9), geom, 8)


def _simpson_pieces(f, length, subintervals, breakpoints):
    """The pieces of sine_transform's composite Simpson rule: per piece,
    its ends, its subinterval count, its abscissae and its weighted
    samples, every piece included."""
    pts = sorted({0.0, float(length), *(float(b) for b in breakpoints
                                        if 0.0 < float(b) < length)})
    for lo, hi in zip(pts[:-1], pts[1:]):
        width = hi - lo
        p = max(2, int(round(subintervals * width / length)))
        p += p % 2
        t = np.linspace(lo, hi, p + 1)
        w = np.ones(p + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= (width / p) / 3.0
        t_eval = t.copy()
        t_eval[0] += 1e-12 * width
        t_eval[-1] -= 1e-12 * width
        ft = np.asarray(f(t_eval), dtype=float)
        if ft.shape != t.shape:
            ft = np.broadcast_to(ft, t.shape)
        yield lo, hi, p, t, ft * w


def _unskipped_sine_transform(f, length, ns, subintervals, breakpoints=()):
    """Reference for sine_transform: the same angle-table sums, with every
    piece added, including pieces where the data is zero."""
    phi = np.asarray(ns) * np.pi / length
    total = np.zeros(len(ns))
    for lo, hi, p, _, samples in _simpson_pieces(f, length, subintervals, breakpoints):
        R = math.isqrt(p + 1)
        Q = -(-(p + 1) // R)
        g = np.zeros(Q * R)
        g[:p + 1] = samples
        g = g.reshape(Q, R)
        s = (hi - lo) / p
        a = np.outer(phi, lo + s * np.arange(R))
        b = np.outer(phi, s * R * np.arange(Q))
        gs = np.einsum("qr,nr->nq", g, np.sin(a), optimize=False)
        gc = np.einsum("qr,nr->nq", g, np.cos(a), optimize=False)
        total += (np.einsum("nq,nq->n", gs, np.cos(b), optimize=False)
                  + np.einsum("nq,nq->n", gc, np.sin(b), optimize=False))
    return (2.0 / length) * total


def _direct_sine_transform(f, length, ns, subintervals, breakpoints=()):
    """The same Simpson rule summed over an N x P table of
    sin(n pi t / length), every piece included."""
    total = np.zeros(len(ns))
    for _, _, _, t, samples in _simpson_pieces(f, length, subintervals, breakpoints):
        total += np.einsum("p,np->n", samples, np.sin(np.outer(ns, t) * np.pi / length))
    return (2.0 / length) * total


#: stamps whose quadrature has pieces where the data is zero: the raised
#: cosine, and the bumps and tabulated stamps on either side of their
#: support
_SUPPORTED_STAMPS = {
    "raised_cosine": BoundaryProfile.raised_cosine(1.0, 0.4, 0.01),
    "raised_cosine_off_centre": BoundaryProfile.raised_cosine(0.3, 0.2, -0.02),
    "parabolic_bump": BoundaryProfile.parabolic_bump(1.3, 0.5, 0.01),
    "flat_stamp": BoundaryProfile.flat_stamp(0.8, 0.3, 0.01),
    "tabulated": BoundaryProfile.tabulated([0.0, 0.4, 0.7, 1.0, 1.2, 1.6, 2.0],
                                           [0.0, 0.0, 0.004, 0.01, 0.003, 0.0, 0.0]),
}


class TestSineTransform:
    def test_linear_ramp_edge_transform(self, geom):
        # edge data f(y) = y/h: raw transforms -2(-1)^n/(n pi), with
        # a_1 = 2/pi
        h = geom.h
        ns = np.arange(1, 33)
        closed = -2.0 * np.where(ns % 2 == 0, 1.0, -1.0) / (ns * np.pi)
        quad = sine_transform(lambda t: t / h, h, ns, subintervals=8192)
        assert quad[0] == pytest.approx(float(2 / mp.pi), abs=1e-12)
        assert np.max(np.abs(closed - quad)) < 1e-10

    @pytest.mark.parametrize("N", [64, 256])
    @pytest.mark.parametrize("stamp", sorted(_SUPPORTED_STAMPS))
    def test_zero_pieces_keep_every_bit(self, geom, stamp, N):
        # skipping a piece where the data is zero leaves each coefficient
        # bit for bit as the sum over all pieces gives it
        profile = _SUPPORTED_STAMPS[stamp]
        # the first piece lies left of the support, so one piece is skipped
        assert not np.any(profile.evaluate(np.linspace(0.0, 0.1, 9), geom))
        got = simpson_coefficients(profile, geom, N, 8 * N)
        want = _unskipped_sine_transform(lambda t: profile.evaluate(t, geom), geom.l,
                                         np.arange(1, N + 1), 8 * N,
                                         profile.breakpoints(geom))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("N", [64, 256, 1024])
    @pytest.mark.parametrize("stamp,closed_form", [
        ("raised_cosine", False), ("tabulated", False),
        ("flat_stamp", True), ("parabolic_bump", True),
    ])
    def test_angle_tables_match_direct_table_sum(self, geom, stamp, closed_form, N):
        # the verify-desk stamp and its kin: supports [0.5, 1.5] and knots
        # at multiples of 0.5; flat and parabolic stamps have closed forms,
        # so they reach the quadrature through ``simpson_coefficients``
        profile = {
            "raised_cosine": BoundaryProfile.raised_cosine(1.0, 0.5, 0.01),
            "tabulated": BoundaryProfile.tabulated([0.0, 0.5, 1.0, 1.5, 2.0],
                                                   [0.0, 0.004, 0.01, 0.004, 0.0]),
            "flat_stamp": BoundaryProfile.flat_stamp(1.0, 0.5, 0.01),
            "parabolic_bump": BoundaryProfile.parabolic_bump(1.0, 0.5, 0.01),
        }[stamp]
        got = (simpson_coefficients(profile, geom, N, 8 * N) if closed_form
               else sine_coefficients(profile, geom, N))
        want = _direct_sine_transform(lambda t: profile.evaluate(t, geom), geom.l,
                                      np.arange(1, N + 1), 8 * N, profile.breakpoints(geom))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("N", [64, 256, 1024])
    @pytest.mark.parametrize("stamp", sorted(_SUPPORTED_STAMPS))
    def test_angle_tables_match_direct_table_sum_inexact_breakpoints(self, geom, stamp, N):
        # breakpoints such as 0.6 and 1.4 make every abscissa inexact; at
        # N = 1024 the direct table sum itself is then up to 1.4e-14 of
        # max|c| off an 80-bit long-double sum of the same rule (measured on
        # x86-64), and the two float sums differ by as much (up to 1.4e-14)
        profile = _SUPPORTED_STAMPS[stamp]
        got = simpson_coefficients(profile, geom, N, 8 * N)
        want = _direct_sine_transform(lambda t: profile.evaluate(t, geom), geom.l,
                                      np.arange(1, N + 1), 8 * N, profile.breakpoints(geom))
        tol = 1e-14 if N <= 256 else 2e-14
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    def test_quadrature_memory_grows_as_n_root_p(self, geom):
        # the angle tables are N x sqrt(P); an N x P table of float64 at
        # N = 2048 and P = 8 N would alone take 256 MiB
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        tracemalloc.start()
        try:
            sine_coefficients(profile, geom, 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_all_zero_data_transforms_to_positive_zero(self, geom):
        got = sine_transform(lambda t: np.zeros_like(t), geom.l, np.arange(1, 9), 64, (0.5,))
        assert got.tobytes() == np.zeros(8).tobytes()

    @pytest.mark.parametrize("profile,closed", [
        (BoundaryProfile.single_mode(2), True),
        (BoundaryProfile.flat_stamp(0.8, 0.3, 0.01), True),
        (BoundaryProfile.parabolic_bump(1.3, 0.5, 0.01), True),
        (_SUPPORTED_STAMPS["raised_cosine"], False),
        (_SUPPORTED_STAMPS["tabulated"], False),
    ], ids=["single_mode", "flat_stamp", "parabolic_bump", "raised_cosine", "tabulated"])
    def test_quadrature_goes_through_module_global(self, geom, monkeypatch, profile, closed):
        # sine_coefficients looks sine_transform up in its module on every
        # call, so a wrapper set there (perfbench/spans.py sets one) sees each
        # quadrature: 8 N subintervals unless the kind has a closed form
        calls = []

        def recording(f, length, ns, subintervals, breakpoints=()):
            calls.append(subintervals)
            return sine_transform(f, length, ns, subintervals, breakpoints)

        monkeypatch.setattr(stamp_problem, "sine_transform", recording)
        got = sine_coefficients(profile, geom, 16)
        assert calls == ([] if closed else [128])
        if not closed:
            assert got.tobytes() == simpson_coefficients(profile, geom, 16, 128).tobytes()


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

    @pytest.mark.parametrize("h", [1e5, 1e10])
    def test_thick_plate_path_c_force_matches_path_b(self, mat, h):
        # the README stamp: path C's amplitude is the sine coefficient, so
        # its force lands on path B's; scaled by mode 1's least-squares
        # ratio, it was 2.7e-7 off at h = 1e10
        geom = Geometry(2.0, h)
        coeffs = sine_coefficients(BoundaryProfile.raised_cosine(1.0, 0.4, 0.01), geom, 64)
        force_b, force_c = (total_force(assemble_series(coeffs, geom, mat, path=p))
                            for p in "BC")
        assert abs(force_c - force_b) <= 1e-12 * abs(force_b)

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
    pressure, force = np.zeros(xs.shape), 0.0
    for n, c in enumerate(sf.c[:, 0].tolist(), start=1):
        if c == 0.0:
            continue
        (y1,) = mode_kernel(sf.path.value, n, geom, mat)(1.0, fields=("Y",))
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

    @pytest.mark.parametrize("factory,args,name", [
        ("single_mode", ("4",), "mode"),
        ("single_mode", (None,), "mode"),
        ("raised_cosine", ("1", 0.4, 0.01), "center"),
        ("tabulated", (["a"], [1]), "xs"),
    ], ids=["mode-str", "mode-none", "center-str", "xs-str"])
    def test_factories_reject_non_numbers(self, factory, args, name):
        # as sine_coefficients does for N = "4": a DomainError naming the
        # parameter, not the TypeError or ValueError of a conversion
        with pytest.raises(DomainError, match=f"^{name} must be finite and real, got "):
            getattr(BoundaryProfile, factory)(*args)

    @pytest.mark.parametrize("center,half_width", [(1.0, 1e-17), (1.0, 1e-16), (5e199, 0.4)],
                             ids=["both-sides", "one-side", "huge-center"])
    @pytest.mark.parametrize("kind", ["raised_cosine", "flat_stamp", "parabolic_bump"])
    def test_support_below_resolution_rejected(self, kind, center, half_width):
        # center + half_width rounds to center, and so does center -
        # half_width but in the one-side case: every coefficient came out 0
        assert center + half_width == center
        with pytest.raises(DomainError, match=f"^half_width {half_width} is below the float "):
            getattr(BoundaryProfile, kind)(center, half_width, 0.01)

    @pytest.mark.parametrize("kind", ["raised_cosine", "flat_stamp", "parabolic_bump"])
    def test_narrowest_support_accepted(self, geom, kind):
        # both ends one ulp or more away from the center: a nonzero stamp
        profile = getattr(BoundaryProfile, kind)(1.0, 3e-16, 0.01)
        lo, hi = profile.breakpoints(geom)
        assert lo < 1.0 < hi

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
