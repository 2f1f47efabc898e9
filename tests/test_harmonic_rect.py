"""Tests for the four-series Dirichlet solver on the rectangle."""
import math

import mpmath as mp
import numpy as np
import pytest

from platestamp import (
    BoundaryProfile,
    DirichletData,
    QuadratureError,
    QuadratureSpec,
    evaluate_harmonic,
    sine_coefficients,
    solve_dirichlet,
)
from platestamp.core import DomainError
from platestamp.harmonic_rect import sine_transform

mp.mp.dps = 40


def _top_sine_data(geom, exact=True):
    data = DirichletData(f4=lambda x: np.sin(np.pi * x / geom.l))
    if exact:
        # sine orthogonality: the transform is exactly the unit vector e_1
        data = DirichletData(
            f4=data.f4,
            exact={"f4": lambda ns: np.where(ns == 1, 1.0, 0.0)},
        )
    return data


class TestCoefficients:
    def test_single_mode_exact_transform(self, geom):
        series = solve_dirichlet(_top_sine_data(geom), geom, N=8)
        assert series.D[0] == 1.0
        assert np.all(series.D[1:] == 0.0)
        assert np.all(series.A == 0.0) and np.all(series.B == 0.0) and np.all(series.C == 0.0)

    def test_single_mode_quadrature(self, geom):
        # generous panel count: the quadrature route must recover orthogonality
        series = solve_dirichlet(_top_sine_data(geom, exact=False), geom, N=8,
                                 quad=QuadratureSpec(panels=2048))
        assert series.D[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(series.D[1:])) < 1e-10

    def test_all_zero_data(self, geom):
        series = solve_dirichlet(DirichletData(), geom, N=16)
        for arr in (series.A, series.B, series.C, series.D):
            assert np.all(arr == 0.0)
        assert evaluate_harmonic(series, 1.0, 0.5) == 0.0

    def test_linear_ramp_edge_transform(self, geom):
        # left-edge data f1(y) = y/h: raw transforms -2(-1)^n/(n pi), with
        # a_1 = 2/pi
        h = geom.h
        ns = np.arange(1, 33)
        closed = -2.0 * np.where(ns % 2 == 0, 1.0, -1.0) / (ns * np.pi)
        quad = sine_transform(lambda t: t / h, h, ns, subintervals=8192)
        assert quad[0] == pytest.approx(float(2 / mp.pi), abs=1e-12)
        assert np.max(np.abs(closed - quad)) < 1e-10

    def test_non_finite_quadrature_reports_edge(self, geom):
        bad = DirichletData(f3=lambda x: np.where(x > 0.5, np.nan, 0.0))
        with pytest.raises(QuadratureError) as err:
            solve_dirichlet(bad, geom, N=4)
        assert err.value.edge == "f3"

    def test_rejects_bad_truncation(self, geom):
        with pytest.raises(DomainError):
            solve_dirichlet(DirichletData(), geom, N=0)


class TestEvaluation:
    def test_single_mode_exact_solution(self, geom):
        # the one-mode top-edge problem has the closed solution
        # sin(pi x / l) sh(pi y / l) / sh(pi h / l)
        series = solve_dirichlet(_top_sine_data(geom), geom, N=8)
        for x, y in [(0.3, 0.2), (1.0, 0.5), (1.7, 0.95), (0.5, 1.0)]:
            expected = float(mp.sin(mp.pi * x / geom.l) * mp.sinh(mp.pi * y / geom.l)
                             / mp.sinh(mp.pi * geom.h / geom.l))
            assert evaluate_harmonic(series, x, y) == pytest.approx(expected, abs=1e-14)

    def test_corners_zero_for_zero_data(self, geom):
        series = solve_dirichlet(DirichletData(), geom, N=4)
        for corner in [(0, 0), (geom.l, 0), (0, geom.h), (geom.l, geom.h)]:
            assert evaluate_harmonic(series, *corner) == 0.0

    def test_bottom_edge_zero_when_f3_zero(self, geom):
        data = DirichletData(
            f1=lambda y: np.sin(np.pi * y / geom.h),
            f4=lambda x: np.sin(np.pi * x / geom.l) ** 2 * 0.7,
        )
        series = solve_dirichlet(data, geom, N=32)
        xs = np.linspace(0, geom.l, 7)
        vals = evaluate_harmonic(series, xs, np.zeros_like(xs))
        assert np.max(np.abs(vals)) == 0.0  # every term carries sin(0) or sh(0)

    def test_boundary_reproduction(self, geom):
        # on each edge the series equals the sine reconstruction built from
        # its own stored transforms
        data = DirichletData(
            f1=lambda y: np.sin(np.pi * y / geom.h) * 0.5,
            f2=lambda y: (y / geom.h) * (1 - y / geom.h),
            f3=lambda x: np.sin(2 * np.pi * x / geom.l),
            f4=lambda x: np.sin(np.pi * x / geom.l) ** 3,
        )
        N = 64
        series = solve_dirichlet(data, geom, N=N)
        ns = np.arange(1, N + 1)

        ys = np.linspace(0, geom.h, 23)
        recon_f1 = np.einsum("n,np->p", series.A, np.sin(np.outer(ns, ys) * np.pi / geom.h))
        got_f1 = evaluate_harmonic(series, np.zeros_like(ys), ys)
        assert np.max(np.abs(got_f1 - recon_f1)) < 1e-9

        xs = np.linspace(0, geom.l, 23)
        recon_f4 = np.einsum("n,np->p", series.D, np.sin(np.outer(ns, xs) * np.pi / geom.l))
        got_f4 = evaluate_harmonic(series, xs, np.full_like(xs, geom.h))
        assert np.max(np.abs(got_f4 - recon_f4)) < 1e-9

    def test_outside_domain_raises(self, geom):
        series = solve_dirichlet(DirichletData(), geom, N=2)
        with pytest.raises(DomainError):
            evaluate_harmonic(series, -0.1, 0.5)
        with pytest.raises(DomainError):
            evaluate_harmonic(series, 0.5, geom.h + 0.1)

    def test_interior_is_harmonic(self, geom):
        # discrete Laplacian of the evaluated series drops at O(step^2)
        data = DirichletData(f4=lambda x: np.sin(np.pi * x / geom.l) ** 2)
        series = solve_dirichlet(data, geom, N=32)

        def lap(step):
            x0, y0 = 0.9, 0.6
            xs = x0 + step * np.array([-1, 0, 1, 0, 0])
            ys = y0 + step * np.array([0, 0, 0, -1, 1])
            v = evaluate_harmonic(series, xs, ys)
            return abs((v[0] + v[2] + v[3] + v[4] - 4 * v[1]) / step**2)

        r1, r2 = lap(2e-3), lap(1e-3)
        assert math.log2(r1 / r2) > 1.9


def _stamp_face_data(profile, geom, exact=False, **edges):
    """Dirichlet data of the stamp's face block: the profile on the top
    edge, split at its breakpoints, optionally with its closed-form
    transform; ``edges`` adds data on other edges."""
    extra = {"exact": {"f4": lambda ns: profile.exact_transform(ns, geom)}} if exact else {}
    return DirichletData(f4=lambda t: profile.evaluate(t, geom),
                         breakpoints={"f4": profile.breakpoints(geom)}, **edges, **extra)


class TestStampBlockCoefficients:
    """The stamp's face displacement as Dirichlet data on the rectangle."""

    def test_clamped_corners_kill_three_series(self, geom):
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        series = solve_dirichlet(_stamp_face_data(profile, geom), geom, N=32)
        assert np.all(series.A == 0.0)
        assert np.all(series.B == 0.0)
        assert np.all(series.C == 0.0)
        assert np.any(series.D != 0.0)

    def test_single_mode_profile(self, geom):
        # the profile's closed-form transform serves as the edge's exact one
        profile = BoundaryProfile.single_mode(1, depth=1.0)
        series = solve_dirichlet(_stamp_face_data(profile, geom, exact=True), geom, N=8)
        assert series.D[0] == 1.0
        assert np.all(series.D[1:] == 0.0)

    def test_matches_sine_coefficients(self, geom):
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        series = solve_dirichlet(_stamp_face_data(profile, geom), geom, N=64)
        direct = sine_coefficients(profile, geom, N=64)
        assert np.max(np.abs(series.D - direct)) < 1e-12

    def test_ramp_edges_present_when_corners_loaded(self, geom):
        # corner values 0.25 and -0.5 carried down the lateral edges as
        # linear ramps (y/h) * value
        profile = BoundaryProfile.single_mode(1, depth=1.0)
        data = _stamp_face_data(profile, geom, exact=True,
                                f1=lambda y: 0.25 * y / geom.h,
                                f2=lambda y: -0.5 * y / geom.h)
        series = solve_dirichlet(data, geom, N=8, quad=QuadratureSpec(panels=8192))
        assert series.A[0] == pytest.approx(0.25 * 2 / math.pi, rel=1e-10)
        assert series.B[0] == pytest.approx(-0.5 * 2 / math.pi, rel=1e-10)
        # the reproduced edge data is the linear ramp (y/h) * corner value
        ys = np.linspace(0, geom.h, 9)
        ns = np.arange(1, 9)
        recon = np.einsum("n,np->p", series.A, np.sin(np.outer(ns, ys) * np.pi / geom.h))
        # N-term sine reconstruction of the ramp, from the same transforms:
        # just confirm it converges toward 0.25 * y/h away from the jump at y=h
        mid = slice(1, 5)
        assert np.max(np.abs(recon[mid] - 0.25 * ys[mid] / geom.h)) < 0.02
