"""Tests for the rectangle's four-series Laplace solution and the 5-point
finite-difference oracle, against closed forms, each other and the stamp
pipeline."""
import math

import mpmath as mp
import numpy as np
import pytest

from platestamp import BoundaryProfile, Geometry, GridSpec, sine_coefficients

from laplace_oracles import (
    fd_solution,
    field_laplacian,
    laplacian_order,
    series_solution,
    series_transforms,
)

mp.mp.dps = 40


def _top_sine(geom):
    return {"f4": lambda x: np.sin(np.pi * x / geom.l)}


def _unit_mode(N):
    """Exact transforms of the top-edge data sin(pi x / l): by sine
    orthogonality, the unit vector e_1."""
    return {"f4": np.where(np.arange(1, N + 1) == 1, 1.0, 0.0)}


def _grid_pair_order(errs, grids, geom):
    spacings = [g.spacing(geom)[0] for g in grids]
    return math.log(errs[0] / errs[1]) / math.log(spacings[0] / spacings[1])


class TestTransforms:
    def test_single_mode_quadrature(self, geom):
        # generous panel count: the quadrature route must recover orthogonality
        transforms = series_transforms(_top_sine(geom), geom, 8, panels=2048)
        assert list(transforms) == ["f4"]
        assert transforms["f4"][0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(transforms["f4"][1:])) < 1e-10

    def test_all_zero_data(self, geom):
        assert series_transforms({}, geom, 16) == {}
        assert series_solution({}, geom, 1.0, 0.5) == 0.0


class TestEvaluation:
    def test_single_mode_exact_solution(self, geom):
        # the one-mode top-edge problem has the closed solution
        # sin(pi x / l) sh(pi y / l) / sh(pi h / l)
        for x, y in [(0.3, 0.2), (1.0, 0.5), (1.7, 0.95), (0.5, 1.0)]:
            expected = float(mp.sin(mp.pi * x / geom.l) * mp.sinh(mp.pi * y / geom.l)
                             / mp.sinh(mp.pi * geom.h / geom.l))
            assert series_solution(_unit_mode(8), geom, x, y) == \
                pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("edge", ["f1", "f2", "f3", "f4"])
    def test_single_mode_on_each_edge(self, geom, edge):
        # data sin(pi t / length) on one edge alone: sin(pi t / length) times
        # sh(pi d / length) / sh(pi w / length), with d the distance from the
        # opposite edge and w the width across; checked inside, on the loaded
        # edge and on the three zero edges
        l, h = mp.mpf(geom.l), mp.mpf(geom.h)
        along, length, depth, width = {
            "f1": (lambda x, y: y, h, lambda x, y: l - x, l),
            "f2": (lambda x, y: y, h, lambda x, y: x, l),
            "f3": (lambda x, y: x, l, lambda x, y: h - y, h),
            "f4": (lambda x, y: x, l, lambda x, y: y, h),
        }[edge]
        transforms = {edge: _unit_mode(8)["f4"]}
        for x, y in [(0.3, 0.2), (1.0, 0.5), (1.7, 0.95), (0.0, 0.4), (2.0, 0.7),
                     (0.6, 0.0), (1.3, 1.0)]:
            k = mp.pi / length
            expected = float(mp.sin(k * along(x, y)) * mp.sinh(k * depth(x, y))
                             / mp.sinh(k * width))
            assert series_solution(transforms, geom, x, y) == \
                pytest.approx(expected, abs=1e-14)

    def test_corners_zero_for_zero_data(self, geom):
        zero = {edge: np.zeros(4) for edge in ("f1", "f2", "f3", "f4")}
        for corner in [(0, 0), (geom.l, 0), (0, geom.h), (geom.l, geom.h)]:
            assert series_solution(zero, geom, *corner) == 0.0

    def test_bottom_edge_zero_when_f3_zero(self, geom):
        edges = {"f1": lambda y: np.sin(np.pi * y / geom.h),
                 "f4": lambda x: np.sin(np.pi * x / geom.l) ** 2 * 0.7}
        xs = np.linspace(0, geom.l, 7)
        vals = series_solution(series_transforms(edges, geom, 32), geom, xs, np.zeros_like(xs))
        assert np.max(np.abs(vals)) == 0.0  # every term carries sin(0) or sh(0)

    def test_boundary_reproduction(self, geom):
        # on each edge the series equals the sine reconstruction built from
        # its own stored transforms
        edges = {"f1": lambda y: np.sin(np.pi * y / geom.h) * 0.5,
                 "f2": lambda y: (y / geom.h) * (1 - y / geom.h),
                 "f3": lambda x: np.sin(2 * np.pi * x / geom.l),
                 "f4": lambda x: np.sin(np.pi * x / geom.l) ** 3}
        N = 64
        transforms = series_transforms(edges, geom, N)
        ns = np.arange(1, N + 1)

        ys = np.linspace(0, geom.h, 23)
        recon_f1 = np.einsum("n,np->p", transforms["f1"],
                             np.sin(np.outer(ns, ys) * np.pi / geom.h))
        got_f1 = series_solution(transforms, geom, np.zeros_like(ys), ys)
        assert np.max(np.abs(got_f1 - recon_f1)) < 1e-9

        xs = np.linspace(0, geom.l, 23)
        recon_f4 = np.einsum("n,np->p", transforms["f4"],
                             np.sin(np.outer(ns, xs) * np.pi / geom.l))
        got_f4 = series_solution(transforms, geom, xs, np.full_like(xs, geom.h))
        assert np.max(np.abs(got_f4 - recon_f4)) < 1e-9

    def test_interior_is_harmonic(self, geom):
        # discrete Laplacian of the evaluated series drops at O(step^2)
        transforms = series_transforms({"f4": lambda x: np.sin(np.pi * x / geom.l) ** 2},
                                       geom, 32)

        def lap(step):
            x0, y0 = 0.9, 0.6
            xs = x0 + step * np.array([-1, 0, 1, 0, 0])
            ys = y0 + step * np.array([0, 0, 0, -1, 1])
            v = series_solution(transforms, geom, xs, ys)
            return abs((v[0] + v[2] + v[3] + v[4] - 4 * v[1]) / step**2)

        r1, r2 = lap(2e-3), lap(1e-3)
        assert math.log2(r1 / r2) > 1.9


class TestStampBlockCoefficients:
    """The stamp's face displacement as Dirichlet data on the rectangle."""

    @staticmethod
    def _face_transforms(profile, geom, N):
        return series_transforms({"f4": lambda t: profile.evaluate(t, geom)}, geom, N,
                                 breakpoints={"f4": profile.breakpoints(geom)})

    def test_clamped_corners_kill_three_series(self, geom):
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        transforms = self._face_transforms(profile, geom, 32)
        assert list(transforms) == ["f4"] and np.any(transforms["f4"] != 0.0)

    def test_single_mode_profile(self, geom):
        # the profile's closed-form transform is the unit vector e_1
        profile = BoundaryProfile.single_mode(1, depth=1.0)
        assert profile.exact_transform(np.arange(1, 9), geom).tobytes() == \
            _unit_mode(8)["f4"].tobytes()

    def test_matches_sine_coefficients(self, geom):
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        transforms = self._face_transforms(profile, geom, 64)
        direct = sine_coefficients(profile, geom, N=64)
        assert np.max(np.abs(transforms["f4"] - direct)) < 1e-12

    def test_ramp_edges_present_when_corners_loaded(self, geom):
        # corner values 0.25 and -0.5 carried down the lateral edges as
        # linear ramps (y/h) * value
        edges = {"f1": lambda y: 0.25 * y / geom.h, "f2": lambda y: -0.5 * y / geom.h}
        transforms = series_transforms(edges, geom, 8, panels=8192)
        assert transforms["f1"][0] == pytest.approx(0.25 * 2 / math.pi, rel=1e-10)
        assert transforms["f2"][0] == pytest.approx(-0.5 * 2 / math.pi, rel=1e-10)
        # the reproduced edge data is the linear ramp (y/h) * corner value
        ys = np.linspace(0, geom.h, 9)
        ns = np.arange(1, 9)
        recon = np.einsum("n,np->p", transforms["f1"],
                          np.sin(np.outer(ns, ys) * np.pi / geom.h))
        # N-term sine reconstruction of the ramp, from the same transforms:
        # just confirm it converges toward 0.25 * y/h away from the jump at y=h
        mid = slice(1, 5)
        assert np.max(np.abs(recon[mid] - 0.25 * ys[mid] / geom.h)) < 0.02


class TestFdLaplace:
    def test_zero_boundary_zero_interior(self, geom):
        assert np.all(fd_solution({}, geom, GridSpec(15, 15)) == 0.0)

    def test_linear_function_exact(self, geom):
        # f = x is harmonic and stencil-exact
        edges = {"f1": lambda y: np.zeros_like(y), "f2": lambda y: np.full_like(y, geom.l),
                 "f3": lambda x: x, "f4": lambda x: x}
        grid = GridSpec(21, 21)
        X, _ = np.meshgrid(*grid.axes(geom))
        assert np.max(np.abs(fd_solution(edges, geom, grid) - X)) < 1e-12

    def test_bilinear_function_exact(self, geom):
        # f = x*y: the cross term is also stencil-exact
        edges = {"f1": lambda y: 0.0 * y, "f2": lambda y: geom.l * y,
                 "f3": lambda x: 0.0 * x, "f4": lambda x: geom.h * x}
        grid = GridSpec(13, 17)
        X, Y = np.meshgrid(*grid.axes(geom))
        assert np.max(np.abs(fd_solution(edges, geom, grid) - X * Y)) < 1e-11

    def test_single_mode_second_order(self, geom):
        def exact(X, Y):
            return (np.sin(np.pi * X / geom.l) * np.sinh(np.pi * Y / geom.l)
                    / math.sinh(np.pi * geom.h / geom.l))

        grids = (GridSpec(41, 41), GridSpec(83, 83))
        errs = [np.max(np.abs(fd_solution(_top_sine(geom), geom, grid)
                              - exact(*np.meshgrid(*grid.axes(geom)))))
                for grid in grids]
        assert _grid_pair_order(errs, grids, geom) > 1.9

    def test_matches_series_solution_at_second_order(self, geom):
        grids = (GridSpec(41, 41), GridSpec(83, 83))
        errs = [np.max(np.abs(fd_solution(_top_sine(geom), geom, grid)[1:-1, 1:-1]
                              - series_solution(_unit_mode(4), geom,
                                                *np.meshgrid(*grid.axes(geom)))[1:-1, 1:-1]))
                for grid in grids]
        assert _grid_pair_order(errs, grids, geom) > 1.9

    @pytest.mark.parametrize("edge,length", [("f1", "h"), ("f2", "h"), ("f3", "l"),
                                             ("f4", "l")])
    def test_each_edge_matches_series_solution(self, geom, edge, length):
        # the two oracles place each edge's data on the same edge
        edges = {edge: lambda t: np.sin(np.pi * t / getattr(geom, length))}
        grids = (GridSpec(41, 41), GridSpec(83, 83))
        errs = [np.max(np.abs(fd_solution(edges, geom, grid)[1:-1, 1:-1]
                              - series_solution({edge: _unit_mode(4)["f4"]}, geom,
                                                *np.meshgrid(*grid.axes(geom)))[1:-1, 1:-1]))
                for grid in grids]
        assert _grid_pair_order(errs, grids, geom) > 1.9

    def test_matches_dense_reference_solve(self):
        # the 5-point system assembled densely from Kronecker products and
        # solved by LU, every edge nonzero, on a non-square plate and grid
        geom, grid = Geometry(1.0, 3.0), GridSpec(9, 5)
        edges = {"f1": lambda y: 1.0 + y**2, "f2": lambda y: np.cos(y),
                 "f3": lambda x: np.exp(x), "f4": lambda x: 2.0 - x**3}
        nx, ny = grid.nx, grid.ny
        dx, dy = grid.spacing(geom)
        xs, ys = grid.axes(geom)

        def second_difference(n, step):
            return (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
                    + np.diag(np.ones(n - 1), -1)) / step**2

        A = (np.kron(np.eye(ny), second_difference(nx, dx))
             + np.kron(second_difference(ny, dy), np.eye(nx)))
        b = np.zeros((ny, nx))
        b[0, :] -= edges["f3"](xs[1:-1]) / dy**2
        b[-1, :] -= edges["f4"](xs[1:-1]) / dy**2
        b[:, 0] -= edges["f1"](ys[1:-1]) / dx**2
        b[:, -1] -= edges["f2"](ys[1:-1]) / dx**2
        reference = np.linalg.solve(A, b.ravel()).reshape(ny, nx)

        full = fd_solution(edges, geom, grid)
        scale = max(np.max(np.abs(edges[e](t))) for e, t in (("f1", ys), ("f2", ys),
                                                             ("f3", xs), ("f4", xs)))
        assert np.max(np.abs(full[1:-1, 1:-1] - reference)) <= 1e-13 * scale
        assert np.array_equal(full[0], edges["f3"](xs))
        assert np.array_equal(full[-1], edges["f4"](xs))
        assert np.array_equal(full[1:-1, 0], edges["f1"](ys[1:-1]))
        assert np.array_equal(full[1:-1, -1], edges["f2"](ys[1:-1]))

    def test_non_finite_data_fails_residual_gate(self, geom):
        edges = {"f2": lambda y: np.where(y > 0.5, np.nan, 0.0)}
        with pytest.raises(AssertionError, match="residual nan"):
            fd_solution(edges, geom, GridSpec(15, 15))


class TestLaplacian:
    def test_harmonic_polynomial_stencil_exact(self, geom):
        lap = field_laplacian(lambda X, Y: X * Y, geom, GridSpec(21, 21))
        assert np.max(np.abs(lap)) < 1e-11

    def test_quadratic_constant_laplacian(self, geom):
        lap = field_laplacian(lambda X, Y: X**2, geom, GridSpec(21, 21))
        assert np.max(np.abs(lap)) == pytest.approx(2.0, rel=1e-6)
        assert math.sqrt(np.mean(lap**2)) == pytest.approx(2.0, rel=1e-6)

    def test_block_field_second_order(self, geom):
        # the face-data building block as a full field sh(ky) sin(kx) / sh(kh)
        k = 2 * np.pi / geom.l
        sh_kh = math.sinh(k * geom.h)

        def field(X, Y):
            return np.sinh(k * Y) * np.sin(k * X) / sh_kh

        assert laplacian_order(field, geom, GridSpec(31, 31), GridSpec(63, 63)) > 1.9
