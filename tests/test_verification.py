"""Tests for the finite-difference oracle and residual meters."""
import math

import numpy as np
import pytest

from platestamp import (
    BoundaryProfile,
    DirichletData,
    DomainError,
    FdSolveError,
    Geometry,
    GridSpec,
    Material,
    ModeDegeneracyError,
    assemble_series,
    constitutive_residual,
    discrepancy_report,
    equilibrium_residual,
    fd_laplace_solve,
    laplacian_residual,
    sine_coefficients,
    solve_dirichlet,
    evaluate_harmonic,
)
from platestamp.verification import SharedGridFields, path_profile_difference

from conftest import mode_kernel, mode_scalars


@pytest.fixture(scope="module")
def raised_cosine_field(geom, mat):
    profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
    return assemble_series(sine_coefficients(profile, geom, 64), geom, mat)


class TestFdLaplace:
    def test_zero_boundary_zero_interior(self, geom):
        full = fd_laplace_solve(DirichletData(), geom, GridSpec(15, 15))
        assert np.all(full == 0.0)

    def test_linear_function_exact(self, geom):
        # f = x is harmonic and stencil-exact
        data = DirichletData(f1=lambda y: np.zeros_like(y),
                             f2=lambda y: np.full_like(y, geom.l),
                             f3=lambda x: x, f4=lambda x: x)
        grid = GridSpec(21, 21)
        full = fd_laplace_solve(data, geom, grid)
        xs, ys = grid.axes(geom)
        X, _ = np.meshgrid(xs, ys)
        assert np.max(np.abs(full - X)) < 1e-12

    def test_bilinear_function_exact(self, geom):
        # f = x*y: the cross term is also stencil-exact
        data = DirichletData(f1=lambda y: 0.0 * y, f2=lambda y: geom.l * y,
                             f3=lambda x: 0.0 * x, f4=lambda x: geom.h * x)
        grid = GridSpec(13, 17)
        full = fd_laplace_solve(data, geom, grid)
        xs, ys = grid.axes(geom)
        X, Y = np.meshgrid(xs, ys)
        assert np.max(np.abs(full - X * Y)) < 1e-11

    def test_single_mode_second_order(self, geom):
        data = DirichletData(f4=lambda x: np.sin(np.pi * x / geom.l))

        def exact(X, Y):
            return (np.sin(np.pi * X / geom.l) * np.sinh(np.pi * Y / geom.l)
                    / math.sinh(np.pi * geom.h / geom.l))

        errs, spacings = [], []
        for grid in (GridSpec(41, 41), GridSpec(83, 83)):
            full = fd_laplace_solve(data, geom, grid)
            xs, ys = grid.axes(geom)
            X, Y = np.meshgrid(xs, ys)
            errs.append(np.max(np.abs(full - exact(X, Y))))
            spacings.append(grid.spacing(geom)[0])
        order = math.log(errs[0] / errs[1]) / math.log(spacings[0] / spacings[1])
        assert order > 1.9

    def test_matches_series_solver_at_second_order(self, geom):
        data = DirichletData(
            f4=lambda x: np.sin(np.pi * x / geom.l),
            exact={"f4": lambda ns: np.where(ns == 1, 1.0, 0.0)},
        )
        series = solve_dirichlet(data, geom, N=4)
        errs, spacings = [], []
        for grid in (GridSpec(41, 41), GridSpec(83, 83)):
            full = fd_laplace_solve(data, geom, grid)
            xs, ys = grid.axes(geom)
            X, Y = np.meshgrid(xs, ys)
            errs.append(np.max(np.abs(full[1:-1, 1:-1]
                                      - evaluate_harmonic(series, X, Y)[1:-1, 1:-1])))
            spacings.append(grid.spacing(geom)[0])
        order = math.log(errs[0] / errs[1]) / math.log(spacings[0] / spacings[1])
        assert order > 1.9

    def test_matches_dense_reference_solve(self):
        # the 5-point system assembled densely from Kronecker products and
        # solved by LU, every edge nonzero, on a non-square plate and grid
        geom, grid = Geometry(1.0, 3.0), GridSpec(9, 5)
        data = DirichletData(f1=lambda y: 1.0 + y**2, f2=lambda y: np.cos(y),
                             f3=lambda x: np.exp(x), f4=lambda x: 2.0 - x**3)
        nx, ny = grid.nx, grid.ny
        dx, dy = grid.spacing(geom)
        xs, ys = grid.axes(geom)

        def second_difference(n, step):
            return (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
                    + np.diag(np.ones(n - 1), -1)) / step**2

        A = (np.kron(np.eye(ny), second_difference(nx, dx))
             + np.kron(second_difference(ny, dy), np.eye(nx)))
        b = np.zeros((ny, nx))
        b[0, :] -= data.f3(xs[1:-1]) / dy**2
        b[-1, :] -= data.f4(xs[1:-1]) / dy**2
        b[:, 0] -= data.f1(ys[1:-1]) / dx**2
        b[:, -1] -= data.f2(ys[1:-1]) / dx**2
        reference = np.linalg.solve(A, b.ravel()).reshape(ny, nx)

        full = fd_laplace_solve(data, geom, grid)
        scale = max(np.max(np.abs(f(t))) for f, t in ((data.f1, ys), (data.f2, ys),
                                                      (data.f3, xs), (data.f4, xs)))
        assert np.max(np.abs(full[1:-1, 1:-1] - reference)) <= 1e-13 * scale
        assert np.array_equal(full[0], data.f3(xs))
        assert np.array_equal(full[-1], data.f4(xs))
        assert np.array_equal(full[1:-1, 0], data.f1(ys[1:-1]))
        assert np.array_equal(full[1:-1, -1], data.f2(ys[1:-1]))

    def test_non_finite_data_fails_residual_gate(self, geom):
        data = DirichletData(f2=lambda y: np.where(y > 0.5, np.nan, 0.0))
        with pytest.raises(FdSolveError, match="residual nan"):
            fd_laplace_solve(data, geom, GridSpec(15, 15))


class TestLaplacianResidual:
    def test_harmonic_polynomial_stencil_exact(self, geom):
        rep = laplacian_residual(lambda X, Y: X * Y, geom, GridSpec(21, 21))
        assert rep.max_abs < 1e-11

    def test_quadratic_constant_laplacian(self, geom):
        rep = laplacian_residual(lambda X, Y: X**2, geom, GridSpec(21, 21))
        assert rep.max_abs == pytest.approx(2.0, rel=1e-6)
        assert rep.l2 == pytest.approx(2.0, rel=1e-6)

    def test_block_field_second_order(self, geom):
        # the face-data building block as a full field sh(ky) sin(kx) / sh(kh)
        k = 2 * np.pi / geom.l
        sh_kh = math.sinh(k * geom.h)

        def field(X, Y):
            return np.sinh(k * Y) * np.sin(k * X) / sh_kh

        rep = laplacian_residual(field, geom, GridSpec(31, 31),
                                 refined=GridSpec(63, 63))
        assert rep.observed_order is not None and rep.observed_order > 1.9


class TestPhysicsMeters:
    def test_zero_field_zero_residual(self, geom, mat):
        sf = assemble_series([0.0, 0.0], geom, mat)
        for rep in (*equilibrium_residual(sf, GridSpec(11, 11)),
                    *constitutive_residual(sf, GridSpec(11, 11))):
            assert rep.max_abs == 0.0 and rep.l2 == 0.0

    def test_residuals_scale_linearly(self, geom, mat):
        sf1 = assemble_series([0.25, 0.1], geom, mat)
        sf2 = assemble_series([0.5, 0.2], geom, mat)
        g = GridSpec(11, 11)
        for r1, r2 in zip(equilibrium_residual(sf1, g), equilibrium_residual(sf2, g)):
            assert r2.max_abs == pytest.approx(2.0 * r1.max_abs, rel=1e-12)

    def test_single_mode_second_order(self, geom, mat):
        # one well-resolved mode: clean O(spacing^2) without any margin
        sf = assemble_series([0.01], geom, mat)
        eq = equilibrium_residual(sf, GridSpec(31, 31), refined=GridSpec(63, 63))
        con = constitutive_residual(sf, GridSpec(31, 31), refined=GridSpec(63, 63))
        for rep in (*eq, *con):
            assert rep.observed_order > 1.9

    def test_truncated_series_orders_with_margin(self, geom, mat, raised_cosine_field):
        # N=64 on desk grids: meaningful only outside the unresolved
        # boundary layer at the loaded face
        margin = 0.15 * geom.h
        eq = equilibrium_residual(raised_cosine_field, GridSpec(41, 41),
                                  refined=GridSpec(81, 81), exclusion_margin=margin)
        con = constitutive_residual(raised_cosine_field, GridSpec(41, 41),
                                    refined=GridSpec(81, 81), exclusion_margin=margin)
        for rep in (*eq, *con):
            assert rep.observed_order > 1.9

    def test_equilibrium_negative_control(self, geom, mat, raised_cosine_field):
        # 1% horizontal-stress corruption must leave a visible residual

        class Corrupted:
            geometry = geom
            material = mat

            def grid_fields(self, xs, ys):
                f = dict(raised_cosine_field.grid_fields(xs, ys))
                f["sigma_x"] = 1.01 * f["sigma_x"]
                return f

        grid = GridSpec(41, 41)
        xs, ys = grid.axes(geom)
        scale = float(np.max(np.abs(raised_cosine_field.grid_fields(xs, ys)["sigma_x"])))
        r1, _ = equilibrium_residual(Corrupted(), grid)
        assert r1.max_abs > 1e-3 * scale
        # and it does not converge away under refinement
        r1f, _ = equilibrium_residual(Corrupted(), GridSpec(81, 81))
        assert r1f.max_abs > 1e-3 * scale

    def test_constitutive_negative_control(self, geom, mat, raised_cosine_field):
        # the meters read only geometry, material and grid_fields: the
        # field's own grids checked against a perturbed nu must leave a
        # visible residual

        class Perturbed:
            geometry = geom
            material = Material(E=mat.E, nu=mat.nu + 0.02)
            grid_fields = raised_cosine_field.grid_fields

        grid = GridSpec(41, 41)
        xs, ys = grid.axes(geom)
        scale = float(np.max(np.abs(raised_cosine_field.grid_fields(xs, ys)["sigma_x"])))
        reps = constitutive_residual(Perturbed(), grid)
        assert max(r.max_abs for r in reps) > 1e-3 * scale

    def test_shared_evaluation_matches_independent_meters(self, geom, mat,
                                                          raised_cosine_field):
        # one evaluation per grid serves both meters, with the same bits
        grid, refined = GridSpec(41, 41), GridSpec(81, 81)
        margin = 0.15 * geom.h
        calls = []

        class Counted:
            geometry, material = geom, mat

            def grid_fields(self, xs, ys):
                calls.append((len(xs), len(ys)))
                return raised_cosine_field.grid_fields(xs, ys)

        shared = SharedGridFields(Counted(), [grid.axes(geom), refined.axes(geom)])
        eq = equilibrium_residual(shared, grid, refined=refined, exclusion_margin=margin)
        con = constitutive_residual(shared, grid, refined=refined, exclusion_margin=margin)
        assert calls == [(43, 43), (83, 83)]
        # axes that were not given are not evaluated on demand
        with pytest.raises(KeyError):
            shared.grid_fields(*GridSpec(21, 21).axes(geom))
        assert len(calls) == 2
        assert eq == equilibrium_residual(raised_cosine_field, grid, refined=refined,
                                          exclusion_margin=margin)
        assert con == constitutive_residual(raised_cosine_field, grid, refined=refined,
                                            exclusion_margin=margin)

    def test_constitutive_negative_control_through_shared(self, geom, mat,
                                                          raised_cosine_field):
        # a perturbed material still acts on fields kept by the shared
        # evaluation, and leaves them as they were for the next meter
        grid = GridSpec(41, 41)
        xs, ys = grid.axes(geom)
        scale = float(np.max(np.abs(raised_cosine_field.grid_fields(xs, ys)["sigma_x"])))
        shared = SharedGridFields(raised_cosine_field, [grid.axes(geom)])

        class Perturbed:
            geometry = geom
            material = Material(E=mat.E, nu=mat.nu + 0.02)
            grid_fields = shared.grid_fields

        right = constitutive_residual(shared, grid, exclusion_margin=0.15 * geom.h)
        reps = constitutive_residual(Perturbed(), grid, exclusion_margin=0.15 * geom.h)
        assert max(r.max_abs for r in reps) > 1e-3 * scale
        assert max(r.max_abs for r in reps) > 4.0 * max(r.max_abs for r in right)
        assert constitutive_residual(shared, grid, exclusion_margin=0.15 * geom.h) == right

    def test_exclusion_margin_too_large_rejected(self, geom, mat):
        sf = assemble_series([1.0], geom, mat)
        from platestamp import DomainError
        with pytest.raises(DomainError):
            equilibrium_residual(sf, GridSpec(5, 5), exclusion_margin=0.6 * geom.h)


class TestWorkEnergyBalance:
    def test_external_work_equals_strain_energy(self, geom, mat, raised_cosine_field):
        """Global check none of the solution routes has built in: the work
        of the face pressure through the prescribed face displacement must
        equal the volume-integrated strain energy.  Every other boundary
        term vanishes (zero shear on both faces, v = sigma_x = 0 on the
        lateral edges).  Strains come from gradients on a grid, so the
        energy converges to the work at second order."""
        sf = raised_cosine_field

        def simpson_weights(n, L):
            w = np.ones(n + 1)
            w[1:-1:2], w[2:-1:2] = 4.0, 2.0
            return w * (L / n) / 3.0

        P = 2048
        xs = np.linspace(0, geom.l, P + 1)
        face = sf.grid_fields(xs, np.array([geom.h]))
        work = 0.5 * np.sum(simpson_weights(P, geom.l)
                            * face["sigma_y"][0] * face["v"][0])

        energies = []
        for n_cells in (128, 256):
            xs = np.linspace(0, geom.l, n_cells + 1)
            ys = np.linspace(0, geom.h, n_cells + 1)
            f = sf.grid_fields(xs, ys)
            dx, dy = xs[1] - xs[0], ys[1] - ys[0]
            ex = np.gradient(f["u"], dx, axis=1)
            ey = np.gradient(f["v"], dy, axis=0)
            gxy = np.gradient(f["u"], dy, axis=0) + np.gradient(f["v"], dx, axis=1)
            dens = 0.5 * (f["sigma_x"] * ex + f["sigma_y"] * ey + f["tau_xy"] * gxy)
            wX = simpson_weights(n_cells, geom.l)
            wY = simpson_weights(n_cells, geom.h)
            energies.append(float(np.einsum("j,i,ji->", wX, wY, dens)))

        err = [abs(e - work) / work for e in energies]
        assert err[1] < 1e-3
        assert err[0] / err[1] > 3.0  # second-order approach to the work value


class TestDiscrepancyReport:
    def test_report_content(self, geom, mat):
        rep = discrepancy_report(geom, mat, range(1, 17))
        assert rep.calibration_ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.max_rel_ab < 1e-10
        assert rep.max_rel_cb < 1e-10
        assert len(rep.rows) == 16
        for row in rep.rows:
            assert row.delta_ratio == pytest.approx(1.0, abs=1e-12)
            assert row.corrected_shear_face == 0.0
            # the uncorrected face shear is strictly positive and matches
            # the stable closed expression
            expected = (row.beta ** 2 / (geom.h * (1 - mat.nu))) \
                * (-2.0 * math.expm1(-2 * row.beta)
                   * math.exp(-2 * row.beta) / math.expm1(-2 * row.beta) ** 2) / 2 * 2
            assert row.uncorrected_shear_face > 0.0
            assert row.uncorrected_shear_face == pytest.approx(expected, rel=1e-11)

    def test_report_text_and_dict(self, geom, mat):
        rep = discrepancy_report(geom, mat, [1, 2])
        text = rep.as_text()
        assert "calibration ratio" in text
        d = rep.as_dict()
        assert set(d) == {"calibration_ratio", "path_equiv_max_rel_diff_ab",
                          "path_equiv_max_rel_diff_cb"}

    @pytest.mark.parametrize("l,h,nu", [(2.0, 1.0, 0.3), (1.0, 3.0, 0.499),
                                        (2.0, 20.0, 0.2)])
    def test_rows_match_per_mode_recomputation(self, l, h, nu):
        # the batched report computes what the per-mode profiles give
        geom, mat = Geometry(l, h), Material(E=1.0, nu=nu)
        rep = discrepancy_report(geom, mat, range(1, 65))
        rho = rep.calibration_ratio
        etas = np.linspace(0.0, 1.0, 101)
        assert [row.n for row in rep.rows] == list(range(1, 65))
        for row in rep.rows:
            k, beta = mode_scalars(row.n, geom)
            pb = mode_kernel("B", row.n, geom, mat)
            pc = mode_kernel("C", row.n, geom, mat, rho=rho)
            unfixed = mode_kernel("C", row.n, geom, mat, rho=rho, uncorrected_shear=True)
            (vc,) = mode_kernel("C", row.n, geom, mat)(etas, fields=("V",))
            (vb,) = pb(etas, fields=("V",))
            assert row.beta == beta
            assert row.rel_diff_ab == path_profile_difference(
                mode_kernel("A", row.n, geom, mat), pb, beta)
            assert row.rel_diff_cb == path_profile_difference(pc, pb, beta)
            assert row.delta_ratio == pytest.approx(
                np.dot(vc, vb) / np.dot(vc, vc), rel=0, abs=1e-15)
            assert row.uncorrected_shear_face == float(unfixed(1.0, fields=("X",))[0])
            assert row.corrected_shear_face == float(pc(1.0, fields=("X",))[0])

    def test_thick_plate_no_false_divergence(self):
        # at h=20 the top modes have beta ~ 2e3, and their shear profile
        # peaks inside the face layer, far above its value at any uniform
        # eta sample; scaling by the uniform samples alone read 3.5e-6 here
        geom, mat = Geometry(2.0, 20.0), Material(E=1.0, nu=0.2)
        _, top_beta = mode_scalars(64, geom)
        pb = mode_kernel("B", 64, geom, mat)
        (layer,) = pb(np.linspace(1.0 - 10.0 / top_beta, 1.0, 2001), fields=("X",))
        (coarse,) = pb(np.linspace(0.0, 1.0, 101), fields=("X",))
        peak = float(np.max(np.abs(layer)))
        uniform = float(np.max(np.abs(coarse)))
        assert peak > 1e6 * uniform
        rep = discrepancy_report(geom, mat, range(1, 65))
        assert rep.max_rel_ab < 1e-8
        assert rep.max_rel_cb < 1e-10

    def test_degenerate_mode_named_as_per_mode_builder(self, mat):
        # beta_1 ~ 3e5 still solves, beta_2 ~ 6e5 does not
        geom = Geometry(l=1e-5, h=1.0)
        with pytest.raises(ModeDegeneracyError) as per_mode:
            for n in range(1, 5):
                mode_kernel("A", n, geom, mat)
        with pytest.raises(ModeDegeneracyError) as batched:
            discrepancy_report(geom, mat, range(1, 5))
        assert per_mode.value.n == batched.value.n == 2
        assert batched.value.beta == per_mode.value.beta
        assert batched.value.cond == pytest.approx(per_mode.value.cond, rel=1e-12)

    @pytest.mark.parametrize("modes,named", [([1.7, 2], "1.7"), ([0, 2], "0"),
                                             ([-1], "-1")])
    def test_bad_mode_numbers_named(self, geom, mat, modes, named):
        # mode numbers are integers from 1: a float is not truncated, and
        # neither 0 nor a negative mode reaches the kernels
        with pytest.raises(DomainError, match=f"positive integer, got n={named}$"):
            discrepancy_report(geom, mat, modes)

    def test_hard_error_on_path_divergence(self, geom, mat, monkeypatch):
        # a boundary-solve route that stops matching the block route is an
        # implementation failure, not report content
        import platestamp.verification as verif
        from platestamp import PathDivergenceError
        from platestamp.strip_solution import FIELD_NAMES, block_profiles

        def broken(k, beta, nu, u0, y0, eta, *, fields=FIELD_NAMES):
            prof = dict(zip(FIELD_NAMES, block_profiles(k, beta, nu, eta)))
            prof["U"] = prof["U"] * 1.001
            return tuple(prof[f] for f in fields)

        monkeypatch.setattr(verif, "initial_profiles", broken)
        with pytest.raises(PathDivergenceError):
            discrepancy_report(geom, mat, [1])
