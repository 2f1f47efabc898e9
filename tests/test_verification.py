"""Tests for the residual meters and the discrepancy report."""
import functools
import math

import numpy as np
import pytest

from platestamp import (
    BoundaryProfile,
    DomainError,
    Geometry,
    GridSpec,
    Material,
    ModeDegeneracyError,
    assemble_series,
    constitutive_residual,
    discrepancy_report,
    equilibrium_residual,
    sine_coefficients,
)
from platestamp import verification
from platestamp.verification import SharedGridFields

from conftest import mode_kernel, mode_scalars


@pytest.fixture(scope="module")
def raised_cosine_field(geom, mat):
    profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
    return assemble_series(sine_coefficients(profile, geom, 64), geom, mat)


class TestGridSpec:
    @pytest.mark.parametrize("nx,ny,named", [(4.5, 5, "nx"), (5, 7.25, "ny"),
                                             (5, math.inf, "ny")])
    def test_non_integer_count_named(self, nx, ny, named):
        with pytest.raises(DomainError, match=f"^{named} must be a whole number"):
            GridSpec(nx, ny)

    @pytest.mark.parametrize("nx,ny", [(4.0, 4.0), (np.float64(9.0), np.int64(5))])
    def test_integral_counts_taken_as_int(self, geom, nx, ny):
        grid = GridSpec(nx, ny)
        assert (grid.nx, grid.ny) == (int(nx), int(ny))
        assert type(grid.nx) is int and type(grid.ny) is int
        assert [len(a) for a in grid.axes(geom)] == [int(nx) + 2, int(ny) + 2]

    @pytest.mark.parametrize("nx,ny", [(2, 5), (5, 2.0), (0, 5), (5, -3), (math.nan, 5)])
    def test_fewer_than_three_points_rejected(self, nx, ny):
        with pytest.raises(DomainError, match="at least 3x3 interior points"):
            GridSpec(nx, ny)


class TestPhysicsMeters:
    def test_zero_field_zero_residual(self, geom, mat):
        sf = assemble_series([0.0, 0.0], geom, mat)
        for rep in (*equilibrium_residual(sf, GridSpec(11, 11)),
                    *constitutive_residual(sf, GridSpec(11, 11))):
            assert rep.max_abs == 0.0 and rep.l2 == 0.0

    def test_zero_field_has_no_order(self, geom, mat):
        # a residual of 0 on both grids gives no observed order, rather
        # than dividing by it
        sf = assemble_series([0.0, 0.0], geom, mat)
        for rep in (*equilibrium_residual(sf, GridSpec(11, 11)),
                    *constitutive_residual(sf, GridSpec(11, 11))):
            assert rep.l2 == 0.0 and math.isnan(rep.observed_order)

    def test_residuals_scale_linearly(self, geom, mat):
        sf1 = assemble_series([0.25, 0.1], geom, mat)
        sf2 = assemble_series([0.5, 0.2], geom, mat)
        g = GridSpec(11, 11)
        for r1, r2 in zip(equilibrium_residual(sf1, g), equilibrium_residual(sf2, g)):
            assert r2.max_abs == pytest.approx(2.0 * r1.max_abs, rel=1e-12)

    def test_single_mode_second_order(self, geom, mat):
        # one well-resolved mode: clean O(spacing^2) between 31x31 and 61x61
        sf = assemble_series([0.01], geom, mat)
        eq = equilibrium_residual(sf, GridSpec(31, 31))
        con = constitutive_residual(sf, GridSpec(31, 31))
        for rep in (*eq, *con):
            assert rep.observed_order > 1.9

    def test_truncated_series_orders_with_margin(self, geom, mat, raised_cosine_field):
        # N=64 on desk grids 41x41 and 81x81: meaningful only outside the
        # unresolved boundary layer at the loaded face, which the meters'
        # band of 0.15 h leaves out
        eq = equilibrium_residual(raised_cosine_field, GridSpec(41, 41))
        con = constitutive_residual(raised_cosine_field, GridSpec(41, 41))
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
        grid = GridSpec(41, 41)
        calls = []

        class Counted:
            geometry, material = geom, mat

            def grid_fields(self, xs, ys):
                calls.append((len(xs), len(ys)))
                return raised_cosine_field.grid_fields(xs, ys)

        shared = SharedGridFields(Counted())
        eq = equilibrium_residual(shared, grid)
        con = constitutive_residual(shared, grid)
        # the 41x41 grid and its 81x81 refinement, on the rows outside the
        # band y in [0.15, 0.85] and one more on either side: rows 6..36 of
        # 43 and 12..70 of 83
        assert calls == [(43, 31), (83, 59)]
        # axes not asked for before are evaluated when first asked for, once
        axes = GridSpec(21, 21).axes(geom)
        assert shared.grid_fields(*axes) is shared.grid_fields(*axes)
        assert calls[2:] == [(23, 23)]
        assert eq == equilibrium_residual(raised_cosine_field, grid)
        assert con == constitutive_residual(raised_cosine_field, grid)

    def test_constitutive_negative_control_through_shared(self, geom, mat,
                                                          raised_cosine_field):
        # a perturbed material still acts on fields kept by the shared
        # evaluation, and leaves them as they were for the next meter
        grid = GridSpec(41, 41)
        xs, ys = grid.axes(geom)
        scale = float(np.max(np.abs(raised_cosine_field.grid_fields(xs, ys)["sigma_x"])))
        shared = SharedGridFields(raised_cosine_field)

        class Perturbed:
            geometry = geom
            material = Material(E=mat.E, nu=mat.nu + 0.02)
            grid_fields = shared.grid_fields

        right = constitutive_residual(shared, grid)
        reps = constitutive_residual(Perturbed(), grid)
        assert max(r.max_abs for r in reps) > 1e-3 * scale
        assert max(r.max_abs for r in reps) > 4.0 * max(r.max_abs for r in right)
        assert constitutive_residual(shared, grid) == right

    @pytest.mark.parametrize("h", [2e-3, 2.0, 100.0], ids=["thin", "square", "thick"])
    def test_band_keeps_points_on_smallest_grid(self, mat, h):
        # h/l = 1e-3, 1 and 50: the band, 0.15 of the shorter side, leaves
        # interior rows and columns on a 3x3 grid and on its 5x5 refinement
        geom = Geometry(2.0, h)
        calls = []

        class Counted:
            geometry, material = geom, mat

            def grid_fields(self, xs, ys):
                calls.append((len(xs), len(ys)))
                return assemble_series([0.01, 0.004], geom, mat).grid_fields(xs, ys)

        band = verification._exclusion_band(geom)
        for grid in (GridSpec(3, 3), verification._refined_grid(GridSpec(3, 3))):
            xs, ys = (a[1:-1] for a in grid.axes(geom))
            assert np.any((xs >= band) & (xs <= geom.l - band))
            assert np.any((ys >= band) & (ys <= geom.h - band))
        for meter in (equilibrium_residual, constitutive_residual):
            calls.clear()
            reports = meter(Counted(), GridSpec(3, 3))
            # every interior row of both grids lies in the band
            assert calls == [(5, 5), (7, 7)]
            assert all(math.isfinite(r.max_abs) and r.max_abs > 0.0 for r in reports)

    @pytest.mark.parametrize("l,h,rows", [(2.0, 1.0, [31, 59]), (1.0, 2.0, [37, 71])],
                             ids=["0.15h", "0.15l"])
    def test_band_rows_match_full_grid(self, mat, l, h, rows):
        # the meters evaluate only the rows their stencils read; their
        # statistics have the bits of the same residuals on the full grids,
        # masked to the band of 0.15 of the shorter side (the desk plate's
        # h, and the l of a plate twice as high as long)
        geom = Geometry(l, h)
        margin = 0.15 * min(l, h)
        profile = BoundaryProfile.raised_cosine(0.5 * l, 0.2 * l, 0.01)
        field = assemble_series(sine_coefficients(profile, geom, 64), geom, mat)
        calls = []

        class Counted:
            geometry, material = geom, mat

            def grid_fields(self, xs, ys):
                calls.append(len(ys))
                return field.grid_fields(xs, ys)

        def full_grid_stats(grid, terms):
            xs, ys = grid.axes(geom)
            xi, yi = xs[1:-1], ys[1:-1]
            mask = (((yi >= margin) & (yi <= geom.h - margin))[:, None]
                    & ((xi >= margin) & (xi <= geom.l - margin)))
            residuals = terms(field.grid_fields(xs, ys), *grid.spacing(geom))
            return [(float(np.max(np.abs(r[mask]))), float(np.sqrt(np.mean(r[mask] ** 2))))
                    for r in residuals]

        grid, refined = GridSpec(41, 41), GridSpec(81, 81)
        for meter, terms in ((equilibrium_residual, verification._equilibrium_terms),
                             (constitutive_residual, functools.partial(
                                 verification._constitutive_terms, mat))):
            calls.clear()
            reports = meter(Counted(), grid)
            assert calls == rows
            assert [(r.max_abs, r.l2) for r in reports] == full_grid_stats(grid, terms)
            fine = meter(field, refined)
            assert [(r.max_abs, r.l2) for r in fine] == full_grid_stats(refined, terms)
            assert all(math.isfinite(r.observed_order) for r in reports)

    @pytest.mark.parametrize("nx,ny", [(3, 3), (41, 41), (41, 21), (21, 41)])
    def test_order_from_grid_and_its_refinement(self, geom, mat, raised_cosine_field,
                                                nx, ny):
        # the fine grid has 2 n - 1 interior points on each axis for that
        # axis's n; the order is the log ratio of the pair's l2 over the log
        # ratio of their x spacings, l/(nx + 1) and l/(2 nx)
        grid, refined = GridSpec(nx, ny), GridSpec(2 * nx - 1, 2 * ny - 1)
        dx, dx_f = geom.l / (nx + 1), geom.l / (2 * nx)
        for meter in (equilibrium_residual, constitutive_residual):
            reports = meter(raised_cosine_field, grid)
            fine = meter(raised_cosine_field, refined)
            assert [r.observed_order for r in reports] == [
                math.log(r.l2 / f.l2) / math.log(dx / dx_f) for r, f in zip(reports, fine)]


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
            assert row.amplitude_ratio == pytest.approx(1.0, abs=1e-12)
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
        etas = np.linspace(0.0, 1.0, 101)
        assert [row.n for row in rep.rows] == list(range(1, 65))
        for row in rep.rows:
            k, beta = mode_scalars(row.n, geom)
            pb = mode_kernel("B", row.n, geom, mat)
            pc = mode_kernel("C", row.n, geom, mat)
            (vc,) = pc(etas, fields=("V",))
            (vb,) = pb(etas, fields=("V",))
            assert row.beta == beta
            assert row.amplitude_ratio == pytest.approx(
                np.dot(vc, vb) / np.dot(vc, vc), rel=0, abs=1e-15)
            assert row.corrected_shear_face == float(pc(1.0, fields=("X",))[0])

    @pytest.mark.parametrize("l,h,nu", [(2.0, 1.0, 0.3), (1.0, 3.0, 0.499),
                                        (2.0, 20.0, 0.2), (10.0, 0.5, 0.0)])
    def test_rows_equal_single_mode_reports(self, l, h, nu):
        # batching the modes changes no bit of a row, its relative
        # differences included
        geom, mat = Geometry(l, h), Material(E=1.0, nu=nu)
        rep = discrepancy_report(geom, mat, range(1, 65))
        assert rep.rows == tuple(discrepancy_report(geom, mat, [n]).rows[0]
                                 for n in range(1, 65))

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

    def test_nan_divergence_is_a_hard_error(self, mat):
        # at h = 1e-200 the profile differences are NaN, which a plain
        # "greater than the limit" test let through as max_rel_ab = nan
        from platestamp import PathDivergenceError

        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(PathDivergenceError, match="block profiles by nan"):
            discrepancy_report(Geometry(2.0, 1e-200), mat, range(1, 65))
