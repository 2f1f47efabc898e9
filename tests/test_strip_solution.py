"""Tests for the three per-mode solution routes and series assembly.

Path equivalence is the central oracle: the boundary-solve route (A) and
the closed-form route (C) must land on the building-block route (B) to
1e-10 of each profile's scale, for every mode.  Profile scale is the max
over a fine eta grid; the coarse comparison samples alone can miss the
face boundary layer of a high mode entirely.
"""
import math

import mpmath as mp
import numpy as np
import pytest

from platestamp import (
    DomainError,
    Geometry,
    Material,
    ModeDegeneracyError,
    ModeIndex,
    PlateStampError,
    SolutionPath,
    assemble_series,
    calibrate_delta_ratio,
    evaluate_fields,
    mode_fields_blocks,
    mode_fields_closed,
    mode_fields_initial,
    sine_coefficients,
    BoundaryProfile,
)
from platestamp.strip_solution import (
    FIELD_NAMES,
    block_profiles,
    closed_profiles,
    initial_amplitudes,
    initial_profiles,
    mode_columns,
)
from platestamp.modal_calculus import OperatorId
from platestamp.verification import path_profile_difference

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# frozen regression constants (high-precision evaluation in freeze_constants)
# ---------------------------------------------------------------------------

# mode-1 face value of the normal-stress profile, l=2 h=1 nu=0.3:
# Y(1) = k (sh b ch b + b) / ((1-nu) sh(b)^2), b = k = pi/2
Y1_FACE_MODE1 = 3.1122708992637387


def freeze_constants():
    """Recompute the frozen constant with mpmath; used by the test below."""
    b = mp.pi / 2
    nu = mp.mpf("0.3")
    return float(b * (mp.sinh(b) * mp.cosh(b) + b) / ((1 - nu) * mp.sinh(b) ** 2))


def test_frozen_constants_match_high_precision():
    assert Y1_FACE_MODE1 == pytest.approx(freeze_constants(), rel=1e-15)


class TestPathB:
    def test_boundary_conditions_exact(self, geom, mat):
        for n in (1, 7, 33, 64):
            prof = mode_fields_blocks(ModeIndex.for_mode(n, geom), geom, mat)
            assert prof.V(0.0) == 0.0
            assert prof.X(0.0) == 0.0
            assert prof.X(1.0) == 0.0
            assert prof.V(1.0) == 1.0

    def test_face_normal_stress_mode1(self, geom, mat):
        # independent oracle: the three-block combination evaluated at the
        # face reduces to k (coth b + b/sh(b)^2) / (1-nu); frozen above
        prof = mode_fields_blocks(ModeIndex.for_mode(1, geom), geom, mat)
        assert float(prof.Y(1.0)) == pytest.approx(Y1_FACE_MODE1, rel=1e-13)

    def test_profiles_finite_for_extreme_modes(self, geom, mat):
        etas = np.linspace(0, 1, 11)
        prof = mode_fields_blocks(ModeIndex.for_mode(5000, geom), geom, mat)
        assert np.all(np.isfinite(prof.profile_matrix(etas)))


class TestPathEquivalence:
    def test_all_modes_all_paths(self, geom, mat):
        rho = calibrate_delta_ratio(geom, mat)
        worst_ab = worst_cb = 0.0
        for n in range(1, 65):
            mode = ModeIndex.for_mode(n, geom)
            pb = mode_fields_blocks(mode, geom, mat)
            pa = mode_fields_initial(mode, geom, mat)
            pc = mode_fields_closed(mode, geom, mat, delta_ratio=rho)
            worst_ab = max(worst_ab, path_profile_difference(pa, pb))
            worst_cb = max(worst_cb, path_profile_difference(pc, pb))
        assert worst_ab < 1e-10
        assert worst_cb < 1e-10

    def test_path_a_boundary_conditions(self, geom, mat):
        for n in (1, 16, 64):
            prof = mode_fields_initial(ModeIndex.for_mode(n, geom), geom, mat)
            scale = np.max(np.abs(prof.profile_matrix(np.linspace(0, 1, 101))), axis=1)
            assert prof.V(0.0) == 0.0          # pinned by the exact reduction
            assert prof.X(0.0) == 0.0
            assert abs(prof.X(1.0)) <= 1e-12 * scale[3]
            assert abs(prof.V(1.0) - 1.0) <= 1e-12 * max(scale[1], 1.0)

    def test_path_a_large_mode_stable(self, geom, mat):
        etas = np.linspace(0, 1, 11)
        prof = mode_fields_initial(ModeIndex.for_mode(200, geom), geom, mat)
        assert np.all(np.isfinite(prof.profile_matrix(etas)))

    @pytest.mark.parametrize("l,h", [(1.0, 3.0), (10.0, 0.5), (0.7, 0.7)])
    @pytest.mark.parametrize("nu", [0.0, 0.45, 0.499])
    def test_equivalence_across_materials_and_shapes(self, l, h, nu):
        geom = Geometry(l, h)
        mat = Material(E=1.0, nu=nu)
        rho = calibrate_delta_ratio(geom, mat)
        assert rho == pytest.approx(1.0, abs=1e-12)
        for n in (1, 5, 40):
            mode = ModeIndex.for_mode(n, geom)
            pb = mode_fields_blocks(mode, geom, mat)
            assert path_profile_difference(mode_fields_initial(mode, geom, mat), pb) < 1e-10
            assert path_profile_difference(
                mode_fields_closed(mode, geom, mat, delta_ratio=rho), pb) < 1e-10

    def test_mode_degeneracy_error(self, mat):
        # beta ~ 3e7 drives the scaled 2x2 condition number past 1e12
        geom = Geometry(l=1e-7, h=1.0)
        with pytest.raises(ModeDegeneracyError) as err:
            mode_fields_initial(ModeIndex.for_mode(1, geom), geom, mat)
        assert err.value.n == 1
        assert err.value.cond > 1e12


class TestPathC:
    def test_calibration_ratio_is_unity(self, geom, mat):
        rho = calibrate_delta_ratio(geom, mat)
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_calibration_holds_for_all_modes(self, geom, mat):
        # the same scalar works mode by mode (checked through V-profile fits)
        etas = np.linspace(0, 1, 101)
        for n in (1, 2, 9, 40, 64):
            mode = ModeIndex.for_mode(n, geom)
            vb = mode_fields_blocks(mode, geom, mat).V(etas)
            vc = mode_fields_closed(mode, geom, mat, delta_ratio=1.0).V(etas)
            rho_n = float(np.dot(vc, vb) / np.dot(vc, vc))
            assert rho_n == pytest.approx(1.0, abs=1e-12)

    def test_clamped_face_value_zero(self, geom, mat):
        for n in (1, 10, 64):
            prof = mode_fields_closed(ModeIndex.for_mode(n, geom), geom, mat,
                                      delta_ratio=1.0)
            assert prof.V(0.0) == 0.0
            assert prof.X(0.0) == 0.0

    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_uncorrected_shear_violates_face_condition(self, geom, mat, n):
        """The uncorrected shear factor leaves tau(h) != 0; in bracket units
        the violation equals sh(b)(ch(b) - sh(b)), computed stably as
        (1 - e^(-2b))/2.  The corrected factor cancels exactly."""
        mode = ModeIndex.for_mode(n, geom)
        unfixed = mode_fields_closed(mode, geom, mat, delta_ratio=1.0,
                                     uncorrected_shear=True)
        corrected = mode_fields_closed(mode, geom, mat, delta_ratio=1.0)
        b = mode.beta
        # back out the bracket value: X(1) * h * Delta / beta^2
        bracket = float(unfixed.X(1.0)) * geom.h * (1 - mat.nu) * math.sinh(b) ** 2 / b**2
        reference = -math.expm1(-2.0 * b) / 2.0   # sh(b)(ch(b)-sh(b))
        assert abs(bracket - reference) < 1e-12
        assert corrected.X(1.0) == 0.0

    def test_bad_closed_form_fails_calibration(self, geom, mat):
        # sanity: the calibration residual check has teeth; a profile pair
        # that differs by more than a scalar cannot be least-squares matched
        from platestamp import PathDivergenceError
        import platestamp.strip_solution as ss

        orig = ss.mode_fields_blocks

        def broken(mode, geom_, mat_):
            prof = orig(mode, geom_, mat_)
            return type(prof)(mode=prof.mode, path=prof.path,
                              U=prof.U, V=lambda eta: prof.V(eta) + 0.05 * np.asarray(eta),
                              Y=prof.Y, X=prof.X, SX=prof.SX)

        ss.mode_fields_blocks = broken
        try:
            with pytest.raises(PathDivergenceError):
                calibrate_delta_ratio(geom, mat)
        finally:
            ss.mode_fields_blocks = orig


class TestBatchKernels:
    """The kernels evaluate all modes at once; each row must be the
    per-mode profile bit for bit, since the per-mode builders bind one
    mode to the same kernels."""

    NS = (1, 2, 7, 33, 64, 200)
    ETAS = np.linspace(0.0, 1.0, 33)

    @pytest.mark.parametrize("path", ["A", "B", "C", "C-uncorrected"])
    def test_rows_equal_per_mode_profiles(self, geom, mat, path):
        rho = calibrate_delta_ratio(geom, mat)
        ns, k, beta = mode_columns(self.NS, geom)
        uncorrected = path == "C-uncorrected"
        if path == "A":
            batch = initial_profiles(k, beta, mat.nu, *initial_amplitudes(ns, k, beta, mat.nu),
                                     self.ETAS)
        elif path == "B":
            batch = block_profiles(k, beta, mat.nu, self.ETAS)
        else:
            batch = closed_profiles(beta, mat.nu, geom.h, rho, self.ETAS,
                                    uncorrected_shear=uncorrected)
        for i, n in enumerate(self.NS):
            mode = ModeIndex.for_mode(n, geom)
            assert (k[i, 0], beta[i, 0]) == (mode.k, mode.beta)
            if path == "A":
                prof = mode_fields_initial(mode, geom, mat)
            elif path == "B":
                prof = mode_fields_blocks(mode, geom, mat)
            else:
                prof = mode_fields_closed(mode, geom, mat, delta_ratio=rho,
                                          uncorrected_shear=uncorrected)
            for f, rows in zip(FIELD_NAMES, batch):
                assert np.array_equal(rows[i], getattr(prof, f)(self.ETAS)), (n, f)

    def test_field_subset_in_requested_order(self, geom, mat):
        _, k, beta = mode_columns(range(1, 5), geom)
        every = dict(zip(FIELD_NAMES, block_profiles(k, beta, mat.nu, self.ETAS)))
        x, u = block_profiles(k, beta, mat.nu, self.ETAS, fields=("X", "U"))
        assert np.array_equal(x, every["X"]) and np.array_equal(u, every["U"])


def outer_product_fields(sf, xs, ys):
    """Reference for SeriesField.grid_fields: the mode-by-mode sum of
    outer products, accumulated in mode order."""
    eta = ys / sf.geometry.h
    acc = {f: np.zeros((ys.size, xs.size)) for f in FIELD_NAMES}
    for mode, c, prof in sf.modes:
        for f in FIELD_NAMES:
            trig = np.cos if f in ("U", "X") else np.sin
            acc[f] += c * np.outer(getattr(prof, f)(eta), trig(mode.k * xs))
    G = sf.material.G
    return {"u": acc["U"] / G, "v": acc["V"] / G, "sigma_x": acc["SX"],
            "sigma_y": acc["Y"], "tau_xy": acc["X"]}


class TestAssembly:
    def test_single_mode_series(self, geom, mat):
        sf = assemble_series([1.0], geom, mat, path="B")
        assert sf.N == 1 and len(sf.modes) == 1
        sample = evaluate_fields(sf, 0.5, 0.5)
        assert np.isfinite(sample.v)

    def test_zero_coefficients_zero_fields(self, geom, mat):
        sf = assemble_series([0.0, 0.0, 0.0], geom, mat)
        f = sf.grid_fields(np.linspace(0, geom.l, 5), np.linspace(0, geom.h, 5))
        for arr in f.values():
            assert np.all(arr == 0.0)

    def test_paths_agree_pointwise(self, geom, mat):
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        coeffs = sine_coefficients(profile, geom, 16)
        sfs = {p: assemble_series(coeffs, geom, mat, path=p) for p in "ABC"}
        xs = np.linspace(0, geom.l, 9)
        ys = np.linspace(0, geom.h, 7)
        fb = sfs["B"].grid_fields(xs, ys)
        for p in "AC":
            fp = sfs[p].grid_fields(xs, ys)
            for key in fb:
                scale = np.max(np.abs(fb[key])) or 1.0
                assert np.max(np.abs(fp[key] - fb[key])) < 1e-10 * scale, (p, key)

    def test_evaluate_boundary_conditions(self, geom, mat):
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        sf = assemble_series(sine_coefficients(profile, geom, 32), geom, mat)
        for x in (0.0, 0.7, 1.9):
            bottom = evaluate_fields(sf, x, 0.0)
            assert bottom.v == 0.0
            assert bottom.tau_xy == 0.0
            top = evaluate_fields(sf, x, geom.h)
            assert top.tau_xy == 0.0

    def test_face_displacement_reproduction(self, geom, mat):
        # v(x, h) equals the N-term sine reconstruction of V_h / G
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        N = 64
        coeffs = sine_coefficients(profile, geom, N)
        sf = assemble_series(coeffs, geom, mat)
        xs = np.linspace(0, geom.l, 41)
        ns = np.arange(1, N + 1)
        recon = np.einsum("n,np->p", coeffs, np.sin(np.outer(ns, xs) * np.pi / geom.l))
        v_face = sf.grid_fields(xs, np.array([geom.h]))["v"][0]
        assert np.max(np.abs(v_face * mat.G - recon)) < 1e-9 * np.max(np.abs(recon))

    def test_lateral_edges_vanish(self, geom, mat):
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        sf = assemble_series(sine_coefficients(profile, geom, 64), geom, mat)
        ys = np.linspace(0, geom.h, 9)
        f0 = sf.grid_fields(np.array([0.0]), ys)
        fl = sf.grid_fields(np.array([geom.l]), ys)
        scale = float(np.max(np.abs(
            sf.grid_fields(np.linspace(0, geom.l, 21), ys)["sigma_y"])))
        for f in (f0, fl):
            assert np.max(np.abs(f["v"])) <= 1e-12 * scale
            assert np.max(np.abs(f["sigma_y"])) <= 1e-12 * scale
            assert np.max(np.abs(f["sigma_x"])) <= 1e-12 * scale

    @pytest.mark.parametrize("path,N", [("B", 256), ("A", 24), ("C", 24)])
    def test_grid_fields_match_outer_product_sum(self, geom, mat, path, N):
        # one contraction per field sums the same terms in another order:
        # agreement to 1e-13 of each field's scale
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        sf = assemble_series(sine_coefficients(profile, geom, N), geom, mat, path=path)
        xs = np.linspace(0, geom.l, 37)
        ys = np.linspace(0, geom.h, 29)
        got = sf.grid_fields(xs, ys)
        want = outer_product_fields(sf, xs, ys)
        for key, ref in want.items():
            assert got[key].shape == ref.shape
            assert np.max(np.abs(got[key] - ref)) <= 1e-13 * np.max(np.abs(ref)), key

    @pytest.mark.parametrize("path", ["A", "B", "C"])
    def test_grid_fields_many_equals_separate_calls(self, geom, mat, path):
        # one profile pass over the eta rows of all grids gives each grid
        # the bits of its own call; a zero coefficient is skipped in both
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        coeffs = sine_coefficients(profile, geom, 24)
        coeffs[3] = 0.0
        sf = assemble_series(coeffs, geom, mat, path=path)
        grids = [(np.linspace(0, geom.l, 37), np.linspace(0, geom.h, 29)),
                 (np.array([0.3]), np.linspace(0, geom.h, 5)),
                 (np.linspace(0, geom.l, 8), np.array([geom.h])),
                 (np.array([1.1]), np.array([0.4]))]
        many = sf.grid_fields_many(grids)
        assert len(many) == len(grids)
        for (xs, ys), got in zip(grids, many):
            want = sf.grid_fields(xs, ys)
            assert list(got) == list(want)
            for key, ref in want.items():
                assert got[key].shape == ref.shape == (len(ys), len(xs))
                assert got[key].tobytes() == ref.tobytes(), key

    def test_rejects_empty_coefficients(self, geom, mat):
        with pytest.raises(DomainError):
            assemble_series([], geom, mat)

    @pytest.mark.parametrize("coeffs,bad_mode", [([1.0, np.nan], 2),
                                                 ([0.5, 1.0, np.inf, np.nan], 3),
                                                 ([-np.inf], 1)])
    def test_rejects_non_finite_coefficients(self, geom, mat, coeffs, bad_mode):
        with pytest.raises(DomainError, match=f"mode {bad_mode} "):
            assemble_series(coeffs, geom, mat)

    def test_path_a_degeneracy_names_lowest_mode(self, mat):
        # mode 1 solves; every mode from 2 on is too ill-conditioned
        geom = Geometry(l=1e-5, h=1.0)
        mode_fields_initial(ModeIndex.for_mode(1, geom), geom, mat)
        with pytest.raises(ModeDegeneracyError) as err:
            assemble_series([1.0, 0.0, 1.0, 1.0], geom, mat, path="A")
        assert err.value.n == 2

    def test_path_a_identity_row_failure_names_mode(self, geom, mat, monkeypatch):
        import platestamp.strip_solution as ss

        orig = ss._operator_multiplier

        def broken(op, k, y, s, c, nu):
            # L_XX enters only the y = 0 identity rows; break it from mode 3
            value = orig(op, k, y, s, c, nu)
            if op is OperatorId.L_XX:
                return np.where(k > 2.0 * math.pi / geom.l, 0.5, value)
            return value

        monkeypatch.setattr(ss, "_operator_multiplier", broken)
        with pytest.raises(PlateStampError, match="L_XX .*mode n=3"):
            assemble_series([1.0] * 5, geom, mat, path="A")

    def test_outside_domain_raises(self, geom, mat):
        sf = assemble_series([1.0], geom, mat)
        with pytest.raises(DomainError):
            evaluate_fields(sf, -0.1, 0.5)

    def test_path_enum_accepts_strings(self, geom, mat):
        sf = assemble_series([1.0], geom, mat, path="C")
        assert sf.path is SolutionPath.C

    def test_linear_in_coefficients(self, geom, mat):
        # doubling every coefficient exactly doubles every field value
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        coeffs = sine_coefficients(profile, geom, 8)
        xs = np.linspace(0, geom.l, 5)
        ys = np.linspace(0, geom.h, 5)
        f1 = assemble_series(coeffs, geom, mat).grid_fields(xs, ys)
        f2 = assemble_series(2.0 * coeffs, geom, mat).grid_fields(xs, ys)
        for key in f1:
            assert np.array_equal(f2[key], 2.0 * f1[key])


def per_mode_grid_fields(sf, xs, ys, rho):
    """Reference for SeriesField.grid_fields_many, one mode at a time.
    Each active mode's row of a field's block is filled from
    the mode's own ``mode_fields_*`` profiles, then contracted with the
    same fixed-order einsum."""
    geom, mat = sf.geometry, sf.material
    eta = ys / geom.h
    active = [(mode, c) for mode, c, _ in sf.modes if c != 0.0]
    builders = {
        SolutionPath.A: lambda m: mode_fields_initial(m, geom, mat),
        SolutionPath.B: lambda m: mode_fields_blocks(m, geom, mat),
        SolutionPath.C: lambda m: mode_fields_closed(m, geom, mat, delta_ratio=rho),
    }
    profs = [builders[sf.path](mode) for mode, _ in active]
    c = np.array([c for _, c in active]).reshape(-1, 1)
    k = [mode.k for mode, _ in active]
    total = {}
    for f in FIELD_NAMES:
        block = np.empty((len(active), eta.size))
        for row, prof in zip(block, profs):
            row[:] = getattr(prof, f)(eta)
        trig = np.cos if f in ("U", "X") else np.sin
        total[f] = np.einsum("nj,ni->ji", block, c * trig(np.outer(k, xs)), optimize=False)
    G = mat.G
    return {"u": total["U"] / G, "v": total["V"] / G, "sigma_x": total["SX"],
            "sigma_y": total["Y"], "tau_xy": total["X"]}


class TestGridPass:
    """grid_fields_many evaluates each field of each grid with one call of
    the path's kernel over all active modes."""

    KERNELS = {"A": "initial_profiles", "B": "block_profiles", "C": "closed_profiles"}

    @staticmethod
    def grids(geom):
        return [(np.linspace(0, geom.l, 13), np.linspace(0, geom.h, 29)),
                (np.array([0.3]), np.linspace(0, geom.h, 5)),
                (np.linspace(0, geom.l, 8), np.array([geom.h])),
                (np.array([1.1]), np.array([0.4]))]

    @staticmethod
    def series(geom, mat, path, N):
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        coeffs = sine_coefficients(profile, geom, N)
        coeffs[3] = 0.0
        return assemble_series(coeffs, geom, mat, path=path)

    @pytest.mark.parametrize("path", ["A", "B", "C"])
    def test_one_kernel_call_per_field_per_grid(self, geom, mat, path, monkeypatch):
        import platestamp.strip_solution as ss

        calls = []

        def counting(kernel):
            def counted(*args, fields, **options):
                calls.append(fields)
                return kernel(*args, fields=fields, **options)
            return counted

        for name in self.KERNELS.values():
            monkeypatch.setattr(ss, name, counting(getattr(ss, name)))
        solves = []
        amplitudes = ss.initial_amplitudes
        monkeypatch.setattr(ss, "initial_amplitudes",
                            lambda *args: solves.append(args) or amplitudes(*args))
        # patched before assembly, so the per-mode closures call the
        # counting kernel too: any closure call would show in the count
        sf = self.series(geom, mat, path, 37)
        assert len(solves) == (1 if path == "A" else 0)
        calls.clear()
        grids = self.grids(geom)
        sf.grid_fields_many(grids)
        assert sorted(calls) == sorted([(f,) for f in FIELD_NAMES] * len(grids))

    @pytest.mark.parametrize("N", [37, 256])
    @pytest.mark.parametrize("path", ["A", "B", "C"])
    def test_equals_per_mode_reference(self, geom, mat, path, N):
        sf = self.series(geom, mat, path, N)
        rho = calibrate_delta_ratio(geom, mat)
        grids = self.grids(geom)
        for (xs, ys), got in zip(grids, sf.grid_fields_many(grids)):
            want = per_mode_grid_fields(sf, xs, ys, rho)
            assert list(got) == list(want)
            for key, ref in want.items():
                assert got[key].shape == ref.shape == (len(ys), len(xs))
                assert got[key].tobytes() == ref.tobytes(), key
