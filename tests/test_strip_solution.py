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
    PlateStampError,
    SolutionPath,
    assemble_series,
    evaluate_fields,
    sine_coefficients,
    BoundaryProfile,
)
from platestamp.strip_solution import (
    _CLOSED_FORM_MIN_BETA,
    FIELD_NAMES,
    _initial_columns,
    block_profiles,
    closed_profiles,
    initial_amplitudes,
    initial_profiles,
    mode_columns,
)
from platestamp.verification import _uncorrected_shear_face, discrepancy_report

from conftest import closed_form_floor_heights, mode_kernel, mode_scalars

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
            prof = mode_kernel("B", n, geom, mat)
            _, v0, _, x0, _ = prof(0.0)
            _, v1, _, x1, _ = prof(1.0)
            assert v0 == 0.0
            assert x0 == 0.0
            assert x1 == 0.0
            assert v1 == 1.0

    def test_face_normal_stress_mode1(self, geom, mat):
        # independent oracle: the three-block combination evaluated at the
        # face reduces to k (coth b + b/sh(b)^2) / (1-nu); frozen above
        (y1,) = mode_kernel("B", 1, geom, mat)(1.0, fields=("Y",))
        assert float(y1) == pytest.approx(Y1_FACE_MODE1, rel=1e-13)

    def test_profiles_finite_for_extreme_modes(self, geom, mat):
        etas = np.linspace(0, 1, 11)
        assert np.all(np.isfinite(mode_kernel("B", 5000, geom, mat)(etas)))


class TestPathEquivalence:
    def test_all_modes_all_paths(self, geom, mat):
        rep = discrepancy_report(geom, mat, range(1, 65))
        assert rep.max_rel_ab < 1e-10
        assert rep.max_rel_cb < 1e-10

    def test_path_a_boundary_conditions(self, geom, mat):
        for n in (1, 16, 64):
            prof = mode_kernel("A", n, geom, mat)
            scale = np.max(np.abs(prof(np.linspace(0, 1, 101))), axis=1)
            _, v0, _, x0, _ = prof(0.0)
            _, v1, _, x1, _ = prof(1.0)
            assert v0 == 0.0          # pinned by the exact reduction
            assert x0 == 0.0
            assert abs(x1) <= 1e-12 * scale[3]
            assert abs(v1 - 1.0) <= 1e-12 * max(scale[1], 1.0)

    def test_path_a_large_mode_stable(self, geom, mat):
        etas = np.linspace(0, 1, 11)
        assert np.all(np.isfinite(mode_kernel("A", 200, geom, mat)(etas)))

    @pytest.mark.parametrize("l,h", [(1.0, 3.0), (10.0, 0.5), (0.7, 0.7)])
    @pytest.mark.parametrize("nu", [0.0, 0.45, 0.499])
    def test_equivalence_across_materials_and_shapes(self, l, h, nu):
        geom = Geometry(l, h)
        mat = Material(E=1.0, nu=nu)
        rep = discrepancy_report(geom, mat, [1, 5, 40])
        assert rep.calibration_ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.max_rel_ab < 1e-10
        assert rep.max_rel_cb < 1e-10

    def test_mode_degeneracy_error(self, mat):
        # beta ~ 3e7 drives the scaled 2x2 condition number past 1e12
        geom = Geometry(l=1e-7, h=1.0)
        with pytest.raises(ModeDegeneracyError) as err:
            mode_kernel("A", 1, geom, mat)
        assert err.value.n == 1
        assert err.value.cond > 1e12


class TestPathC:
    def test_calibration_ratio_is_unity(self, geom, mat):
        # reported, not applied: path C's amplitude is the sine coefficient
        rep = discrepancy_report(geom, mat, [1])
        assert rep.calibration_ratio == pytest.approx(1.0, abs=1e-12)

    def test_calibration_holds_for_all_modes(self, geom, mat):
        # the same scalar works mode by mode (checked through V-profile fits)
        etas = np.linspace(0, 1, 101)
        for n in (1, 2, 9, 40, 64):
            (vb,) = mode_kernel("B", n, geom, mat)(etas, fields=("V",))
            (vc,) = mode_kernel("C", n, geom, mat)(etas, fields=("V",))
            rho_n = float(np.dot(vc, vb) / np.dot(vc, vc))
            assert rho_n == pytest.approx(1.0, abs=1e-12)

    def test_clamped_face_value_zero(self, geom, mat):
        for n in (1, 10, 64):
            _, v0, _, x0, _ = mode_kernel("C", n, geom, mat)(0.0)
            assert v0 == 0.0
            assert x0 == 0.0

    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_uncorrected_shear_violates_face_condition(self, geom, mat, n):
        """The uncorrected shear factor leaves tau(h) != 0; in bracket units
        the violation equals sh(b)(ch(b) - sh(b)), computed stably as
        (1 - e^(-2b))/2.  The corrected factor cancels exactly."""
        b = mode_scalars(n, geom)[1]
        unfixed = _uncorrected_shear_face(b, mat.nu, geom.h)
        (corrected,) = mode_kernel("C", n, geom, mat)(1.0, fields=("X",))
        # back out the bracket value: X(1) * h * Delta / beta^2
        bracket = float(unfixed) * geom.h * (1 - mat.nu) * math.sinh(b) ** 2 / b**2
        reference = -math.expm1(-2.0 * b) / 2.0   # sh(b)(ch(b)-sh(b))
        assert abs(bracket - reference) < 1e-12
        assert corrected == 0.0

    def test_bad_closed_form_shows_in_calibration_ratio(self, geom, mat, monkeypatch):
        # a path-C V-profile that differs from path B's by more than a
        # scalar is report content: the least-squares ratio leaves 1 and
        # C-B grows, with no raise.  (A broken block profile would break
        # the A-B comparison as well, which raises.)
        import platestamp.verification as verif

        orig = verif.closed_profiles

        def broken(beta, nu, h, eta, *, fields=FIELD_NAMES):
            prof = dict(zip(fields, orig(beta, nu, h, eta, fields=fields)))
            if "V" in prof:
                prof["V"] = prof["V"] + 0.05 * np.asarray(eta)
            return tuple(prof[f] for f in fields)

        monkeypatch.setattr(verif, "closed_profiles", broken)
        rep = discrepancy_report(geom, mat, [1, 2])
        assert abs(rep.calibration_ratio - 1.0) > 1e-3
        assert rep.max_rel_cb > 1e-3
        assert rep.max_rel_ab < 1e-10

    def test_nan_closed_form_plate_fails_report(self, mat):
        # at h = 1e-20 the closed form is NaN: path C refuses the plate
        # (its beta floor), and the report raises through its A-B check
        from platestamp import PathDivergenceError

        geom = Geometry(2.0, 1e-20)
        with pytest.raises(DomainError, match="beta_1"):
            assemble_series([1.0], geom, mat, path="C")
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(PathDivergenceError, match="block profiles by"):
            discrepancy_report(geom, mat, range(1, 65))


def exact_profiles(k, beta, nu, etas):
    """Path B's formulas (:func:`block_profiles`) at 40 digits, rounded
    once: the five profiles of one mode on ``etas``, shape (5, len(etas))."""
    k, b, nu = mp.mpf(k), mp.mpf(beta), mp.mpf(nu)
    sh, ch = mp.sinh(b), mp.cosh(b)
    rows = []
    for eta in etas:
        be = b * mp.mpf(float(eta))
        shr, chr_ = mp.sinh(be) / sh, mp.cosh(be) / sh
        ccr, scr = chr_ * ch / sh, shr * ch / sh
        rows.append([(-(1 - 2 * nu) * chr_ - be * shr + b * ccr) / (2 * (1 - nu)),
                     shr + (b * scr - be * chr_) / (2 * (1 - nu)),
                     (k / (1 - nu)) * (chr_ - be * shr + b * ccr),
                     (k * b / (1 - nu)) * (scr - mp.mpf(float(eta)) * chr_),
                     (k / (1 - nu)) * (chr_ + be * shr - b * ccr)])
    return np.array(rows, dtype=float).T


class TestClosedFormFloor:
    """Path C solves only plates whose beta_1 = pi h / l is at or above
    its floor, where its profiles stay within 1e-8 of the exact ones."""

    def test_below_floor_raises(self, mat):
        h_below, _ = closed_form_floor_heights(2.0)
        geom = Geometry(2.0, h_below)
        with pytest.raises(DomainError, match=r"beta_1 = pi h / l >= 0\.005, got .*path B"):
            assemble_series([1.0, 0.5], geom, mat, path="C")
        for path in "AB":
            assemble_series([1.0, 0.5], geom, mat, path=path)

    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.49])
    def test_at_floor_within_limit(self, nu):
        _, h_at = closed_form_floor_heights(2.0)
        geom, mat = Geometry(2.0, h_at), Material(E=1.0, nu=nu)
        assemble_series([1.0], geom, mat, path="C")
        k, beta = mode_scalars(1, geom)
        assert beta >= _CLOSED_FORM_MIN_BETA
        etas = np.linspace(0.0, 1.0, 101)
        exact = exact_profiles(k, beta, nu, etas)
        got = np.array(mode_kernel("C", 1, geom, mat)(etas))
        scale = np.max(np.abs(exact), axis=1, keepdims=True)
        assert np.max(np.abs(got - exact) / scale) <= 1e-8
        assert discrepancy_report(geom, mat, range(1, 65)).max_rel_cb <= 1e-8


class TestInitialSystem:
    """Path A's 2x2 face system, the V and X rows of the operator table at
    eta = 1.  With C = coth(beta) its determinant is
    -[(1 - 2nu - beta C)^2 + (3 - 4nu - beta C)(1 + beta C)] / (4 (1 - nu)^2),
    in which the beta C and beta^2 C^2 terms cancel: it is -1 exactly, for
    every beta and nu, so a wrong sign or factor in any entry shows."""

    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.49])
    @pytest.mark.parametrize("h_over_l", [5e-5, 5e-3, 0.5, 25.0])
    def test_determinant_is_minus_one(self, h_over_l, nu):
        # modes 1..2048 reach beta = 1.6e5 at h/l = 25
        _, k, beta = mode_columns(range(1, 2049), Geometry(l=2.0, h=2.0 * h_over_l))
        (a00, a01), (a10, a11) = _initial_columns(k, beta, nu, 1.0, ("V", "X"))
        products = a00 * a11, a01 * a10
        bound = 8 * np.finfo(float).eps * (np.abs(products[0]) + np.abs(products[1]))
        assert np.all(np.abs(products[0] - products[1] + 1.0) <= bound)

    @pytest.mark.parametrize("nu", ["0", "0.3", "0.49"])
    @pytest.mark.parametrize("b", ["1e-3", "1", "30"])
    def test_closed_form_determinant(self, b, nu):
        # the entries of _initial_columns at eta = 1 (s = 1, c = C, y = h);
        # k cancels from the determinant
        with mp.workdps(50):
            b, nu, k = mp.mpf(b), mp.mpf(nu), mp.pi / 2
            bc = b * mp.coth(b)
            d2 = 2 * (1 - nu)
            a00, a01 = -((1 - 2 * nu) - bc) / d2, ((3 - 4 * nu) - bc) / (2 * k * d2)
            a10, a11 = 2 * k * (1 + bc) / d2, ((1 - 2 * nu) - bc) / d2
            assert abs(a00 * a11 - a01 * a10 + 1) <= mp.mpf("1e-40")


class TestBatchKernels:
    """The kernels evaluate all modes at once; each row must equal the
    kernel evaluated on that mode's scalar arguments alone, bit for bit."""

    NS = (1, 2, 7, 33, 64, 200)
    ETAS = np.linspace(0.0, 1.0, 33)

    @pytest.mark.parametrize("path", ["A", "B", "C"])
    def test_rows_equal_per_mode_profiles(self, geom, mat, path):
        ns, k, beta = mode_columns(self.NS, geom)
        if path == "A":
            batch = initial_profiles(k, beta, mat.nu, *initial_amplitudes(ns, k, beta, mat.nu),
                                     self.ETAS)
        elif path == "B":
            batch = block_profiles(k, beta, mat.nu, self.ETAS)
        else:
            batch = closed_profiles(beta, mat.nu, geom.h, self.ETAS)
        for i, n in enumerate(self.NS):
            # the batch columns have the bits of the scalar arithmetic
            assert k[i, 0] == n * math.pi / geom.l
            assert beta[i, 0] == k[i, 0] * geom.h
            prof = mode_kernel(path, n, geom, mat)
            for f, rows, row in zip(FIELD_NAMES, batch, prof(self.ETAS)):
                assert np.array_equal(rows[i], row), (n, f)

    def test_field_subset_in_requested_order(self, geom, mat):
        _, k, beta = mode_columns(range(1, 5), geom)
        every = dict(zip(FIELD_NAMES, block_profiles(k, beta, mat.nu, self.ETAS)))
        x, u = block_profiles(k, beta, mat.nu, self.ETAS, fields=("X", "U"))
        assert np.array_equal(x, every["X"]) and np.array_equal(u, every["U"])


def outer_product_fields(sf, xs, ys):
    """Reference for SeriesField.grid_fields: the mode-by-mode sum of
    outer products of each mode's own profiles, accumulated in mode order."""
    geom, mat = sf.geometry, sf.material
    eta = ys / geom.h
    acc = {f: np.zeros((ys.size, xs.size)) for f in FIELD_NAMES}
    for n, c in enumerate(sf.c[:, 0].tolist(), start=1):
        k = mode_scalars(n, geom)[0]
        for f, prof in zip(FIELD_NAMES, mode_kernel(sf.path.value, n, geom, mat)(eta)):
            trig = np.cos if f in ("U", "X") else np.sin
            acc[f] += c * np.outer(prof, trig(k * xs))
    G = mat.G
    return {"u": acc["U"] / G, "v": acc["V"] / G, "sigma_x": acc["SX"],
            "sigma_y": acc["Y"], "tau_xy": acc["X"]}


class TestAssembly:
    def test_single_mode_series(self, geom, mat):
        sf = assemble_series([1.0], geom, mat, path="B")
        assert sf.N == 1 and sf.c.shape == sf.k.shape == sf.beta.shape == (1, 1)
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
        mode_kernel("A", 1, geom, mat)
        with pytest.raises(ModeDegeneracyError) as err:
            assemble_series([1.0, 0.0, 1.0, 1.0], geom, mat, path="A")
        assert err.value.n == 2

    def test_outside_domain_raises(self, geom, mat):
        sf = assemble_series([1.0], geom, mat)
        for x, y in [(-0.1, 0.5), (0.5, 1.1), (math.nan, 0.5), (0.5, math.nan),
                     (math.inf, 0.5)]:
            with pytest.raises(DomainError, match="off the plate"):
                evaluate_fields(sf, x, y)

    @pytest.mark.parametrize("xs,ys,named", [
        ([0.0, 1.0], [0.0, 3.0], "y = 3.0"),
        ([0.0, 1.0], [-0.1, 0.5], "y = -0.1"),
        ([0.0, math.nan, 2.0], [0.5], "x = nan"),
        ([0.0, 2.5, -1.0], [0.5], "x = 2.5"),
        ([-math.inf], [0.5], "x = -inf"),
        ([1.0], [0.5, math.inf], "y = inf"),
    ], ids=["y-3h", "y-negative", "x-nan", "x-first-of-two", "x-minus-inf", "y-inf"])
    def test_grid_points_off_the_plate_rejected(self, geom, mat, xs, ys, named):
        # y = 3h used to give |v| ~ 1e17 and NaN a NaN field, with no error
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        sf = assemble_series(sine_coefficients(profile, geom, 16), geom, mat)
        with pytest.raises(DomainError, match=f"grid point {named} is off the plate"):
            sf.grid_fields(np.array(xs), np.array(ys))

    def test_non_finite_field_raises(self, mat):
        # on l = 1e-300 path B's shear profile overflows and meets a zero
        # ratio: every tau_xy cell is nan, on either summation route
        geom = Geometry(l=1e-300, h=1.0)
        sf = assemble_series([1.0] * 8, geom, mat, path="B")
        ys = np.linspace(0.0, 1.0, 5)
        for xs, cells in ((np.linspace(0.0, geom.l, 5), 25), (np.array([3e-301]), 5)):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(DomainError) as err:
                sf.grid_fields(xs, ys)
            assert str(err.value) == (
                f"field tau_xy is not finite at {cells} of {cells} grid points, first at "
                f"(x, y) = ({xs[0]:g}, 0), with beta_1 = 3.14159e+300 and "
                f"beta_N = 2.51327e+301")

    def test_non_finite_field_names_first_cell(self, geom, mat, monkeypatch):
        # the first non-finite cell in row-major order, y the slow index
        from platestamp import strip_solution

        sums = strip_solution._uniform_x_sums

        def with_nans(*args):
            total = sums(*args)
            total["SX"][4, 1] = np.inf
            total["SX"][2, 3] = np.nan
            return total

        monkeypatch.setattr(strip_solution, "_uniform_x_sums", with_nans)
        sf = assemble_series([1.0, 0.5], geom, mat)
        with pytest.raises(DomainError, match=r"^field sigma_x is not finite at 2 of 30 grid "
                                              r"points, first at \(x, y\) = \(1\.5, 0\.4\), "
                                              r"with beta_1 = 1\.5708 and beta_N = 3\.14159$"):
            sf.grid_fields(np.linspace(0.0, 2.0, 5), np.linspace(0.0, 1.0, 6))

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


def per_mode_grid_fields(sf, xs, ys):
    """Reference for SeriesField.grid_fields, one mode at a time.
    Each active mode's row of a field's block is filled from the mode's
    own kernel call on its scalar arguments, then contracted with the
    same fixed-order einsum."""
    geom, mat = sf.geometry, sf.material
    eta = ys / geom.h
    active = [(n, c) for n, c in enumerate(sf.c[:, 0].tolist(), start=1) if c != 0.0]
    profs = [mode_kernel(sf.path.value, n, geom, mat)(eta) for n, _ in active]
    c = np.array([c for _, c in active]).reshape(-1, 1)
    k = [mode_scalars(n, geom)[0] for n, _ in active]
    total = {}
    for i, f in enumerate(FIELD_NAMES):
        block = np.array([prof[i] for prof in profs])
        trig = np.cos if f in ("U", "X") else np.sin
        total[f] = np.einsum("nj,ni->ji", block, c * trig(np.outer(k, xs)), optimize=False)
    G = mat.G
    return {"u": total["U"] / G, "v": total["V"] / G, "sigma_x": total["SX"],
            "sigma_y": total["Y"], "tau_xy": total["X"]}


def exact_uniform_grid_fields(sf, xs, ys):
    """Reference for SeriesField.grid_fields on uniform ``xs = i l / M``:
    the same float profiles (one mode at a time) and coefficients, summed
    at 40 digits with sin(pi n i / M) and cos(pi n i / M); rounded once."""
    geom, mat = sf.geometry, sf.material
    M = len(xs) - 1
    eta = ys / geom.h
    active = [(n, c) for n, c in enumerate(sf.c[:, 0].tolist(), start=1) if c != 0.0]
    profs = [mode_kernel(sf.path.value, n, geom, mat)(eta) for n, _ in active]
    with mp.workdps(40):
        trig = {}
        for parity, fn in (("sin", mp.sin), ("cos", mp.cos)):
            # one entry per residue n mod 2M, each sum term looks it up
            table = [[fn(mp.pi * r * i / M) for i in range(M + 1)] for r in range(2 * M)]
            trig[parity] = [[table[n % (2 * M)][i] for n, _ in active] for i in range(M + 1)]
        total = {}
        for f_i, f in enumerate(FIELD_NAMES):
            cols = trig["cos" if f in ("U", "X") else "sin"]
            out = np.empty((len(ys), len(xs)))
            for j in range(len(ys)):
                weights = [mp.mpf(c) * mp.mpf(float(prof[f_i][j]))
                           for (_, c), prof in zip(active, profs)]
                for i in range(M + 1):
                    out[j, i] = float(mp.fdot(weights, cols[i]))
            total[f] = out
    G = mat.G
    return {"u": total["U"] / G, "v": total["V"] / G, "sigma_x": total["SX"],
            "sigma_y": total["Y"], "tau_xy": total["X"]}


def is_uniform(geom, xs):
    return xs.size >= 2 and xs.tobytes() == np.linspace(0.0, geom.l, xs.size).tobytes()


class TestGridPass:
    """grid_fields evaluates all fields of a grid with one call of the
    path's kernel over all active modes."""

    KERNELS = {"A": "initial_profiles", "B": "block_profiles", "C": "closed_profiles"}

    @staticmethod
    def grids(geom):
        """Two grids on uniform axes from 0 to l (the transform route) and
        three on other abscissae (the per-mode sum)."""
        return [(np.linspace(0, geom.l, 13), np.linspace(0, geom.h, 29)),
                (np.array([0.3]), np.linspace(0, geom.h, 5)),
                (np.linspace(0, geom.l, 8), np.array([geom.h])),
                (np.array([1.1]), np.array([0.4])),
                (geom.l * np.array([0.0, 0.05, 0.3, 0.55, 1.0]), np.linspace(0, geom.h, 7))]

    @staticmethod
    def series(geom, mat, path, N):
        profile = BoundaryProfile.raised_cosine(1.0, 0.4, 0.01)
        coeffs = sine_coefficients(profile, geom, N)
        coeffs[3] = 0.0
        return assemble_series(coeffs, geom, mat, path=path)

    @pytest.mark.parametrize("path", ["A", "B", "C"])
    def test_one_kernel_call_per_grid(self, geom, mat, path, monkeypatch):
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
        sf = self.series(geom, mat, path, 37)
        assert len(solves) == (1 if path == "A" else 0)
        assert calls == []
        grids = self.grids(geom)
        for xs, ys in grids:
            sf.grid_fields(xs, ys)
        assert calls == [FIELD_NAMES] * len(grids)

    @pytest.mark.parametrize("N", [37, 256])
    @pytest.mark.parametrize("path", ["A", "B", "C"])
    def test_equals_per_mode_reference(self, geom, mat, path, N):
        # off uniform axes, the bits of the per-mode einsum
        sf = self.series(geom, mat, path, N)
        grids = [(xs, ys) for xs, ys in self.grids(geom) if not is_uniform(geom, xs)]
        assert len(grids) == 3
        for xs, ys in grids:
            got = sf.grid_fields(xs, ys)
            want = per_mode_grid_fields(sf, xs, ys)
            assert list(got) == list(want)
            for key, ref in want.items():
                assert got[key].shape == ref.shape == (len(ys), len(xs))
                assert got[key].tobytes() == ref.tobytes(), key

    @pytest.mark.parametrize("N", [37, 256])
    @pytest.mark.parametrize("path", ["A", "B", "C"])
    def test_uniform_axes_match_exact_sum(self, geom, mat, path, N):
        # on uniform axes the transform agrees with the exactly summed
        # series to 1e-14 of each field's scale
        sf = self.series(geom, mat, path, N)
        grids = [(xs, ys) for xs, ys in self.grids(geom) if is_uniform(geom, xs)]
        assert len(grids) == 2
        for xs, ys in grids:
            got = sf.grid_fields(xs, ys)
            want = exact_uniform_grid_fields(sf, xs, ys)
            assert list(got) == list(want)
            for key, ref in want.items():
                assert got[key].shape == ref.shape == (len(ys), len(xs))
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(got[key] - ref)) <= 1e-14 * scale, key

    @pytest.mark.parametrize("path", ["A", "B", "C"])
    def test_sine_fields_positive_zero_at_lateral_edges(self, geom, mat, path):
        sf = self.series(geom, mat, path, 256)
        f = sf.grid_fields(np.linspace(0, geom.l, 101), np.linspace(0, geom.h, 11))
        for key in ("v", "sigma_y", "sigma_x"):
            edges = f[key][:, [0, -1]]
            assert np.all(edges == 0.0) and not np.any(np.signbit(edges)), key

    @pytest.mark.parametrize("path", ["A", "B", "C"])
    def test_zero_coefficients_all_positive_zero(self, geom, mat, path):
        sf = assemble_series(np.zeros(16), geom, mat, path=path)
        for xs, ys in self.grids(geom):
            for key, arr in sf.grid_fields(xs, ys).items():
                assert arr.shape == (len(ys), len(xs))
                assert np.all(arr == 0.0) and not np.any(np.signbit(arr)), key


def _face_multiplier(b, nu):
    """Closed-form face value Y(1) of the normal-stress profile of a mode
    with k = 1 and beta = b: (1/(1 - nu)) (coth b + b / sh^2 b), the
    response of an elastic layer on a frictionless base (Sneddon 1951),
    as (1 + E)/(1 - E) + 4 b E/(1 - E)^2 with E = e^(-2b) and
    1 - E = -expm1(-2b), which cancels nowhere."""
    E = math.exp(-2.0 * b)
    one_minus_E = -math.expm1(-2.0 * b)
    return ((1.0 + E) / one_minus_E + 4.0 * b * E / one_minus_E**2) / (1.0 - nu)


#: 41 log-spaced beta from 1e-5 to 1e5
_FACE_BETAS = np.logspace(-5.0, 5.0, 41)


class TestFaceMultiplier:
    @pytest.mark.parametrize("b", _FACE_BETAS)
    def test_closed_form_matches_mpmath(self, b):
        with mp.workdps(50):
            bm = mp.mpf(float(b))
            want = (mp.sinh(2 * bm) + 2 * bm) / ((mp.cosh(2 * bm) - 1) * (1 - mp.mpf(0.3)))
            got = _face_multiplier(float(b), 0.3)
            assert abs(got - want) <= 1e-15 * abs(want)

    # path A keeps its balanced 2x2 system's beta^2 eps loss (ROADMAP item 2):
    # 4.8e-7 at beta = 1e5, so its face values are checked up to beta = 20
    # only.  The loss already shows below that on other plates: with l = pi
    # (k = 1), path A is off by 3.4e-14 at beta = 17.8
    # path C solves from its beta floor on
    @pytest.mark.parametrize("path,b_min,b_max,tol", [
        pytest.param("B", 0.0, 1e5, 1e-14, id="B-100000.0-1e-14"),
        pytest.param("C", _CLOSED_FORM_MIN_BETA, 1e5, 1e-11, id="C-0.005-100000.0-1e-11"),
        pytest.param("A", 0.0, 20.0, 1e-14, id="A-20.0-1e-14")])
    def test_face_normal_stress_matches_closed_form(self, geom, mat, path, b_min, b_max, tol):
        # mode 1 of the desk plate (k = pi/2) on plates of height 2 b / pi
        worst = 0.0
        for b in _FACE_BETAS[(_FACE_BETAS >= b_min) & (_FACE_BETAS <= b_max)]:
            sf = assemble_series([1.0], Geometry(l=geom.l, h=float(b) / (math.pi / geom.l)),
                                 mat, path=path)
            want = sf.k[0, 0] * _face_multiplier(sf.beta[0, 0], mat.nu)
            worst = max(worst, abs(sf.face_normal_stress(0) - want) / want)
        assert worst <= tol
