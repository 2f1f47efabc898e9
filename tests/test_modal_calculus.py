"""Tests for the per-mode formulas the solution paths run.

The building blocks are evaluated from the ratio profiles of path B's
kernel (``strip_solution._ratios``) and checked against mpmath reference
forms, their y- and h-derivative identities and a discrete Laplacian.
The transfer operators are evaluated by path A's multiplier table
(``modal_calculus._operator_multiplier``, raw from sinh/cosh or scaled by
sh(k h) through ``strip_solution._scaled_ops``) and checked against two
independent oracles:

* a truncated power-series application of each operator to sin(k x),
  using only alpha^p sin(kx) = k^p sin(kx + p pi/2) (plain calculus, no
  hyperbolic identities), convergent for beta <= 3;
* the first-order ODE system in y that the operator matrix is the
  propagator of, via central differences (this pins the two sign
  corrections baked into the table).

The x-parity of each block and operator is oracle data kept here.
"""
import math

import mpmath as mp
import numpy as np
import pytest

from platestamp import (
    DomainError,
    Geometry,
    Material,
    MaterialError,
    SingularRatioError,
)
from platestamp.core import Parity
from platestamp.modal_calculus import OperatorId, RatioKind, _operator_multiplier, stable_ratio
from platestamp.strip_solution import (
    FIELD_PARITIES,
    _INITIAL_ROWS,
    _ratios,
    _scaled_ops,
    mode_columns,
)

from conftest import mode_scalars

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# stable_ratio
# ---------------------------------------------------------------------------

class TestStableRatio:
    @pytest.mark.parametrize("a,b", [(0.3, 1.0), (1.0, 1.0), (2.5, 7.0),
                                     (0.0, 5.0), (12.0, 30.0), (29.9, 30.0)])
    def test_matches_naive_hyperbolics(self, a, b):
        naive = {
            RatioKind.SH_SH: math.sinh(a) / math.sinh(b),
            RatioKind.CH_SH: math.cosh(a) / math.sinh(b),
            RatioKind.CHCH_SHSH: math.cosh(a) * math.cosh(b) / math.sinh(b) ** 2,
        }
        for kind, expected in naive.items():
            got = stable_ratio(kind, a, b)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_equal_large_arguments_exact(self):
        # naive sinh(700) overflows; the ratio is exactly 1
        assert stable_ratio(RatioKind.SH_SH, 700.0, 700.0) == 1.0

    def test_zero_numerator(self):
        assert stable_ratio(RatioKind.SH_SH, 0.0, 5.0) == 0.0

    def test_coth_reference(self):
        # ch(1)/sh(1) against a high-precision reference
        expected = float(mp.coth(1))
        assert stable_ratio(RatioKind.CH_SH, 1.0, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_large_arguments_finite(self):
        for kind in RatioKind:
            v = stable_ratio(kind, 900.0, 1000.0)
            assert np.isfinite(v)

    def test_zero_denominator_raises(self):
        with pytest.raises(SingularRatioError):
            stable_ratio(RatioKind.SH_SH, 0.0, 0.0)

    def test_negative_numerator_raises(self):
        with pytest.raises(DomainError):
            stable_ratio(RatioKind.CH_SH, -1.0, 2.0)

    def test_array_input(self):
        a = np.array([0.0, 1.0, 2.0])
        out = stable_ratio(RatioKind.SH_SH, a, 2.0)
        expected = np.sinh(a) / math.sinh(2.0)
        assert np.allclose(out, expected, rtol=1e-13)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

#: the ratio profiles of ``_ratios`` after beta*eta, in its order
_RATIO_NAMES = ("sh/sh", "ch/sh", "chch/sh2", "shch/sh2")

# Each building block of path B is one of the ratio profiles times a
# power of +-k: (ratio, sign, power of k, x-parity, reference form b(k, y, h)).
_BLOCKS = {
    "b10": ("sh/sh", 1, 0, Parity.SINE,
            lambda k, y, h: mp.sinh(k * y) / mp.sinh(k * h)),
    "b11": ("ch/sh", -1, 0, Parity.COSINE,
            lambda k, y, h: -mp.cosh(k * y) / mp.sinh(k * h)),
    "b12": ("sh/sh", 1, 1, Parity.COSINE,
            lambda k, y, h: k * mp.sinh(k * y) / mp.sinh(k * h)),
    "b13": ("ch/sh", 1, 1, Parity.SINE,
            lambda k, y, h: k * mp.cosh(k * y) / mp.sinh(k * h)),
    "b14": ("sh/sh", -1, 2, Parity.SINE,
            lambda k, y, h: -k**2 * mp.sinh(k * y) / mp.sinh(k * h)),
    "b15": ("ch/sh", 1, 2, Parity.COSINE,
            lambda k, y, h: k**2 * mp.cosh(k * y) / mp.sinh(k * h)),
    "b16": ("chch/sh2", -1, 1, Parity.COSINE,
            lambda k, y, h: -k * mp.cosh(k * y) * mp.cosh(k * h) / mp.sinh(k * h)**2),
    "b17": ("chch/sh2", 1, 2, Parity.SINE,
            lambda k, y, h: k**2 * mp.cosh(k * y) * mp.cosh(k * h) / mp.sinh(k * h)**2),
}


def _block_ids(name):
    # the ids these tests have always been collected under
    return f"OperatorId.{name.upper()}"


def _block(name, k, beta, eta):
    """Block ``name`` of the mode (k, beta) at eta = y/h, from the kernel's
    ratio profiles."""
    ratio, sign, power, _, _ = _BLOCKS[name]
    _, *ratios = _ratios(beta, eta)
    return sign * k**power * dict(zip(_RATIO_NAMES, ratios))[ratio]


class TestBuildingBlocks:
    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_face_value_is_identity(self, geom, n):
        # the block reproducing the prescribed face data: value 1 at y=h...
        k, beta = mode_scalars(n, geom)
        assert _block("b10", k, beta, 1.0) == 1.0
        # ...and 0 on the clamped face
        assert _block("b10", k, beta, 0.0) == 0.0

    def test_b11_reference_value(self):
        # l=pi, h=1, n=1, y=0: -ch(0)/sh(1)
        k, beta = mode_scalars(1, Geometry(l=math.pi, h=1.0))
        assert _block("b11", k, beta, 0.0) == pytest.approx(
            float(-1 / mp.sinh(1)), rel=1e-14)

    @pytest.mark.parametrize("op", _BLOCKS, ids=_block_ids)
    @pytest.mark.parametrize("n,y", [(1, 0.25), (3, 0.8), (7, 1.0)])
    def test_against_reference_forms(self, geom, op, n, y):
        k, beta = mode_scalars(n, geom)
        ref_fn = _BLOCKS[op][4]
        got = _block(op, k, beta, y / geom.h)
        assert got == pytest.approx(float(ref_fn(mp.mpf(k), mp.mpf(y), mp.mpf(geom.h))),
                                    rel=1e-12)

    @pytest.mark.parametrize("n,y", [(1, 0.0), (3, 0.25), (7, 0.8), (40, 1.0)])
    def test_companion_ratio_reference(self, geom, n, y):
        # sh(ky)ch(kh)/sh(kh)^2, the ratio of the sh(ky)-companions of b16
        # and b17 in the V and X profiles
        k, beta = mode_scalars(n, geom)
        k, yy, h = mp.mpf(k), mp.mpf(y), mp.mpf(geom.h)
        expected = float(mp.sinh(k * yy) * mp.cosh(k * h) / mp.sinh(k * h) ** 2)
        assert _ratios(beta, y / geom.h)[4] == pytest.approx(expected, rel=1e-12,
                                                                  abs=1e-300)

    def test_y_derivative_identities(self, geom):
        # d/dy of the face block equals its gradient companions:
        # d/dy b10 = b13 multiplier = -k * b11 multiplier
        delta = 1e-5 * geom.h
        for n in (1, 3, 8):
            k, beta = mode_scalars(n, geom)
            for y in (0.2, 0.5, 0.9):
                dd = (_block("b10", k, beta, (y + delta) / geom.h)
                      - _block("b10", k, beta, (y - delta) / geom.h)) / (2 * delta)
                b13 = _block("b13", k, beta, y / geom.h)
                b11 = _block("b11", k, beta, y / geom.h)
                scale = abs(b13) + 1.0
                assert dd == pytest.approx(b13, abs=1e-7 * scale)
                assert dd == pytest.approx(-k * b11, abs=1e-7 * scale)

    def test_h_derivative_identity(self, geom):
        # -d/dh of b11 equals the b16 multiplier (the height-gradient block)
        delta = 1e-5 * geom.h
        for n in (1, 3, 6):
            for y in (0.0, 0.4, 0.85):
                vals = []
                for h_pert in (geom.h + delta, geom.h - delta):
                    k, beta = mode_scalars(n, Geometry(l=geom.l, h=h_pert))
                    vals.append(_block("b11", k, beta, y / h_pert))
                dd = -(vals[0] - vals[1]) / (2 * delta)
                k, beta = mode_scalars(n, geom)
                b16 = _block("b16", k, beta, y / geom.h)
                assert dd == pytest.approx(b16, rel=1e-6)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("op", _BLOCKS, ids=_block_ids)
    def test_harmonicity(self, geom, op, n):
        # 5-point Laplacian of block(y) * trig(k x) shrinks at O(h^2)
        k, beta = mode_scalars(n, geom)
        trig = np.sin if _BLOCKS[op][3] is Parity.SINE else np.cos

        def field(step):
            xs = np.arange(0.3, 0.3 + 5 * step, step)[:5]
            ys = np.arange(0.4, 0.4 + 5 * step, step)[:5]
            vals = np.empty((5, 5))
            for j, y in enumerate(ys):
                vals[j] = _block(op, k, beta, y / geom.h) * trig(k * xs)
            lap = (vals[2, 3] + vals[2, 1] + vals[3, 2] + vals[1, 2] - 4 * vals[2, 2]) / step**2
            return abs(lap), np.max(np.abs(vals))

        # two step sizes, expect ~4x residual drop; the truncation constant
        # scales like k^4 so only the order is asserted tightly
        step = 2e-3
        r1, scale = field(step)
        r2, _ = field(step / 2)
        assert r1 < step**2 * k**4 * max(scale, 1e-300)
        order = math.log2(r1 / r2) if r2 > 0 else 2.0
        assert order > 1.9

    def test_domain_errors(self, geom):
        # the ratio profiles reject a height below the plate; modes start at 1
        with pytest.raises(DomainError):
            _ratios(mode_scalars(1, geom)[1], -0.1)
        with pytest.raises(DomainError, match="n=0"):
            mode_columns([0], geom)


# ---------------------------------------------------------------------------
# transfer operators
# ---------------------------------------------------------------------------

def _series_terms(op: OperatorId, y, nu):
    """Independent term table: each operator as sum of coef * alpha^q * trig(alpha y).

    Transcribed from the closed symbolic forms, with the two consistency
    corrections (the + sign on the cos term of L_UX, the overall - on L_YV).
    """
    c2 = 1 / (2 * (1 - nu))
    c4 = 1 / (4 * (1 - nu))
    T = {
        OperatorId.L_UU: [(1, "cos", 0), (-y * c2, "sin", 1)],
        OperatorId.L_UV: [(-(1 - 2 * nu) * c2, "sin", 0), (-y * c2, "cos", 1)],
        OperatorId.L_UY: [(-y * c4, "sin", 0)],
        OperatorId.L_UX: [((3 - 4 * nu) * c4, "sin", -1), (y * c4, "cos", 0)],
        OperatorId.L_VU: [((1 - 2 * nu) * c2, "sin", 0), (-y * c2, "cos", 1)],
        OperatorId.L_VV: [(y * c2, "sin", 1), (1, "cos", 0)],
        OperatorId.L_VY: [((3 - 4 * nu) * c4, "sin", -1), (-y * c4, "cos", 0)],
        OperatorId.L_YU: [(y / (1 - nu), "sin", 2)],
        OperatorId.L_YV: [(-1 / (1 - nu), "sin", 1), (y / (1 - nu), "cos", 2)],
        OperatorId.L_XU: [(-1 / (1 - nu), "sin", 1), (-y / (1 - nu), "cos", 2)],
        OperatorId.A_U: [(2 / (1 - nu), "cos", 1), (-y / (1 - nu), "sin", 2)],
        OperatorId.A_Y: [(nu / (1 - nu), "cos", 0), (-y * c2, "sin", 1)],
        OperatorId.A_X: [(y * c2, "cos", 1), ((3 - 2 * nu) * c2, "sin", 0)],
    }
    aliases = {
        OperatorId.L_VX: OperatorId.L_UY,
        OperatorId.L_YY: OperatorId.L_VV,
        OperatorId.L_YX: OperatorId.L_UV,
        OperatorId.L_XV: OperatorId.L_YU,
        OperatorId.L_XY: OperatorId.L_VU,
        OperatorId.L_XX: OperatorId.L_UU,
        OperatorId.A_V: OperatorId.L_XU,
    }
    return T[aliases.get(op, op)]


def _apply_power_series(op, k, y, x, nu, n_terms=18):
    """Apply the operator's power series in alpha = d/dx to sin(k x) at x,
    using alpha^p sin(kx) = k^p sin(kx + p pi/2)."""
    total = mp.mpf(0)
    for coef, trig, q in _series_terms(op, mp.mpf(y), mp.mpf(nu)):
        for m in range(n_terms):
            if trig == "cos":
                j = 2 * m
                c = mp.mpf((-1) ** m) / mp.factorial(2 * m)
            else:
                j = 2 * m + 1
                c = mp.mpf((-1) ** m) / mp.factorial(2 * m + 1)
            p = j + q
            total += coef * c * mp.mpf(y) ** j * k ** p * mp.sin(k * x + p * mp.pi / 2)
    return float(total)


#: transfer operators odd in a = d/dx: they flip the x-parity of a mode,
#: and on a cos(k x) mode their multiplier changes sign
_ODD = frozenset({
    OperatorId.L_UV, OperatorId.L_UY, OperatorId.L_VU, OperatorId.L_VX,
    OperatorId.L_YU, OperatorId.L_YX, OperatorId.L_XV, OperatorId.L_XY,
    OperatorId.A_U, OperatorId.A_X,
})


def _on_mode(op, m, parity):
    """Multiplier and output parity of operator ``op``, whose multiplier on
    sin(k x) is ``m``, acting on a mode of ``parity``."""
    if op not in _ODD:
        return m, parity
    if parity is Parity.SINE:
        return m, Parity.COSINE
    return -m, Parity.SINE


def _raw(op, k, y, nu):
    """Raw multiplier of ``op`` on sin(k x) at height y."""
    return _operator_multiplier(op, k, y, np.sinh(k * y), np.cosh(k * y), nu)


class TestVlasovOperators:
    def test_identity_values_at_zero(self, geom, mat):
        k, _ = mode_scalars(3, geom)
        assert _raw(OperatorId.L_VV, k, 0.0, mat.nu) == 1.0
        assert _raw(OperatorId.L_UY, k, 0.0, mat.nu) == 0.0

    def test_sigma_y_from_u0_value(self):
        # k=1 (l=pi, n=1), nu=0.3, y=0.5: -(k^2 y/(1-nu)) sh(k y)
        k, _ = mode_scalars(1, Geometry(l=math.pi, h=1.0))
        got = _raw(OperatorId.L_YU, k, 0.5, 0.3)
        expected = float(-(mp.mpf("0.5") / mp.mpf("0.7")) * mp.sinh(mp.mpf("0.5")))
        assert got == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("op", tuple(OperatorId))
    @pytest.mark.parametrize("n,l", [(1, 2.0), (2, 4.0), (3, 4.0)])  # beta <= 3
    def test_power_series_oracle(self, mat, op, n, l):
        geom = Geometry(l=l, h=1.0)
        k, _ = mode_scalars(n, geom)
        y, x = 0.7, 0.37 * geom.l
        m, parity = _on_mode(op, _raw(op, k, y, mat.nu), Parity.SINE)
        series_val = _apply_power_series(op, mp.pi * n / l, y, x, mat.nu)
        trig = math.sin if parity is Parity.SINE else math.cos
        expected = m * trig(k * x)
        assert series_val == pytest.approx(expected, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("column,parity_in", [
        ("U", Parity.COSINE), ("V", Parity.SINE),
        ("Y", Parity.SINE), ("X", Parity.COSINE),
    ])
    def test_transfer_ode_consistency(self, geom, mat, column, parity_in):
        """Each column of the operator table solves the first-order system

            fU' = fX - k fV,     fV' = c1 k fU + c2 fY,
            fY' = k fX,          fX' = c3 k^2 fU - c1 k fY,

        with (c1, c2, c3) the plane-strain coupling constants.  Central
        differences, step 1e-5 h."""
        nu = mat.nu
        c1, c2, c3 = nu / (1 - nu), (1 - 2 * nu) / (2 * (1 - nu)), 2 / (1 - nu)
        k, _ = mode_scalars(2, geom)
        ops_for = {
            "U": (OperatorId.L_UU, OperatorId.L_VU, OperatorId.L_YU, OperatorId.L_XU),
            "V": (OperatorId.L_UV, OperatorId.L_VV, OperatorId.L_YV, OperatorId.L_XV),
            "Y": (OperatorId.L_UY, OperatorId.L_VY, OperatorId.L_YY, OperatorId.L_XY),
            "X": (OperatorId.L_UX, OperatorId.L_VX, OperatorId.L_YX, OperatorId.L_XX),
        }[column]

        def state(y):
            # (fU, fV, fY, fX) coefficients
            return np.array([_on_mode(op, _raw(op, k, y, nu), parity_in)[0]
                             for op in ops_for])

        delta = 1e-5 * geom.h
        for y in (0.15, 0.5, 0.85):
            f = state(y)
            fdot = (state(y + delta) - state(y - delta)) / (2 * delta)
            rhs = np.array([
                f[3] - k * f[1],
                c1 * k * f[0] + c2 * f[2],
                k * f[3],
                c3 * k * k * f[0] - c1 * k * f[2],
            ])
            scale = np.max(np.abs(fdot)) + 1.0
            assert np.allclose(fdot, rhs, atol=5e-7 * scale), (column, y, fdot, rhs)

    @pytest.mark.parametrize("column,parity_in", [
        ("U", Parity.COSINE), ("V", Parity.SINE),
        ("Y", Parity.SINE), ("X", Parity.COSINE),
    ])
    def test_horizontal_stress_row_identity(self, geom, mat, column, parity_in):
        # sigma_x = (nu/(1-nu)) sigma_y + (2/(1-nu)) dU/dx, exactly per mode
        nu = mat.nu
        k, _ = mode_scalars(3, geom)
        a_op, u_op, y_op = {
            "U": (OperatorId.A_U, OperatorId.L_UU, OperatorId.L_YU),
            "V": (OperatorId.A_V, OperatorId.L_UV, OperatorId.L_YV),
            "Y": (OperatorId.A_Y, OperatorId.L_UY, OperatorId.L_YY),
            "X": (OperatorId.A_X, OperatorId.L_UX, OperatorId.L_YX),
        }[column]
        for y in (0.0, 0.3, 0.77, 1.0):
            fa, _ = _on_mode(a_op, _raw(a_op, k, y, nu), parity_in)
            fu, pu = _on_mode(u_op, _raw(u_op, k, y, nu), parity_in)
            fy, _ = _on_mode(y_op, _raw(y_op, k, y, nu), parity_in)
            # alpha on the U state: cos -> -k sin, sin -> +k cos; the U state
            # here is cos-like exactly when the input parity makes it so
            du = -k * fu if pu is Parity.COSINE else k * fu
            expected = (nu / (1 - nu)) * fy + (2 / (1 - nu)) * du
            assert fa == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_scaled_evaluation_consistency(self, geom, mat):
        # the sh(k h)-scaled table path A runs on equals the raw value
        # divided by sh(k h)
        ops = (OperatorId.L_UU, OperatorId.L_VU, OperatorId.A_U)
        for n in (1, 5, 20):
            k, beta = mode_scalars(n, geom)
            sh = math.sinh(beta)
            scaled = _scaled_ops(k, beta, 0.6 / geom.h, mat.nu, ops)
            for op in ops:
                raw = _raw(op, k, 0.6, mat.nu)
                assert scaled[op] == pytest.approx(raw / sh, rel=1e-12)

    def test_scaled_evaluation_large_mode_finite(self, geom, mat):
        # beta ~ 3100: raw sh/ch would overflow, the scaled table must not
        k, beta = mode_scalars(2000, geom)
        scaled = _scaled_ops(k, beta, 1.0, mat.nu, tuple(OperatorId))
        assert len(scaled) == len(OperatorId)
        for op, v in scaled.items():
            assert np.isfinite(v), op

    def test_material_validation(self):
        with pytest.raises(MaterialError):
            Material(E=1.0, nu=0.5)
        with pytest.raises(MaterialError):
            Material(E=1.0, nu=-0.01)
        with pytest.raises(MaterialError):
            Material(E=0.0, nu=0.3)

    def test_domain_errors(self, geom, mat):
        # a tag that is not a transfer operator is refused, and the scaled
        # table rejects a height below the plate
        k, beta = mode_scalars(1, geom)
        with pytest.raises(DomainError):
            _operator_multiplier(RatioKind.SH_SH, k, 0.5, 0.1, 1.0, mat.nu)
        with pytest.raises(DomainError):
            _scaled_ops(k, beta, -0.2, mat.nu, (OperatorId.L_UU,))

    def test_parity_algebra(self):
        """Path A folds the action of each operator on its amplitude's mode
        into a sign: the u0 column is a cos(k x) mode, on which an odd
        operator changes sign, and the y0 column a sin(k x) mode.  Both
        land on the field's own x-parity."""
        for field, ((op_u, sign_u), (op_y, sign_y)) in _INITIAL_ROWS.items():
            coef_u, parity_u = _on_mode(op_u, 1, Parity.COSINE)
            coef_y, parity_y = _on_mode(op_y, 1, Parity.SINE)
            assert (sign_u, sign_y) == (coef_u, coef_y), field
            assert parity_u is parity_y is FIELD_PARITIES[field], field
