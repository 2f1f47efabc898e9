"""Tests for the per-mode formulas the solution paths run.

The three hyperbolic ratios of ``strip_solution`` (``_sh_sh``,
``_ch_sh``, ``_chch_shsh``) are checked against 40-digit mpmath from
beta = 1e-5 to 1e5.  The building blocks are evaluated from the ratio
profiles of path B's kernel (``strip_solution._ratios``) and checked
against mpmath reference forms, their y- and h-derivative identities and
a discrete Laplacian.
The transfer operators are the entries of path A's two live operator
columns, the u0 and y0 columns scaled by sh(k h)
(``strip_solution._initial_columns``), and are checked against three
independent oracles:

* a truncated power-series application of each operator to its
  amplitude's mode, using only alpha^p sin(kx + phi) =
  k^p sin(kx + phi + p pi/2) (plain calculus, no hyperbolic identities),
  convergent for beta <= 3; this also pins the sign an odd operator takes
  on the cosine mode u0;
* the same action summed in closed form (cos(y alpha) -> ch(k y),
  sin(y alpha) -> sh(k y)), unscaled, at higher modes;
* the first-order ODE system in y that the operator matrix is the
  propagator of, via central differences.

The operator term table and the x-parity of each block, operator and
amplitude are oracle data kept here.
"""
import math

import mpmath as mp
import numpy as np
import pytest

from platestamp import DomainError, Geometry, Material, MaterialError
from platestamp.strip_solution import (
    FIELD_NAMES,
    _SINE_FIELDS,
    _ch_sh,
    _chch_shsh,
    _initial_columns,
    _ratios,
    _sh_sh,
    mode_columns,
)

from conftest import mode_scalars

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# hyperbolic ratios
# ---------------------------------------------------------------------------

#: each ratio helper and its definition
_RATIO_REFERENCES = {
    _sh_sh: lambda a, b: mp.sinh(a) / mp.sinh(b),
    _ch_sh: lambda a, b: mp.cosh(a) / mp.sinh(b),
    _chch_shsh: lambda a, b: mp.cosh(a) * mp.cosh(b) / mp.sinh(b) ** 2,
}

_EACH_RATIO = pytest.mark.parametrize("ratio", _RATIO_REFERENCES, ids=lambda f: f.__name__)


class TestRatioHelpers:
    @_EACH_RATIO
    def test_against_mpmath(self, ratio):
        # b from 1e-5 to 1e5 and 0 <= a <= b, wherever the value is at
        # least 1e-290: the relative error stays within (|b - a| + 4) eps,
        # where |b - a| eps is the rounding of a - b, which e^(a - b)
        # amplifies
        eps = np.finfo(float).eps
        checked = 0
        for b in np.logspace(-5.0, 5.0, 161):
            for a in b * np.array([0.0, 1e-6, 1e-3, 0.1, 0.25, 0.5, 0.9, 0.999, 1.0]):
                exact = _RATIO_REFERENCES[ratio](mp.mpf(a), mp.mpf(b))
                if exact < mp.mpf("1e-290"):
                    continue
                error = abs(mp.mpf(float(ratio(a, b))) - exact) / exact
                assert error <= (abs(b - a) + 4.0) * eps, (a, b, float(error))
                checked += 1
        assert checked >= 1000

    def test_equal_large_arguments_exact(self):
        # naive sinh(700) overflows; the ratio is exactly 1
        assert _sh_sh(700.0, 700.0) == 1.0

    def test_zero_numerator(self):
        assert _sh_sh(0.0, 5.0) == 0.0

    def test_coth_reference(self):
        # ch(1)/sh(1) against a high-precision reference
        expected = float(mp.coth(1))
        assert _ch_sh(1.0, 1.0) == pytest.approx(expected, rel=1e-15)

    @_EACH_RATIO
    def test_zero_denominator_raises(self, ratio):
        # named by the smallest offending value, in one line
        with pytest.raises(DomainError, match=r"^ratio denominator argument must be "
                                              r"positive, got b=0\.0$"):
            ratio(0.0, 0.0)
        b = np.array([[2.0], [0.0], [-0.0], [-1.5], [3.0]])
        with pytest.raises(DomainError, match=r"got b=-1\.5$"):
            ratio(0.0, b)

    @_EACH_RATIO
    def test_negative_numerator_raises(self, ratio):
        a = np.array([0.5, -1.0, -0.25])
        with pytest.raises(DomainError, match=r"^ratio numerator argument must be "
                                              r"non-negative, got a=-1\.0$"):
            ratio(a, 2.0)

    def test_array_input(self):
        a = np.array([0.0, 1.0, 2.0])
        out = _sh_sh(a, 2.0)
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
    "b10": ("sh/sh", 1, 0, "sine",
            lambda k, y, h: mp.sinh(k * y) / mp.sinh(k * h)),
    "b11": ("ch/sh", -1, 0, "cosine",
            lambda k, y, h: -mp.cosh(k * y) / mp.sinh(k * h)),
    "b12": ("sh/sh", 1, 1, "cosine",
            lambda k, y, h: k * mp.sinh(k * y) / mp.sinh(k * h)),
    "b13": ("ch/sh", 1, 1, "sine",
            lambda k, y, h: k * mp.cosh(k * y) / mp.sinh(k * h)),
    "b14": ("sh/sh", -1, 2, "sine",
            lambda k, y, h: -k**2 * mp.sinh(k * y) / mp.sinh(k * h)),
    "b15": ("ch/sh", 1, 2, "cosine",
            lambda k, y, h: k**2 * mp.cosh(k * y) / mp.sinh(k * h)),
    "b16": ("chch/sh2", -1, 1, "cosine",
            lambda k, y, h: -k * mp.cosh(k * y) * mp.cosh(k * h) / mp.sinh(k * h)**2),
    "b17": ("chch/sh2", 1, 2, "sine",
            lambda k, y, h: k**2 * mp.cosh(k * y) * mp.cosh(k * h) / mp.sinh(k * h)**2),
}


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

    @pytest.mark.parametrize("op", _BLOCKS)
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
    @pytest.mark.parametrize("op", _BLOCKS)
    def test_harmonicity(self, geom, op, n):
        # 5-point Laplacian of block(y) * trig(k x) shrinks at O(h^2)
        k, beta = mode_scalars(n, geom)
        trig = np.sin if _BLOCKS[op][3] == "sine" else np.cos

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

#: the entries of path A's two live operator columns: per transfer
#: operator, the field whose row it is on and the amplitude whose column
#: it is in
_ENTRIES = {
    "L_UU": ("U", "u0"), "L_UY": ("U", "y0"),
    "L_VU": ("V", "u0"), "L_VY": ("V", "y0"),
    "L_YU": ("Y", "u0"), "L_YY": ("Y", "y0"),
    "L_XU": ("X", "u0"), "L_XY": ("X", "y0"),
    "A_U": ("SX", "u0"), "A_Y": ("SX", "y0"),
}

#: x-parity of the mode of each amplitude: U_0 ~ cos, Y_0 ~ sin
_AMPLITUDE_PARITY = {"u0": "cosine", "y0": "sine"}

#: transfer operators odd in a = d/dx: they flip the x-parity of a mode
_ODD = frozenset({"L_UY", "L_VU", "L_YU", "L_XY", "A_U"})


def _series_terms(op, y, nu):
    """Independent term table: each operator as sum of coef * alpha^q * trig(alpha y).

    Transcribed from the closed symbolic forms.  L_YY and L_XY are L_VV
    and L_VU by the symmetry of the operator matrix.
    """
    c2 = 1 / (2 * (1 - nu))
    c4 = 1 / (4 * (1 - nu))
    return {
        "L_UU": [(1, "cos", 0), (-y * c2, "sin", 1)],
        "L_UY": [(-y * c4, "sin", 0)],
        "L_VU": [((1 - 2 * nu) * c2, "sin", 0), (-y * c2, "cos", 1)],
        "L_VY": [((3 - 4 * nu) * c4, "sin", -1), (-y * c4, "cos", 0)],
        "L_YU": [(y / (1 - nu), "sin", 2)],
        "L_YY": [(y * c2, "sin", 1), (1, "cos", 0)],
        "L_XU": [(-1 / (1 - nu), "sin", 1), (-y / (1 - nu), "cos", 2)],
        "L_XY": [((1 - 2 * nu) * c2, "sin", 0), (-y * c2, "cos", 1)],
        "A_U": [(2 / (1 - nu), "cos", 1), (-y / (1 - nu), "sin", 2)],
        "A_Y": [(nu / (1 - nu), "cos", 0), (-y * c2, "sin", 1)],
    }[op]


def _phase(parity):
    """phi with sin(k x + phi) the mode of ``parity``."""
    return mp.mpf(0) if parity == "sine" else mp.pi / 2


def _apply_power_series(op, k, y, x, nu, parity_in, n_terms=18):
    """Apply the operator's power series in alpha = d/dx to the mode
    sin(k x + phi) of ``parity_in`` at x, using
    alpha^p sin(kx + phi) = k^p sin(kx + phi + p pi/2)."""
    phi = _phase(parity_in)
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
            total += coef * c * mp.mpf(y) ** j * k ** p * mp.sin(k * x + phi + p * mp.pi / 2)
    return total


def _apply_closed_form(op, k, y, x, nu, parity_in):
    """The same action summed in closed form: on sin(k x + phi),
    cos(y alpha) acts as ch(k y) and sin(y alpha) as sh(k y) with a shift
    of phi by pi/2."""
    phi = _phase(parity_in)
    y = mp.mpf(y)
    total = mp.mpf(0)
    for coef, trig, q in _series_terms(op, y, mp.mpf(nu)):
        hyp, shift = (mp.cosh(k * y), q) if trig == "cos" else (mp.sinh(k * y), q + 1)
        total += coef * k ** q * hyp * mp.sin(k * x + phi + shift * mp.pi / 2)
    return total


def _parity_out(op, parity_in):
    """x-parity of operator ``op`` acting on a mode of ``parity_in``."""
    if op not in _ODD:
        return parity_in
    return "cosine" if parity_in == "sine" else "sine"


def _trig(parity):
    return mp.sin if parity == "sine" else mp.cos


def _entry(op, k, beta, eta, nu):
    """Path A's column entry of ``op`` (scaled by sh(k h)), from
    ``strip_solution._initial_columns``."""
    field, amplitude = _ENTRIES[op]
    ((col_u, col_y),) = _initial_columns(k, beta, nu, eta, (field,))
    return col_u if amplitude == "u0" else col_y


def _raw(op, k, beta, y, h, nu):
    """The entry of ``op`` at height y, unscaled: on the amplitude's mode,
    the multiplier of the field's own trig(k x)."""
    return _entry(op, k, beta, y / h, nu) * math.sinh(beta)


class TestVlasovOperators:
    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.49])
    @pytest.mark.parametrize("amplitude", ["u0", "y0"])
    def test_identity_values_at_zero(self, amplitude, nu):
        # at y = 0 the operator table is the identity: on the face y = 0
        # the V and X rows of both columns and the cross entry (Y of the
        # u0 column, U of the y0 column) vanish exactly, and U of the u0
        # column and Y of the y0 column are 1, i.e. 1/sh(k h) scaled, for
        # every nu; modes 1..1910 reach beta = 3000
        geom = Geometry(l=2.0, h=1.0)
        _, k, beta = mode_columns(range(1, 1911), geom)
        assert beta[-1, 0] > 3000.0
        entry, diagonal, cross = (0, "U", "Y") if amplitude == "u0" else (1, "Y", "U")
        cols = dict(zip(FIELD_NAMES, _initial_columns(k, beta, nu, 0.0, FIELD_NAMES)))
        for name in ("V", "X", cross):
            assert np.all(cols[name][entry] == 0.0), name
        inv_sh = np.array([float(1 / mp.sinh(mp.mpf(b))) for b in beta.ravel()])
        got = np.broadcast_to(cols[diagonal][entry], beta.shape).ravel()
        assert np.all(np.abs(got - inv_sh) <= 1e-15 * inv_sh + 1e-322)

    def test_sigma_y_from_u0_value(self):
        # k=1 (l=pi, n=1), nu=0.3, y=0.5, on the cos(k x) mode u0:
        # (k^2 y/(1-nu)) sh(k y)
        geom = Geometry(l=math.pi, h=1.0)
        k, beta = mode_scalars(1, geom)
        got = _raw("L_YU", k, beta, 0.5, geom.h, 0.3)
        expected = float((mp.mpf("0.5") / mp.mpf("0.7")) * mp.sinh(mp.mpf("0.5")))
        assert got == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("op", _ENTRIES)
    @pytest.mark.parametrize("n,l", [(1, 2.0), (2, 4.0), (3, 4.0)])  # beta <= 3
    def test_power_series_oracle(self, mat, op, n, l):
        self._check_power_series(op, n, l, mat.nu)

    @pytest.mark.parametrize("op", _ENTRIES)
    @pytest.mark.parametrize("nu", [0.0, 0.49])
    def test_power_series_oracle_poisson_ends(self, op, nu):
        # with the fixture's nu = 0.3, three values of nu pin each entry's
        # dependence on nu, a ratio of polynomials of degree one
        self._check_power_series(op, 2, 4.0, nu)

    @staticmethod
    def _check_power_series(op, n, l, nu):
        # the column entry, on its amplitude's mode, is the operator's
        # power series applied to that mode, and lands on its field's parity
        geom = Geometry(l=l, h=1.0)
        k, beta = mode_scalars(n, geom)
        y, x = 0.7, 0.37 * geom.l
        field, amplitude = _ENTRIES[op]
        parity_in = _AMPLITUDE_PARITY[amplitude]
        parity = _parity_out(op, parity_in)
        assert parity == ("sine" if field in _SINE_FIELDS else "cosine")
        series_val = _apply_power_series(op, mp.pi * n / l, y, x, nu, parity_in)
        expected = _raw(op, k, beta, y, geom.h, nu) * float(_trig(parity)(k * x))
        assert float(series_val) == pytest.approx(expected, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("column,parity_in", [
        ("U", "cosine"), ("Y", "sine"),
    ])
    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.49])
    def test_transfer_ode_consistency(self, geom, nu, column, parity_in):
        """Each live column of the operator table solves the first-order
        system

            fU' = fX - k fV,     fV' = c1 k fU + c2 fY,
            fY' = k fX,          fX' = c3 k^2 fU - c1 k fY,

        with (c1, c2, c3) the plane-strain coupling constants.  Central
        differences, step 1e-5 h."""
        c1, c2, c3 = nu / (1 - nu), (1 - 2 * nu) / (2 * (1 - nu)), 2 / (1 - nu)
        k, beta = mode_scalars(2, geom)
        amplitude = "u0" if column == "U" else "y0"
        assert _AMPLITUDE_PARITY[amplitude] == parity_in
        ops_for = [op for op, entry in _ENTRIES.items()
                   if entry in {(row, amplitude) for row in ("U", "V", "Y", "X")}]

        def state(y):
            # (fU, fV, fY, fX) coefficients
            return np.array([_raw(op, k, beta, y, geom.h, nu) for op in ops_for])

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
        ("U", "cosine"), ("Y", "sine"),
    ])
    @pytest.mark.parametrize("nu", [0.0, 0.3, 0.49])
    def test_horizontal_stress_row_identity(self, geom, nu, column, parity_in):
        # sigma_x = (nu/(1-nu)) sigma_y + (2/(1-nu)) dU/dx, exactly per mode
        k, beta = mode_scalars(3, geom)
        a_op, u_op, y_op = {
            "U": ("A_U", "L_UU", "L_YU"),
            "Y": ("A_Y", "L_UY", "L_YY"),
        }[column]
        pu = _parity_out(u_op, parity_in)
        for y in (0.0, 0.3, 0.77, 1.0):
            fa, fu, fy = (_raw(op, k, beta, y, geom.h, nu) for op in (a_op, u_op, y_op))
            # alpha on the U state: cos -> -k sin, sin -> +k cos
            du = -k * fu if pu == "cosine" else k * fu
            expected = (nu / (1 - nu)) * fy + (2 / (1 - nu)) * du
            assert fa == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_scaled_evaluation_consistency(self, geom, mat):
        # the sh(k h)-scaled columns path A runs on equal the raw operators,
        # summed in closed form, divided by sh(k h)
        y, x = 0.6, 0.37 * geom.l
        for n in (1, 5, 20):
            k, beta = mode_scalars(n, geom)
            kk = mp.pi * n / geom.l
            for op, (_, amplitude) in _ENTRIES.items():
                parity_in = _AMPLITUDE_PARITY[amplitude]
                raw = (_apply_closed_form(op, kk, y, x, mat.nu, parity_in)
                       / _trig(_parity_out(op, parity_in))(kk * x))
                got = _entry(op, k, beta, y / geom.h, mat.nu)
                assert got == pytest.approx(float(raw / mp.sinh(kk * geom.h)), rel=1e-12), \
                    (n, op)

    def test_scaled_evaluation_large_mode_finite(self, geom, mat):
        # beta ~ 3100: raw sh/ch would overflow, the scaled columns must not
        k, beta = mode_scalars(2000, geom)
        for field, cols in zip(FIELD_NAMES,
                               _initial_columns(k, beta, mat.nu, 1.0, FIELD_NAMES)):
            assert np.all(np.isfinite(cols)), field

    def test_material_validation(self):
        with pytest.raises(MaterialError):
            Material(E=1.0, nu=0.5)
        with pytest.raises(MaterialError):
            Material(E=1.0, nu=-0.01)
        with pytest.raises(MaterialError):
            Material(E=0.0, nu=0.3)

    def test_domain_errors(self, geom, mat):
        # the columns reject a height below the plate
        k, beta = mode_scalars(1, geom)
        with pytest.raises(DomainError):
            _initial_columns(k, beta, mat.nu, -0.2, ("U",))
