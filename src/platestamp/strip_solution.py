"""Per-mode strip fields by three independent routes, plus series assembly.

The strip carries boundary conditions

    V(x, 0) = 0,   X(x, 0) = 0,   V(x, h) = V_h(x),   X(x, h) = 0,

with V = G*v and X = tau_xy.  For a single mode V_h = sin(k x) the five
fields reduce to profiles of eta = y/h paired with a fixed x-parity
(U, X are cosine-like; V, Y, SX sine-like).  Three routes produce those
profiles:

* path B (:func:`block_profiles`) combines the eight harmonic building
  blocks with plane-strain coefficients; it is the normative definition
  and satisfies the face conditions exactly by construction.
* path A (:func:`initial_amplitudes`, :func:`initial_profiles`) imposes
  the four boundary conditions on the transfer-operator representation,
  solves the per-mode linear systems numerically, then assembles each
  field from the two operator columns of the amplitudes u0 and y0 (the
  face y = 0 pins the other two amplitudes to zero).
* path C (:func:`closed_profiles`) evaluates the closed-form modal
  series, whose amplitude is the sine coefficient, with the second factor
  of the shear formula fixed to eta*ch(beta*eta): the eta*sh(beta*eta)
  variant of that factor violates X(x, h) = 0, and only its face value
  is kept, in the discrepancy report of :mod:`platestamp.verification`.

Each route's formulas live in one module-level kernel that broadcasts
over (N, 1) columns of mode wavenumbers (:func:`mode_columns`) against a
row of eta samples, so all modes are evaluated, and path A's 2x2 systems
solved, in one array pass; given scalar arguments, a kernel evaluates one
mode, with the bits of that mode's row of the batch.  Besides the plate
and the path, a :class:`SeriesField` holds only such columns:
:func:`assemble_series` computes the kernel arguments of all modes once,
and :meth:`SeriesField.grid_fields` evaluates all five fields of a grid
with one kernel call.  On the uniform x axes from 0 to l that every grid
of a run uses, its sums over modes are one real FFT per field, of the
modes folded by ``n mod 2M``; on other abscissae they are one fixed-order
einsum per field.  Neither uses BLAS, so the grids' bits depend on neither
BLAS's thread count nor its CPU kernel.  The face readers of
:mod:`platestamp.stamp_problem` take one mode at a time from the same
columns (:meth:`SeriesField.face_normal_stress`, the ``Y``-only case of
the same call).
Paths A and B are written in the ratios sh(ky)/sh(kh), ch(ky)/sh(kh)
and ch(ky)ch(kh)/sh(kh)^2, each evaluated in exponential form, e.g.

    sh(a)/sh(b) = e^(a-b) (1 - e^(-2a)) / (1 - e^(-2b)),

so that no sh/ch of a large argument is ever formed and the routes stay
finite for arbitrarily high modes; path C expands its brackets the same
way.  Kernels are pure functions and assembled series are frozen value
objects; they can be evaluated from any number of threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .core import (
    DomainError,
    Geometry,
    Material,
    ModeDegeneracyError,
)

__all__ = [
    "SolutionPath",
    "SeriesField",
    "mode_columns",
    "block_profiles",
    "initial_amplitudes",
    "initial_profiles",
    "closed_profiles",
    "assemble_series",
]

FIELD_NAMES = ("U", "V", "Y", "X", "SX")

#: the fields that go with sin(k x); U and X go with cos(k x)
_SINE_FIELDS = ("V", "Y", "SX")

#: condition-number ceiling for the per-mode boundary solve
_COND_LIMIT = 1e12

#: the floor on beta_1 = pi h / l of path C: below about 3.5e-3, its
#: brackets' eps/beta^3 cancellation puts its profiles more than 1e-8 off
#: (against mpmath and against path B); from 5e-3 up, 3.4e-9 at most
_CLOSED_FORM_MIN_BETA = 5e-3


class SolutionPath(Enum):
    A = "A"  # boundary solve on the operator table
    B = "B"  # building-block combination (normative)
    C = "C"  # closed-form modal series


def mode_columns(ns: Sequence[int], geom: Geometry):
    """Mode numbers, wavenumbers k = n pi / l and beta = k h of the modes
    ``ns`` as (N, 1) columns.  Each entry has the bits of the same
    arithmetic on that mode alone.  A mode number that is not an integer,
    or is below 1, raises :class:`DomainError`."""
    n = np.asarray(ns).reshape(-1, 1)
    integral = n.dtype.kind in "iu"
    if n.size and not (integral and n.min() >= 1):
        bad = n.flat[np.argmax(n < 1)] if integral else n.flat[0]
        raise DomainError(f"mode number must be a positive integer, got n={bad}")
    k = n * math.pi / geom.l
    return n, k, k * geom.h


# ---------------------------------------------------------------------------
# hyperbolic ratios in exponential form, for 0 <= a and 0 < b
# ---------------------------------------------------------------------------

def _ratio_terms(a, b):
    """``a`` and ``b`` as float arrays, with e^(a-b) and
    expm1(-2b) = -(1 - e^(-2b)); ``b <= 0`` or ``a < 0`` raises
    :class:`DomainError` naming the smallest offending value."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(b <= 0.0):
        raise DomainError(f"ratio denominator argument must be positive, "
                          f"got b={float(b[b <= 0.0].min())}")
    if np.any(a < 0.0):
        raise DomainError(f"ratio numerator argument must be non-negative, "
                          f"got a={float(a[a < 0.0].min())}")
    return a, b, np.exp(a - b), np.expm1(-2.0 * b)


def _sh_sh(a, b):
    """sh(a)/sh(b), broadcast."""
    a, b, scale, em2b = _ratio_terms(a, b)
    return scale * np.expm1(-2.0 * a) / em2b


def _ch_sh(a, b):
    """ch(a)/sh(b), broadcast."""
    a, b, scale, em2b = _ratio_terms(a, b)
    return scale * (1.0 + np.exp(-2.0 * a)) / (-em2b)


def _chch_shsh(a, b):
    """ch(a)ch(b)/sh(b)^2, broadcast."""
    a, b, scale, em2b = _ratio_terms(a, b)
    return scale * (1.0 + np.exp(-2.0 * a)) * (1.0 + np.exp(-2.0 * b)) / em2b**2


# ---------------------------------------------------------------------------
# path B: harmonic building blocks (normative)
# ---------------------------------------------------------------------------

def _ratios(beta, eta):
    """beta*eta and the four hyperbolic ratio profiles path B is built from."""
    be = beta * np.asarray(eta, dtype=float)
    shr = _sh_sh(be, beta)               # sh(ky)/sh(kh)
    chr_ = _ch_sh(be, beta)              # ch(ky)/sh(kh)
    ccr = _chch_shsh(be, beta)           # ch(ky)ch(kh)/sh^2
    scr = shr * _ch_sh(beta, beta)       # sh(ky)ch(kh)/sh^2
    return be, shr, chr_, ccr, scr


def block_profiles(k, beta, nu: float, eta, *, fields=FIELD_NAMES) -> tuple:
    """Path B: plane-strain combination of the harmonic building blocks.

    Written in block form (b10 = sh(ky)/sh(kh) etc., y = eta*h):

        U  = [ (1-2nu) b11 - y b12 - h b16 ] / (2(1-nu))
        V  = [ 2(1-nu) b10 - y b13 + h b16s ] / (2(1-nu))
        Y  = [ b13 + y b14 + h b17 ] / (1-nu)
        X  = [ h b17s - y b15 ] / (1-nu)
        SX = [ b13 - y b14 - h b17 ] / (1-nu)

    where b16s/b17s are the sh(ky)-companions of b16/b17 (they carry the
    same ch(kh)/sh(kh)^2 normalisation with sh(ky) in place of ch(ky)).

    ``k`` and ``beta`` are scalars or (N, 1) columns, ``eta`` a scalar or
    a row of samples; the profiles of ``fields`` come back in that order,
    each of their broadcast shape.
    """
    be, shr, chr_, ccr, scr = _ratios(beta, eta)
    formulas = {
        "U": lambda: (-(1 - 2 * nu) * chr_ - be * shr + beta * ccr) / (2 * (1 - nu)),
        "V": lambda: shr + (beta * scr - be * chr_) / (2 * (1 - nu)),
        "Y": lambda: (k / (1 - nu)) * (chr_ - be * shr + beta * ccr),
        "X": lambda: (k * beta / (1 - nu)) * (scr - np.asarray(eta) * chr_),
        "SX": lambda: (k / (1 - nu)) * (chr_ + be * shr - beta * ccr),
    }
    return tuple(formulas[f]() for f in fields)


# ---------------------------------------------------------------------------
# path A: boundary solve on the operator table
# ---------------------------------------------------------------------------

def _initial_columns(k, beta, nu: float, eta, fields) -> tuple:
    """Per field of ``fields``, its multipliers (col_u, col_y) of the
    amplitudes (u0 sh, y0 sh): that field's entries in the U and Y columns
    of the transfer-operator table, divided by sh(k h), each acting on its
    amplitude's mode.

    Written in s = sh(ky)/sh(kh) and c = ch(ky)/sh(kh), y = eta*h.  The
    formulas are the operators' multipliers on sin(k x); the u0 mode is
    cos(k x), on which an operator odd in d/dx changes sign, so the u0
    entries of the V, Y and SX rows are negated.  The V and X columns are
    left out: the y = 0 boundary rows pin v0 and x0 to zero.  Shapes
    broadcast as in :func:`block_profiles`.
    """
    y = np.asarray(eta, dtype=float) * (beta / k)
    ky = k * y
    s = _sh_sh(ky, beta)
    c = _ch_sh(ky, beta)
    d2 = 2.0 * (1.0 - nu)
    formulas = {
        "U": lambda: (c + ky * s / d2,                                    # L_UU
                      -y * s / (2.0 * d2)),                                # L_UY
        "V": lambda: (-((1.0 - 2.0 * nu) * s - ky * c) / d2,              # -L_VU
                      ((3.0 - 4.0 * nu) * s / k - y * c) / (2.0 * d2)),    # L_VY
        "Y": lambda: (2.0 * k * ky * s / d2,                              # -L_YU
                      c - ky * s / d2),                                    # L_YY
        "X": lambda: (2.0 * k * (s + ky * c) / d2,                         # L_XU
                      ((1.0 - 2.0 * nu) * s - ky * c) / d2),               # L_XY
        "SX": lambda: (-2.0 * k * (2.0 * c + ky * s) / d2,                # -A_U
                       (2.0 * nu * c + ky * s) / d2),                      # A_Y
    }
    return tuple(formulas[f]() for f in fields)


def initial_amplitudes(n, k, beta, nu: float):
    """Path A: impose the four boundary conditions on the operator table.

    The per-mode initial-function amplitudes (u0 for U_0 ~ cos, v0 for
    V_0 ~ sin, y0 for Y_0 ~ sin, x0 for X_0 ~ cos) satisfy a 4x4 system.
    Its two y = 0 rows are identity rows, so v0 = x0 = 0 exactly and the
    system reduces to the 2x2 system of the V and X rows of
    :func:`_initial_columns` at y = h.  That system is solved in the
    sh(k h)-scaled amplitudes (u0 sh, y0 sh) by an extended-precision
    Cramer solve with one refinement step, so the face conditions hold to
    roundoff of the profiles; conditioning is judged on the
    dimension-balanced variant (second unknown divided by k), whose
    entries are O(beta) with determinant exactly -1 (beta coth(beta) cancels).

    ``n``, ``k`` and ``beta`` are scalars or (N, 1) columns; every mode is
    solved at once.  Returns (u0 sh, y0 sh) in long double.  The lowest
    mode whose system is too ill-conditioned raises
    :class:`ModeDegeneracyError`, as a mode-by-mode solve would.
    """
    n, k, beta = np.broadcast_arrays(n, k, beta)
    # the face rows of the assembled profiles reuse these exact entry
    # values, so solving this matrix keeps the face conditions at the
    # solve residual
    (a00, a01), (a10, a11) = _initial_columns(k, beta, nu, 1.0, ("V", "X"))

    balanced = np.stack([np.stack([a00, k * a01], axis=-1),
                         np.stack([a10 / k, a11], axis=-1)], axis=-2)
    cond = np.linalg.cond(balanced)
    bad = ~np.isfinite(cond) | (cond > _COND_LIMIT)
    if np.any(bad):
        i = np.argmax(bad)
        raise ModeDegeneracyError(int(n.flat[i]), float(beta.flat[i]), float(cond.flat[i]))

    # kept in extended precision so the face-condition cancellations in the
    # assembled profiles stay at roundoff of the profile, not of the large
    # terms
    return _cramer_refined(*(np.asarray(a, dtype=np.longdouble)
                             for a in (a00, a01, a10, a11)))


def _cramer_refined(a00, a01, a10, a11):
    """Solve [[a00, a01], [a10, a11]] z = (1, 0) elementwise by Cramer's
    rule with one refinement step."""
    det = a00 * a11 - a01 * a10

    def solve(r0, r1):
        return (r0 * a11 - r1 * a01) / det, (a00 * r1 - a10 * r0) / det

    z0, z1 = solve(1.0, 0.0)
    d0, d1 = solve(1.0 - (a00 * z0 + a01 * z1), 0.0 - (a10 * z0 + a11 * z1))
    return z0 + d0, z1 + d1


def initial_profiles(k, beta, nu: float, u0, y0, eta, *, fields=FIELD_NAMES) -> tuple:
    """Path A profiles ``col_u * u0 + col_y * y0`` of the amplitudes
    (u0 sh, y0 sh) of :func:`initial_amplitudes`, with the columns of
    :func:`_initial_columns`.  Shapes broadcast as in
    :func:`block_profiles`."""
    return tuple(np.asarray(col_u * u0 + col_y * y0, dtype=float)
                 for col_u, col_y in _initial_columns(k, beta, nu, eta, fields))


# ---------------------------------------------------------------------------
# path C: closed-form modal series
# ---------------------------------------------------------------------------

def closed_profiles(beta, nu: float, h: float, eta, *, fields=FIELD_NAMES) -> tuple:
    """Path C: closed-form profiles per unit sine coefficient, with the
    corrected shear factor eta*ch(beta*eta).  Shapes broadcast as in
    :func:`block_profiles`; beta below :data:`_CLOSED_FORM_MIN_BETA` loses
    accuracy.

    Internally each bracket is expanded around e^(beta(eta-1)) with
    E = e^(-2 beta), F = e^(-2 beta eta), so no large hyperbolic is formed.
    """
    E2 = np.exp(-2.0 * beta)
    # denominators of the e^(beta(eta-1))-scaled brackets: 2*Delta and
    # Delta with Delta = (1-nu) sh(beta)^2 cancelled against e^(2 beta)/4
    den2 = 2.0 * (1.0 - nu) * (1.0 - E2) ** 2
    den1 = (1.0 - nu) * (1.0 - E2) ** 2
    eta = np.asarray(eta, dtype=float)
    F = np.exp(-2.0 * beta * eta)
    em = np.exp(beta * (eta - 1.0))

    formulas = {
        "U": lambda: -em * (((1 - 2 * nu) * (1 - E2) - beta * (1 + E2)) * (1 + F)
                            + beta * (1 - E2) * eta * (1 - F)) / den2,
        "V": lambda: em * ((2 * (1 - nu) * (1 - E2) + beta * (1 + E2)) * (1 - F)
                           - beta * (1 - E2) * eta * (1 + F)) / den2,
        "Y": lambda: em * (beta / h) * (((1 - E2) + beta * (1 + E2)) * (1 + F)
                                        - beta * (1 - E2) * eta * (1 - F)) / den1,
        "X": lambda: em * (beta * beta / h) * ((1 + E2) * (1 - F)
                                               - (1 - E2) * eta * (1 + F)) / den1,
        "SX": lambda: em * (beta / h) * (((1 - E2) - beta * (1 + E2)) * (1 + F)
                                         + beta * (1 - E2) * eta * (1 - F)) / den1,
    }
    return tuple(formulas[f]() for f in fields)


def _check_closed_form_range(geom: Geometry) -> None:
    """Raise :class:`DomainError` when beta_1 = pi h / l of ``geom``, as
    :func:`mode_columns` computes it, is below path C's floor."""
    beta_1 = mode_columns([1], geom)[2].item()
    if not beta_1 >= _CLOSED_FORM_MIN_BETA:
        raise DomainError(f"path C needs beta_1 = pi h / l >= {_CLOSED_FORM_MIN_BETA:g}, "
                          f"got {beta_1:.6g}: its closed form loses accuracy on thinner "
                          f"plates; use path B")


# ---------------------------------------------------------------------------
# assembly and evaluation
# ---------------------------------------------------------------------------

def _mode_sums(c, k, profiles: dict, xs) -> dict:
    """The x-sums of the profile blocks ``profiles`` (popped by field name)
    on arbitrary abscissae ``xs``: one fixed-order sum over modes per
    field.  einsum without optimisation never hands the sum to BLAS."""
    total = {}
    # one parity's weights alive at a time; each profile block is released
    # once it is summed
    for trig, sine in ((np.sin, True), (np.cos, False)):
        weighted = c * trig(np.outer(k, xs))
        for name in (f for f in FIELD_NAMES if (f in _SINE_FIELDS) == sine):
            total[name] = np.einsum("nj,ni->ji", profiles.pop(name), weighted,
                                    optimize=False)
        del weighted
    return total


def _uniform_x_sums(n, c, profiles: dict, M: int, N: int) -> dict:
    """The x-sums of the profile blocks ``profiles`` (popped by field name)
    of the modes ``n`` (an array of mode numbers, each <= N) on
    ``x_i = i l / M``, i = 0..M.

    There ``sin(k_n x_i) = sin(2 pi n i / 2M)``, which repeats in n with
    period 2M.  So the weighted rows are folded by ``n mod 2M`` (zero-padded
    to whole periods, reshaped, summed over the periods), and one real FFT
    of length 2M gives all M + 1 columns: the cosine fields are its real
    part, the sine fields minus its imaginary part.
    """
    period = 2 * M
    total = {}
    for name in FIELD_NAMES:
        block = profiles.pop(name)
        padded = np.zeros((-(-(N + 1) // period) * period, block.shape[1]))
        padded[n] = c * block
        spectrum = np.fft.rfft(padded.reshape(-1, period, block.shape[1]).sum(axis=0),
                               axis=0)
        if name in _SINE_FIELDS:
            # 0 - imag rather than -imag: the DC and Nyquist bins (x = 0 and
            # x = l) carry signed zeros, which must come out as +0.0
            total[name] = np.subtract(0.0, spectrum.imag.T, order="C")
        else:
            total[name] = np.ascontiguousarray(spectrum.real.T)
    return total


@dataclass(frozen=True)
class SeriesField:
    """Truncated modal solution of modes 1..N: the sine coefficients and
    the path's kernel arguments as (N, 1) columns, computed once by
    :func:`assemble_series`."""

    material: Material
    geometry: Geometry
    N: int
    path: SolutionPath
    #: (N, 1) columns of the sine coefficients, wavenumbers and beta
    c: np.ndarray = field(repr=False, compare=False)
    k: np.ndarray = field(repr=False, compare=False)
    beta: np.ndarray = field(repr=False, compare=False)
    #: path A: the (N, 1) amplitude columns (u0 sh, y0 sh); paths B and C: ()
    _path_args: tuple = field(repr=False, compare=False)

    def _profiles(self, index, fields, eta) -> tuple:
        """The profiles of ``fields`` on ``eta``, in that order, from one
        call of the path's kernel.

        ``index`` selects from the columns: an array of rows gives those
        modes, each profile of shape (len(index), len(eta)); ``(i, 0)``
        gives mode i + 1 alone, from scalar arguments.
        """
        k, beta, nu = self.k[index], self.beta[index], self.material.nu
        if self.path is SolutionPath.B:
            return block_profiles(k, beta, nu, eta, fields=fields)
        if self.path is SolutionPath.A:
            u0, y0 = (a[index] for a in self._path_args)
            return initial_profiles(k, beta, nu, u0, y0, eta, fields=fields)
        return closed_profiles(beta, nu, self.geometry.h, eta, fields=fields)

    def face_normal_stress(self, i: int) -> float:
        """Face value Y(1) of the normal-stress profile of mode i + 1, per
        unit sine coefficient: one kernel call on that mode's scalar
        arguments."""
        (y,) = self._profiles((i, 0), ("Y",), 1.0)
        return float(y)

    def grid_fields(self, xs, ys) -> dict:
        """Physical fields on the tensor grid ys x xs; arrays (len(ys), len(xs)).

        One kernel call gives all five profile blocks of the modes with a
        nonzero coefficient on the grid's eta row.  The kernels are
        elementwise, so each mode's row has the bits of that mode
        evaluated alone, whichever fields share the call.

        When ``xs`` is bit for bit ``np.linspace(0, l, M + 1)`` with
        M >= 1, ``sin(k_n x_i)`` is ``sin(pi n i / M)``, so each field is
        a sine or cosine transform of length 2M of its blocks, folded
        over ``n mod 2M`` (:func:`_uniform_x_sums`); the sine fields are
        exactly zero at ``x = 0`` and ``x = l``.  Any other ``xs`` gets
        one fixed-order sum over modes per field.  Neither route uses
        BLAS, so no BLAS thread count or CPU kernel changes the result.

        A point off the plate, or not finite, raises :class:`DomainError`,
        and so does a field that is not finite somewhere on the grid.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        for axis, a, end in (("x", xs, self.geometry.l), ("y", ys, self.geometry.h)):
            off = ~((a >= 0.0) & (a <= end))
            if off.any():
                raise DomainError(f"grid point {axis} = {float(a[off][0])} is off the "
                                  f"plate: {axis} must be finite and in [0, {end:g}]")
        eta = ys / self.geometry.h
        rows = np.flatnonzero(self.c != 0.0)
        profiles = dict(zip(FIELD_NAMES, self._profiles(rows, FIELD_NAMES, eta)))
        if xs.size >= 2 and xs.tobytes() == np.linspace(0.0, self.geometry.l, xs.size).tobytes():
            total = _uniform_x_sums(rows + 1, self.c[rows], profiles, xs.size - 1, self.N)
        else:
            total = _mode_sums(self.c[rows], self.k[rows], profiles, xs)

        G = self.material.G
        fields = {
            "u": total["U"] / G,
            "v": total["V"] / G,
            "sigma_x": total["SX"],
            "sigma_y": total["Y"],
            "tau_xy": total["X"],
        }
        for name, values in fields.items():
            bad = ~np.isfinite(values)
            if bad.any():
                j, i = np.argwhere(bad)[0]
                raise DomainError(
                    f"field {name} is not finite at {np.count_nonzero(bad)} of {bad.size} "
                    f"grid points, first at (x, y) = ({xs[i]:g}, {ys[j]:g}), with "
                    f"beta_1 = {self.beta[0, 0]:g} and beta_N = {self.beta[-1, 0]:g}")
        return fields


def assemble_series(
    coeffs: Sequence[float],
    geom: Geometry,
    mat: Material,
    path: SolutionPath | str = SolutionPath.B,
) -> SeriesField:
    """Pair sine coefficients c_1..c_N of V_h with the path's kernel
    arguments, computed for all modes at once; path A solves every mode's
    boundary system in one batch; path C checks its beta floor.
    """
    try:
        path = SolutionPath(path)
    except ValueError:
        raise DomainError(f"path must be one of A, B, C, got {path!r}") from None
    c = np.array([float(c) for c in coeffs]).reshape(-1, 1)
    if c.size < 1:
        raise DomainError("need at least one sine coefficient")
    bad = ~np.isfinite(c)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DomainError(f"sine coefficient of mode {i + 1} is not finite: {c[i, 0]}")
    if path is SolutionPath.C:
        _check_closed_form_range(geom)
    ns, k, beta = mode_columns(range(1, c.size + 1), geom)
    path_args = initial_amplitudes(ns, k, beta, mat.nu) if path is SolutionPath.A else ()
    return SeriesField(material=mat, geometry=geom, N=c.size, path=path,
                       c=c, k=k, beta=beta, _path_args=path_args)
