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
  solves the per-mode linear systems numerically, then assembles all five
  fields through the full operator table.
* path C (:func:`closed_profiles`) evaluates the closed-form modal
  series, with its per-mode amplitude pinned to the sine coefficient by
  least-squares calibration against path B and with the second factor of
  the shear formula fixed to eta*ch(beta*eta): the eta*sh(beta*eta)
  variant of that factor violates X(x, h) = 0 and is kept behind a flag
  for the discrepancy report.

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
einsum per field.  Neither uses BLAS, so the grids' bits do not depend on
the BLAS thread count.  The face readers of :mod:`platestamp.stamp_problem`
take one mode at a time from the same columns
(:meth:`SeriesField.face_normal_stress`, the ``Y``-only case of the same
call).
All hyperbolics are evaluated in overflow-safe exponential form, so the
routes stay finite for arbitrarily high modes.  Kernels are pure
functions and assembled series are frozen value objects; they can be
evaluated from any number of threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .core import (
    DomainError,
    FieldSample,
    Geometry,
    Material,
    ModeDegeneracyError,
    Parity,
    PathDivergenceError,
    PlateStampError,
)
from .modal_calculus import OperatorId, RatioKind, _operator_multiplier, stable_ratio

__all__ = [
    "SolutionPath",
    "SeriesField",
    "FIELD_PARITIES",
    "mode_columns",
    "block_profiles",
    "initial_amplitudes",
    "initial_profiles",
    "closed_profiles",
    "calibrate_delta_ratio",
    "assemble_series",
    "evaluate_fields",
]

#: x-parity of the five per-mode profiles (U, V, Y, X, SX order).
FIELD_PARITIES = {
    "U": Parity.COSINE,
    "V": Parity.SINE,
    "Y": Parity.SINE,
    "X": Parity.COSINE,
    "SX": Parity.SINE,
}

FIELD_NAMES = ("U", "V", "Y", "X", "SX")

#: condition-number ceiling for the per-mode boundary solve
_COND_LIMIT = 1e12

#: calibration acceptance for the closed-form amplitude ratio
_CALIBRATION_TOL = 1e-10

#: the mode and the number of uniform eta samples of that calibration
_CALIBRATION_MODE = 1
_CALIBRATION_SAMPLES = 33


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
# path B: harmonic building blocks (normative)
# ---------------------------------------------------------------------------

def _ratios(beta, eta):
    """beta*eta and the four hyperbolic ratio profiles path B is built from."""
    be = beta * np.asarray(eta, dtype=float)
    shr = stable_ratio(RatioKind.SH_SH, be, beta)      # sh(ky)/sh(kh)
    chr_ = stable_ratio(RatioKind.CH_SH, be, beta)     # ch(ky)/sh(kh)
    ccr = stable_ratio(RatioKind.CHCH_SHSH, be, beta)  # ch(ky)ch(kh)/sh^2
    scr = shr * stable_ratio(RatioKind.CH_SH, beta, beta)  # sh(ky)ch(kh)/sh^2
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

def _scaled_ops(k, beta, eta, nu: float, names):
    """Transfer-operator multipliers divided by sh(k h), broadcast over
    k, beta and eta."""
    y = np.asarray(eta, dtype=float) * (beta / k)
    ky = k * y
    s = stable_ratio(RatioKind.SH_SH, ky, beta)
    c = stable_ratio(RatioKind.CH_SH, ky, beta)
    return {op: _operator_multiplier(op, k, y, s, c, nu) for op in names}


#: operators of the y = 0 rows of the boundary system (V and X rows)
_ZERO_ROW_OPS = (
    OperatorId.L_VU, OperatorId.L_VV, OperatorId.L_VY, OperatorId.L_VX,
    OperatorId.L_XU, OperatorId.L_XV, OperatorId.L_XY, OperatorId.L_XX,
)

#: per field, the operators acting on the two live amplitudes (u0 sh, y0 sh)
#: with the sign that folds the odd-operator action on the cosine column u0;
#: the v0 and x0 columns drop out because those amplitudes are exactly zero
_INITIAL_ROWS = {
    "U": ((OperatorId.L_UU, 1), (OperatorId.L_UY, 1)),
    "V": ((OperatorId.L_VU, -1), (OperatorId.L_VY, 1)),
    "Y": ((OperatorId.L_YU, -1), (OperatorId.L_YY, 1)),
    "X": ((OperatorId.L_XU, 1), (OperatorId.L_XY, 1)),
    "SX": ((OperatorId.A_U, -1), (OperatorId.A_Y, 1)),
}


def initial_amplitudes(n, k, beta, nu: float):
    """Path A: impose the four boundary conditions on the operator table.

    The per-mode initial-function amplitudes (u0 for U_0 ~ cos, v0 for
    V_0 ~ sin, y0 for Y_0 ~ sin, x0 for X_0 ~ cos) satisfy a 4x4 system;
    the two y = 0 rows are identity rows (checked here), which pins
    v0 = x0 = 0 exactly and reduces the system to 2x2.  That system is
    solved in the sh(k h)-scaled amplitudes (u0 sh, y0 sh) by an
    extended-precision Cramer solve with one refinement step, so the face
    conditions hold to roundoff of the profiles; conditioning is judged
    on the dimension-balanced variant (second unknown divided by k),
    whose entries are O(beta) with determinant -1 + O(e^(-2 beta)).

    ``n``, ``k`` and ``beta`` are scalars or (N, 1) columns; every mode is
    solved at once.  Returns (u0 sh, y0 sh) in long double.  The lowest
    mode whose system is too ill-conditioned raises
    :class:`ModeDegeneracyError`, as a mode-by-mode solve would.
    """
    n, k, beta = np.broadcast_arrays(n, k, beta)
    for op in _ZERO_ROW_OPS:
        value = np.broadcast_to(_operator_multiplier(op, k, 0.0, 0.0, 1.0, nu), k.shape)
        bad = (value != 0.0) & (value != 1.0)
        if np.any(bad):
            raise PlateStampError(f"operator {op.name} not an identity entry at y=0 "
                                  f"for mode n={n.flat[np.argmax(bad)]}")

    mh = _scaled_ops(k, beta, 1.0, nu, (
        OperatorId.L_VU, OperatorId.L_VY, OperatorId.L_XU, OperatorId.L_XY,
    ))
    # raw system in the scaled amplitudes (u0 sh, y0 sh); the face rows of
    # the assembled profiles reuse these exact entry values, so solving the
    # raw matrix keeps the face conditions at the solve residual
    a00, a01 = -mh[OperatorId.L_VU], mh[OperatorId.L_VY]
    a10, a11 = mh[OperatorId.L_XU], mh[OperatorId.L_XY]

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
    """Path A profiles, assembled from the amplitudes (u0 sh, y0 sh) of
    :func:`initial_amplitudes` through the full operator table, including
    the horizontal-stress row.  Shapes broadcast as in
    :func:`block_profiles`."""
    ops = _scaled_ops(k, beta, eta, nu, {op for f in fields for op, _ in _INITIAL_ROWS[f]})
    out = []
    for f in fields:
        (op_u, sign_u), (op_y, sign_y) = _INITIAL_ROWS[f]
        total = sign_u * ops[op_u] * u0 + sign_y * ops[op_y] * y0
        out.append(np.asarray(total, dtype=float))
    return tuple(out)


# ---------------------------------------------------------------------------
# path C: closed-form modal series
# ---------------------------------------------------------------------------

def closed_profiles(beta, nu: float, h: float, delta_ratio: float, eta, *,
                    uncorrected_shear: bool = False, fields=FIELD_NAMES) -> tuple:
    """Path C: closed-form profiles.

    ``delta_ratio`` is the calibrated amplitude-to-coefficient ratio
    (:func:`calibrate_delta_ratio`).  ``uncorrected_shear`` switches the
    shear profile to the variant whose second factor carries
    eta*sh(beta*eta); that variant violates X(1) = 0 and exists only for
    the discrepancy report.  Shapes broadcast as in :func:`block_profiles`.

    Internally each bracket is expanded around e^(beta(eta-1)) with
    E = e^(-2 beta), F = e^(-2 beta eta), so no large hyperbolic is formed.
    """
    # E = e^(-2 beta) from the C library's exp, mode by mode: numpy's
    # vectorised exp differs from it in the last bit for a few percent of
    # arguments, and the discrepancy report prints C-B differences at that
    # level
    E2 = np.array([math.exp(-2.0 * b) for b in np.ravel(beta)]).reshape(np.shape(beta))
    # denominators of the e^(beta(eta-1))-scaled brackets: 2*Delta and
    # Delta with Delta = (1-nu) sh(beta)^2 cancelled against e^(2 beta)/4
    den2 = 2.0 * (1.0 - nu) * (1.0 - E2) ** 2
    den1 = (1.0 - nu) * (1.0 - E2) ** 2
    rho = delta_ratio
    eta = np.asarray(eta, dtype=float)
    F = np.exp(-2.0 * beta * eta)
    em = np.exp(beta * (eta - 1.0))

    def shear_bracket():
        if uncorrected_shear:
            # common (1 - F) factored out so the face violation, which is
            # exponentially small in beta, survives in float arithmetic
            return (1 - F) * ((1 - eta) + E2 * (1 + eta))
        return (1 + E2) * (1 - F) - (1 - E2) * eta * (1 + F)

    formulas = {
        "U": lambda: -rho * em * (((1 - 2 * nu) * (1 - E2) - beta * (1 + E2)) * (1 + F)
                                  + beta * (1 - E2) * eta * (1 - F)) / den2,
        "V": lambda: rho * em * ((2 * (1 - nu) * (1 - E2) + beta * (1 + E2)) * (1 - F)
                                 - beta * (1 - E2) * eta * (1 + F)) / den2,
        "Y": lambda: rho * em * (beta / h) * (((1 - E2) + beta * (1 + E2)) * (1 + F)
                                              - beta * (1 - E2) * eta * (1 - F)) / den1,
        "X": lambda: rho * em * (beta * beta / h) * shear_bracket() / den1,
        "SX": lambda: rho * em * (beta / h) * (((1 - E2) - beta * (1 + E2)) * (1 + F)
                                               + beta * (1 - E2) * eta * (1 - F)) / den1,
    }
    return tuple(formulas[f]() for f in fields)


def calibrate_delta_ratio(geom: Geometry, mat: Material) -> float:
    """Scalar ratio between the closed-form amplitude and the sine
    coefficient, fixed by least-squares matching the closed V-profile to
    the building-block V-profile of mode 1 at 33 uniform eta samples.

    The scaled residual must drop below 1e-10 of the profile scale, which
    pins the ratio at 1 to roundoff; a larger residual means the two
    routes genuinely disagree and raises :class:`PathDivergenceError`.
    """
    _, k, beta = (a.item() for a in mode_columns([_CALIBRATION_MODE], geom))
    etas = np.linspace(0.0, 1.0, _CALIBRATION_SAMPLES)
    (vb,) = block_profiles(k, beta, mat.nu, etas, fields=("V",))
    (vc,) = closed_profiles(beta, mat.nu, geom.h, 1.0, etas, fields=("V",))
    rho = float(np.dot(vc, vb) / np.dot(vc, vc))
    scale = float(np.max(np.abs(vb)))
    residual = float(np.max(np.abs(rho * vc - vb)))
    if residual > _CALIBRATION_TOL * scale:
        raise PathDivergenceError(
            f"closed-form V-profile cannot be scaled onto the block profile: "
            f"residual {residual:.3e} exceeds {_CALIBRATION_TOL:g} x scale {scale:.3e}"
        )
    return rho


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
    for parity, trig in ((Parity.SINE, np.sin), (Parity.COSINE, np.cos)):
        weighted = c * trig(np.outer(k, xs))
        for name in (f for f in FIELD_NAMES if FIELD_PARITIES[f] is parity):
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
        if FIELD_PARITIES[name] is Parity.SINE:
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
    #: path A: the (N, 1) amplitude columns (u0 sh, y0 sh); path C: (rho,)
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
        (rho,) = self._path_args
        return closed_profiles(beta, nu, self.geometry.h, rho, eta, fields=fields)

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
        BLAS, so the result does not depend on the BLAS thread count.

        A point off the plate, or not finite, raises :class:`DomainError`.
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
        return {
            "u": total["U"] / G,
            "v": total["V"] / G,
            "sigma_x": total["SX"],
            "sigma_y": total["Y"],
            "tau_xy": total["X"],
        }


def assemble_series(
    coeffs: Sequence[float],
    geom: Geometry,
    mat: Material,
    path: SolutionPath | str = SolutionPath.B,
) -> SeriesField:
    """Pair sine coefficients c_1..c_N of V_h with the path's kernel
    arguments, computed for all modes at once; path A solves every mode's
    boundary system in one batch.
    """
    path = SolutionPath(path) if not isinstance(path, SolutionPath) else path
    c = np.array([float(c) for c in coeffs]).reshape(-1, 1)
    if c.size < 1:
        raise DomainError("need at least one sine coefficient")
    bad = ~np.isfinite(c)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DomainError(f"sine coefficient of mode {i + 1} is not finite: {c[i, 0]}")
    ns, k, beta = mode_columns(range(1, c.size + 1), geom)
    if path is SolutionPath.A:
        path_args = initial_amplitudes(ns, k, beta, mat.nu)
    elif path is SolutionPath.C:
        path_args = (calibrate_delta_ratio(geom, mat),)
    else:
        path_args = ()
    return SeriesField(material=mat, geometry=geom, N=c.size, path=path,
                       c=c, k=k, beta=beta, _path_args=path_args)


def evaluate_fields(sf: SeriesField, x: float, y: float) -> FieldSample:
    """Physical displacements and stresses of the truncated solution."""
    f = sf.grid_fields(np.array([x]), np.array([y]))
    return FieldSample(x=x, y=y, **{name: float(a[0, 0]) for name, a in f.items()})
