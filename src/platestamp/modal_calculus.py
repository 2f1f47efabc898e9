"""Hyperbolic ratios and transfer operators shared by the strip solution.

The strip solution writes every field as trig-of-derivative operators
(functions of a = d/dx) acting on boundary data.  On a single Fourier
mode the substitution rules

    sin(y a) sin(k x) = sh(y k) cos(k x)
    cos(y a) sin(k x) = ch(y k) sin(k x)
    a sin(k x)        = k cos(k x)

turn every operator into a real hyperbolic multiplier of the mode.
Operators even in a keep the x-parity of the mode; odd operators flip it
and, since a cos(k x) = -k sin(k x), change the sign of their multiplier
on a cos(k x) mode.

This module is the one source of those formulas: :func:`stable_ratio`
gives the hyperbolic ratios from which path B's building blocks are
formed (:func:`platestamp.strip_solution.block_profiles`), and
``_operator_multiplier`` gives each transfer operator's multiplier on a
sin(k x) mode, which path A's boundary solve and profiles evaluate
(:func:`platestamp.strip_solution.initial_amplitudes`).  Hyperbolic
ratios are evaluated in exponential form, so that no intermediate sh/ch
is ever formed for large arguments.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .core import DomainError, SingularRatioError

__all__ = [
    "RatioKind",
    "OperatorId",
    "stable_ratio",
]


class RatioKind(Enum):
    SH_SH = "sh(a)/sh(b)"
    CH_SH = "ch(a)/sh(b)"
    CHCH_SHSH = "ch(a)ch(b)/sh(b)^2"


class OperatorId(Enum):
    """Tags of the transfer operators of path A.

    L_FG is the entry of the operator matrix that carries the initial
    function G (U, V, Y or X at y = 0) into the field F at height y; A_G
    carries G into the horizontal stress.  ``_operator_multiplier`` gives
    each one's multiplier on a sin(k x) mode.
    """

    L_UU = "L_UU"
    L_UV = "L_UV"
    L_UY = "L_UY"
    L_UX = "L_UX"
    L_VU = "L_VU"
    L_VV = "L_VV"
    L_VY = "L_VY"
    L_VX = "L_VX"
    L_YU = "L_YU"
    L_YV = "L_YV"
    L_YY = "L_YY"
    L_YX = "L_YX"
    L_XU = "L_XU"
    L_XV = "L_XV"
    L_XY = "L_XY"
    L_XX = "L_XX"
    A_U = "A_U"
    A_V = "A_V"
    A_Y = "A_Y"
    A_X = "A_X"


# ---------------------------------------------------------------------------
# stable hyperbolic ratios
# ---------------------------------------------------------------------------

def stable_ratio(kind: RatioKind, a, b):
    """Overflow-safe hyperbolic ratio, e.g. sh(a)/sh(b) for 0 <= a <= b.

    Evaluated in exponential form, e.g.

        sh(a)/sh(b) = e^(a-b) (1 - e^(-2a)) / (1 - e^(-2b)),

    so no sh/ch of a large argument is ever formed.  Accepts scalars or
    numpy arrays (broadcast); returns a float for scalar input.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any(b_arr <= 0.0):
        raise SingularRatioError(f"ratio denominator argument must be positive, got b={b}")
    if np.any(a_arr < 0.0):
        raise DomainError(f"ratio numerator argument must be non-negative, got a={a}")
    scale = np.exp(a_arr - b_arr)
    em2b = np.expm1(-2.0 * b_arr)  # -(1 - e^(-2b))
    if kind is RatioKind.SH_SH:
        out = scale * np.expm1(-2.0 * a_arr) / em2b
    elif kind is RatioKind.CH_SH:
        out = scale * (1.0 + np.exp(-2.0 * a_arr)) / (-em2b)
    elif kind is RatioKind.CHCH_SHSH:
        out = scale * (1.0 + np.exp(-2.0 * a_arr)) * (1.0 + np.exp(-2.0 * b_arr)) / em2b**2
    else:
        raise DomainError(f"unknown ratio kind {kind!r}")
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


# ---------------------------------------------------------------------------
# transfer operators
# ---------------------------------------------------------------------------

# The operator family is the matrix exponential of the first-order system
# in y satisfied by (U, V, Y, X); each entry must obey the column ODEs
#   dU/dy = X - aV,     dV/dy = -(nu/(1-nu)) aU + ((1-2nu)/(2(1-nu))) Y,
#   dY/dy = -aX,        dX/dy = -(2/(1-nu)) a^2 U - (nu/(1-nu)) aY.
# That consistency requirement pins two signs that do not follow from the
# table's symmetry pairs: the cos(ya) term of L_UX enters with +, and
# L_YV carries an overall minus, L_YV = -(a/(1-nu)) (sin(ya) - a y cos(ya)).
# Both are exercised by the transfer-ODE test.

_OPERATOR_ALIASES = {
    OperatorId.L_VX: OperatorId.L_UY,
    OperatorId.L_YY: OperatorId.L_VV,
    OperatorId.L_YX: OperatorId.L_UV,
    OperatorId.L_XV: OperatorId.L_YU,
    OperatorId.L_XY: OperatorId.L_VU,
    OperatorId.L_XX: OperatorId.L_UU,
    OperatorId.A_V: OperatorId.L_XU,
}


def _operator_multiplier(op: OperatorId, k, y, s, c, nu):
    """On-sine multiplier given s = sh(ky), c = ch(ky) (possibly both
    divided by a common sh(kh) scale, which the formulas are linear in).
    """
    op = _OPERATOR_ALIASES.get(op, op)
    ky = k * y
    d2 = 2.0 * (1.0 - nu)
    if op is OperatorId.L_UU:
        return c + ky * s / d2
    if op is OperatorId.L_UV:
        return -((1.0 - 2.0 * nu) * s + ky * c) / d2
    if op is OperatorId.L_UY:
        return -y * s / (2.0 * d2)
    if op is OperatorId.L_UX:
        # sign of the cos(ya) term fixed by dL_UX/dy = -a L_VX + L_XX
        return ((3.0 - 4.0 * nu) * s / k + y * c) / (2.0 * d2)
    if op is OperatorId.L_VU:
        return ((1.0 - 2.0 * nu) * s - ky * c) / d2
    if op is OperatorId.L_VV:
        return c - ky * s / d2
    if op is OperatorId.L_VY:
        return ((3.0 - 4.0 * nu) * s / k - y * c) / (2.0 * d2)
    if op is OperatorId.L_YU:
        return -2.0 * k * ky * s / d2
    if op is OperatorId.L_YV:
        # overall sign fixed by dL_YV/dy = -a L_XV
        return 2.0 * k * (s - ky * c) / d2
    if op is OperatorId.L_XU:
        return 2.0 * k * (s + ky * c) / d2
    if op is OperatorId.A_U:
        return 2.0 * k * (2.0 * c + ky * s) / d2
    if op is OperatorId.A_Y:
        return (2.0 * nu * c + ky * s) / d2
    if op is OperatorId.A_X:
        return ((3.0 - 2.0 * nu) * s + ky * c) / d2
    raise DomainError(f"{op} is not a transfer operator")

