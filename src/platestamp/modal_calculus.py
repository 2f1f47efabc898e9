"""Overflow-safe hyperbolic ratios shared by the strip solution.

Every per-mode profile of :mod:`platestamp.strip_solution` is a
combination of the ratios sh(ky)/sh(kh), ch(ky)/sh(kh) and
ch(ky)ch(kh)/sh(kh)^2: path B's building blocks
(:func:`platestamp.strip_solution.block_profiles`) and path A's transfer
operators, scaled by sh(k h)
(:func:`platestamp.strip_solution.initial_profiles`), are written in
them.  :func:`stable_ratio` evaluates them in exponential form, so that no
intermediate sh/ch is ever formed for large arguments.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .core import DomainError, SingularRatioError

__all__ = [
    "RatioKind",
    "stable_ratio",
]


class RatioKind(Enum):
    SH_SH = "sh(a)/sh(b)"
    CH_SH = "ch(a)/sh(b)"
    CHCH_SHSH = "ch(a)ch(b)/sh(b)^2"


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

