import functools
import math

import numpy as np
import pytest

from platestamp import Geometry, Material
from platestamp.stamp_problem import sine_transform
from platestamp.strip_solution import (
    _CLOSED_FORM_MIN_BETA,
    block_profiles,
    closed_profiles,
    initial_amplitudes,
    initial_profiles,
    mode_columns,
)


@pytest.fixture(scope="session")
def geom():
    """Desk-scale rectangle used throughout the suite."""
    return Geometry(l=2.0, h=1.0)


@pytest.fixture(scope="session")
def mat():
    return Material(E=1.0, nu=0.3)


@pytest.fixture(scope="session")
def etas11():
    return np.linspace(0.0, 1.0, 11)


def mode_scalars(n, geom):
    """k and beta of mode n alone, as Python floats from ``mode_columns``."""
    _, k, beta = mode_columns([n], geom)
    return k.item(), beta.item()


def mode_kernel(path, n, geom, mat):
    """The kernel of path "A", "B" or "C" bound to mode n alone, on its
    scalar k and beta (path A: its own boundary solve).  Calling it on
    eta, with the kernel's optional ``fields``, returns the profiles U, V,
    Y, X, SX (or ``fields``)."""
    k, beta = mode_scalars(n, geom)
    nu = mat.nu
    if path == "A":
        return functools.partial(initial_profiles, k, beta, nu,
                                 *initial_amplitudes(n, k, beta, nu))
    if path == "B":
        return functools.partial(block_profiles, k, beta, nu)
    return functools.partial(closed_profiles, beta, nu, geom.h)


def simpson_coefficients(profile, geom, N, subintervals):
    """Sine coefficients c_1..c_N of ``profile`` by composite Simpson with
    ``subintervals`` subintervals, for every kind, closed form or not: the
    quadrature that ``sine_coefficients`` runs, with 8 N subintervals, for
    a kind without one.  The profile's edges are not checked."""
    return sine_transform(lambda t: profile.evaluate(t, geom), geom.l, np.arange(1, N + 1),
                          subintervals, profile.breakpoints(geom))


def closed_form_floor_heights(l):
    """Two heights one ulp apart, (h_below, h_at), of plates of length
    ``l``: beta_1 = pi h / l, as ``mode_columns`` computes it, is just
    below path C's floor at h_below and at or just above it at h_at."""
    def beta_1(h):
        return mode_scalars(1, Geometry(l, h))[1]

    h = _CLOSED_FORM_MIN_BETA / (math.pi / l)
    while beta_1(h) < _CLOSED_FORM_MIN_BETA:
        h = math.nextafter(h, math.inf)
    while beta_1(math.nextafter(h, 0.0)) >= _CLOSED_FORM_MIN_BETA:
        h = math.nextafter(h, 0.0)
    return math.nextafter(h, 0.0), h
