import functools

import numpy as np
import pytest

from platestamp import Geometry, Material
from platestamp.strip_solution import (
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


def mode_kernel(path, n, geom, mat, *, rho=1.0):
    """The kernel of path "A", "B" or "C" bound to mode n alone, on its
    scalar k and beta (path A: its own boundary solve; path C: amplitude
    ratio ``rho``).  Calling it on eta, with the kernel's optional
    ``fields``, returns the profiles U, V, Y, X, SX (or ``fields``)."""
    k, beta = mode_scalars(n, geom)
    nu = mat.nu
    if path == "A":
        return functools.partial(initial_profiles, k, beta, nu,
                                 *initial_amplitudes(n, k, beta, nu))
    if path == "B":
        return functools.partial(block_profiles, k, beta, nu)
    return functools.partial(closed_profiles, beta, nu, geom.h, rho)
