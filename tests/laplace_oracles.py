"""Two solutions of Laplace's equation on the rectangle with Dirichlet
data, which the tests check against each other and against path B: the
four-series solution (one sine series per edge, damped into the interior
by the sinh ratio ``strip_solution._sh_sh``) and the 5-point finite-difference
solve by DST-I along both axes (the fast Poisson method of Hockney and of
Buzbee, Golub and Nielson).

Edge data is a dict of callables keyed ``f1``..``f4``: f1(y), f2(y) on the
edges x = 0 and x = l, f3(x), f4(x) on y = 0 and y = h.  A missing edge
is zero.
"""
import math

import numpy as np

from platestamp.stamp_problem import sine_transform
from platestamp.strip_solution import _sh_sh


def series_transforms(edges, geom, N, panels=None, breakpoints=None):
    """Raw sine transforms of modes 1..N of each edge in ``edges``, by
    Simpson with ``panels`` subintervals (8 N by default) split at
    ``breakpoints[edge]``."""
    lengths = {"f1": geom.h, "f2": geom.h, "f3": geom.l, "f4": geom.l}
    return {edge: sine_transform(f, lengths[edge], np.arange(1, N + 1),
                                 8 * N if panels is None else panels,
                                 (breakpoints or {}).get(edge, ()))
            for edge, f in edges.items()}


def series_solution(transforms, geom, x, y):
    """The truncated four-series sum at the broadcast points (x, y), from
    raw transforms by edge name; a missing edge is zero."""
    l, h = geom.l, geom.h
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    # per edge: the coordinate along it, its length, the distance from the
    # opposite edge and the rectangle's width across it
    layout = {"f1": (y, h, l - x, l), "f2": (y, h, x, l),
              "f3": (x, l, h - y, h), "f4": (x, l, y, h)}
    total = np.zeros(x.shape)
    for edge, coeffs in transforms.items():
        along, length, depth, width = layout[edge]
        for n, c in enumerate(coeffs, start=1):
            k = n * math.pi / length
            total += c * np.sin(k * along) * _sh_sh(k * depth, k * width)
    return total


def five_point(F, dx, dy):
    """5-point discrete Laplacian of the grid values ``F`` on its interior."""
    return ((F[1:-1, 2:] - 2 * F[1:-1, 1:-1] + F[1:-1, :-2]) / dx**2
            + (F[2:, 1:-1] - 2 * F[1:-1, 1:-1] + F[:-2, 1:-1]) / dy**2)


def field_laplacian(field, geom, grid):
    """5-point Laplacian of ``field(X, Y)`` on the interior of ``grid``."""
    return five_point(field(*np.meshgrid(*grid.axes(geom))), *grid.spacing(geom))


def laplacian_order(field, geom, grid, refined):
    """Observed order of the root-mean-square 5-point Laplacian of
    ``field`` between two grids."""
    rms = [math.sqrt(np.mean(field_laplacian(field, geom, g) ** 2)) for g in (grid, refined)]
    return math.log(rms[0] / rms[1]) / math.log(grid.spacing(geom)[0] / refined.spacing(geom)[0])


def _dst2(a):
    """DST-I along both axes: per axis, minus the imaginary part of a real
    FFT of length 2(n + 1) of the data with one leading zero."""
    for _ in range(2):
        n = a.shape[1]
        padded = np.zeros((a.shape[0], 2 * (n + 1)))
        padded[:, 1:n + 1] = a
        a = -np.fft.rfft(padded, axis=1).imag[:, 1:n + 1].T
    return a


def fd_solution(edges, geom, grid):
    """The 5-point discrete Laplace solution on ``grid``, the full
    (ny + 2, nx + 2) array with its boundary ring.  Its algebraic residual
    must stay within 1e-11 of the right-hand side's scale."""
    nx, ny = grid.nx, grid.ny
    dx, dy = grid.spacing(geom)
    xs, ys = grid.axes(geom)
    full = np.zeros((ny + 2, nx + 2))
    for edge, ring, t in (("f1", np.s_[:, 0], ys), ("f2", np.s_[:, -1], ys),
                          ("f3", np.s_[0, :], xs), ("f4", np.s_[-1, :], xs)):
        if edge in edges:
            full[ring] = edges[edge](t)
    b = -five_point(full, dx, dy)
    # eigenvalues of the 1-D second differences, sin(p pi j/(n+1)) in j
    lam_x = -4.0 / dx**2 * np.sin(np.arange(1, nx + 1) * np.pi / (2 * (nx + 1)))**2
    lam_y = -4.0 / dy**2 * np.sin(np.arange(1, ny + 1) * np.pi / (2 * (ny + 1)))**2
    spectrum = _dst2(b) / (lam_y[:, None] + lam_x)
    full[1:-1, 1:-1] = _dst2(spectrum) * (4.0 / ((nx + 1) * (ny + 1)))
    residual = np.max(np.abs(five_point(full, dx, dy))) / max(1.0, np.max(np.abs(b)))
    assert residual <= 1e-11, f"fast Poisson solve residual {residual:.3e}"
    return full
