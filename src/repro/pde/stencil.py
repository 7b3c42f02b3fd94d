"""Finite-difference stencil operators on periodic structured grids.

Builds the 5-point Laplacian (and apply-only variants) the Gray-Scott
discretization uses.  Matrix assembly is fully vectorized: for a grid with
P points the COO triplets of all five stencil legs are produced as whole
arrays, so building the 2048x2048-point operators of the paper's
experiments stays feasible in this interpreter for test-scale grids.
"""

from __future__ import annotations

import numpy as np

from ..mat.aij import AijMat
from .grid import Grid2D

#: The five (di, dj, weight-multiplier) legs of the standard Laplacian.
FIVE_POINT = ((0, 0, -4.0), (-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0))


def laplacian_csr(grid: Grid2D, component: int = 0, scale: float = 1.0) -> AijMat:
    """The periodic 5-point Laplacian acting on one component.

    Returns an ndof x ndof matrix that applies ``scale / h^2`` times the
    stencil to unknowns of ``component`` and zero to other components
    (their rows are empty) — useful building block and heavily tested
    against the spectral exactness of the periodic Laplacian.
    """
    if grid.hx != grid.hy:
        raise ValueError("5-point Laplacian here assumes square cells")
    h2 = grid.hx * grid.hx
    p = grid.npoints
    dof = grid.dof
    base = np.arange(p, dtype=np.int64) * dof + component
    rows_parts = []
    cols_parts = []
    vals_parts = []
    for di, dj, w in FIVE_POINT:
        rows_parts.append(base)
        cols_parts.append(grid.shifted_points(di, dj) * dof + component)
        vals_parts.append(np.full(p, w * scale / h2))
    return AijMat.from_coo(
        (grid.ndof, grid.ndof),
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
        sum_duplicates=True,
    )


def apply_laplacian(grid: Grid2D, field: np.ndarray) -> np.ndarray:
    """Matrix-free periodic 5-point Laplacian of one 2D field.

    Used by the Gray-Scott residual evaluation; tests check it against the
    assembled operator.  The four neighbours are slices of one
    wrap-padded copy (the ``np.roll`` shifts without four copies), summed
    as ``N + S + W + E - 4u`` and then divided by ``h^2``.
    """
    ny, nx = grid.ny, grid.nx
    if field.shape != (ny, nx):
        raise ValueError("field shape does not match the grid")
    h2 = grid.hx * grid.hx
    # Corners are never read.
    pad = np.empty((ny + 2, nx + 2), dtype=np.result_type(field, 1.0))
    pad[1:-1, 1:-1] = field
    pad[0, 1:-1] = field[-1]
    pad[-1, 1:-1] = field[0]
    pad[1:-1, 0] = field[:, -1]
    pad[1:-1, -1] = field[:, 0]
    out = pad[:-2, 1:-1] + pad[2:, 1:-1]
    out += pad[1:-1, :-2]
    out += pad[1:-1, 2:]
    out -= 4.0 * field
    out /= h2
    return out


def nine_point_laplacian_csr(grid: Grid2D, component: int = 0) -> AijMat:
    """The 9-point compact Laplacian, for the matrix gallery.

    A denser stencil (20/6, 4/6, 1/6 weights) whose rows hold 9 entries per
    component — exercising row lengths that are *not* friendly to 8-wide
    vectorization, one of the CSR weaknesses the paper motivates SELL with.
    """
    if grid.hx != grid.hy:
        raise ValueError("9-point Laplacian here assumes square cells")
    h2 = grid.hx * grid.hx
    p = grid.npoints
    dof = grid.dof
    base = np.arange(p, dtype=np.int64) * dof + component
    legs = (
        (0, 0, -20.0 / 6.0),
        (-1, 0, 4.0 / 6.0),
        (1, 0, 4.0 / 6.0),
        (0, -1, 4.0 / 6.0),
        (0, 1, 4.0 / 6.0),
        (-1, -1, 1.0 / 6.0),
        (1, -1, 1.0 / 6.0),
        (-1, 1, 1.0 / 6.0),
        (1, 1, 1.0 / 6.0),
    )
    rows_parts = []
    cols_parts = []
    vals_parts = []
    for di, dj, w in legs:
        rows_parts.append(base)
        cols_parts.append(grid.shifted_points(di, dj) * dof + component)
        vals_parts.append(np.full(p, w / h2))
    return AijMat.from_coo(
        (grid.ndof, grid.ndof),
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
        sum_duplicates=True,
    )
