"""Matrix gallery: the sparsity structures the format comparisons exercise.

Beyond the Gray-Scott Jacobian, the tests and ablation benchmarks need
matrices with controlled row-length behaviour: perfectly regular (banded
stencils), mildly irregular, and adversarially irregular (power-law row
lengths, where ELLPACK's padding explodes and sigma-sorting pays off).
Every generator returns an assembled :class:`~repro.mat.aij.AijMat` and is
deterministic in its seed.
"""

from __future__ import annotations

import numpy as np

from ..mat.aij import AijMat
from .grid import Grid2D
from .grayscott import GrayScottProblem
from .stencil import laplacian_csr, nine_point_laplacian_csr


def gray_scott_jacobian(nx: int, ny: int | None = None, seed: int = 2018) -> AijMat:
    """The paper's operator: Gray-Scott Jacobian at the initial state.

    10 nonzeros in every row, natural 2x2 blocks, banded structure —
    "when represented in the sliced ELLPACK format, there are very few
    padded zeros" (Section 7).
    """
    grid = Grid2D(nx, ny if ny is not None else nx, dof=2)
    problem = GrayScottProblem(grid)
    w = problem.initial_state(seed=seed)
    # Crank-Nicolson system matrix at dt=1: I - 0.5 J_f.
    return problem.jacobian(w, shift=1.0, scale=-0.5)


def laplacian_2d(nx: int, ny: int | None = None) -> AijMat:
    """Plain periodic 5-point Laplacian, 5 nonzeros/row, one component."""
    grid = Grid2D(nx, ny if ny is not None else nx, dof=1)
    return laplacian_csr(grid)


def nine_point_2d(nx: int, ny: int | None = None) -> AijMat:
    """9-point Laplacian: 9 nonzeros/row — a worst case for 8-lane CSR."""
    grid = Grid2D(nx, ny if ny is not None else nx, dof=1)
    return nine_point_laplacian_csr(grid)


def tridiagonal(n: int, diag: float = 2.0, off: float = -1.0) -> AijMat:
    """1D Laplacian band: 2-3 nonzeros/row, the remainder-loop stress case."""
    rows = np.concatenate(
        [np.arange(n), np.arange(1, n), np.arange(n - 1)]
    ).astype(np.int64)
    cols = np.concatenate(
        [np.arange(n), np.arange(n - 1), np.arange(1, n)]
    ).astype(np.int64)
    vals = np.concatenate(
        [np.full(n, diag), np.full(n - 1, off), np.full(n - 1, off)]
    )
    return AijMat.from_coo((n, n), rows, cols, vals)


def random_sparse(
    n: int, density: float = 0.05, seed: int = 0, symmetric: bool = False
) -> AijMat:
    """Uniformly random sparsity with a guaranteed nonzero diagonal."""
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    dense = np.where(mask, rng.standard_normal((n, n)), 0.0)
    if symmetric:
        dense = (dense + dense.T) / 2.0
    # Diagonal dominance keeps the gallery usable by the solver tests.
    dense[np.arange(n), np.arange(n)] = np.abs(dense).sum(axis=1) + 1.0
    return AijMat.from_dense(dense)


def irregular_rows(
    n: int,
    min_len: int = 1,
    max_len: int = 64,
    alpha: float = 1.5,
    seed: int = 0,
) -> AijMat:
    """Power-law row lengths: the adversarial case for ELLPACK padding.

    Row lengths follow a truncated Pareto-like distribution, so a few rows
    are far longer than the median — exactly the structure where full
    ELLPACK wastes memory, slicing helps (Section 5.1), and sigma-sorting
    helps more (the Section 5.4 ablation).
    """
    if not 1 <= min_len <= max_len <= n:
        raise ValueError("need 1 <= min_len <= max_len <= n")
    rng = np.random.default_rng(seed)
    raw = min_len + (rng.pareto(alpha, size=n) * min_len)
    lengths = np.clip(raw.astype(np.int64), min_len, max_len)
    rows_parts = []
    cols_parts = []
    vals_parts = []
    for i in range(n):
        k = int(lengths[i])
        cols = rng.choice(n, size=k, replace=False)
        rows_parts.append(np.full(k, i, dtype=np.int64))
        cols_parts.append(np.sort(cols).astype(np.int64))
        vals_parts.append(rng.standard_normal(k))
    return AijMat.from_coo(
        (n, n),
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
        sum_duplicates=True,
    )


def spd_laplacian(nx: int) -> AijMat:
    """Symmetric positive definite 5-point operator.

    The periodic Laplacian is singular (constant nullspace); shifting by
    identity makes it SPD while keeping the 5-point structure.
    """
    lap = laplacian_2d(nx)
    n = lap.shape[0]
    eye_rows = np.arange(n, dtype=np.int64)
    shifted = AijMat.from_coo(
        (n, n),
        np.concatenate([np.repeat(eye_rows, lap.row_lengths()), eye_rows]),
        np.concatenate([lap.colidx.astype(np.int64), eye_rows]),
        np.concatenate([-lap.val, np.ones(n)]),
        sum_duplicates=True,
    )
    return shifted
