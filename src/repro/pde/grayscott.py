"""The Gray-Scott reaction-diffusion system — the paper's test problem.

Section 7 of the paper evaluates every kernel inside a realistic solve of

    du/dt = D1 lap(u) - u v^2 + gamma (1 - u)
    dv/dt = D2 lap(v) + u v^2 - (gamma + kappa) v

on a periodic square, discretized with central differences on a 5-point
stencil, two unknowns per point, Crank-Nicolson in time (dt = 1), Newton
for the nonlinear systems, GMRES + multigrid for the linear ones.
Parameters follow Hundsdorfer & Verwer (the paper's stated source) /
Pearson's classic pattern-formation setup.

The Jacobian is assembled with the **full 2x2 block at every stencil
point**, exactly as PETSc's DMDA preallocation stores it: each row carries
5 points x 2 components = 10 entries, including the structural zeros of
the reaction coupling at off-center points.  That is the "each row has 10
elements" matrix of Section 7, nnz = 10 * ndof, with natural 2x2 blocks —
the matrix every figure of the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..mat.aij import AijMat, CooPlan
from .grid import Grid2D
from .stencil import FIVE_POINT, apply_laplacian


@dataclass(frozen=True)
class GrayScott:
    """Gray-Scott model parameters (Hundsdorfer & Verwer, p. 21 values)."""

    d1: float = 8.0e-5
    d2: float = 4.0e-5
    gamma: float = 0.024
    kappa: float = 0.06

    def __post_init__(self) -> None:
        if self.d1 <= 0 or self.d2 <= 0:
            raise ValueError("diffusivities must be positive")


class GrayScottProblem:
    """Discretized Gray-Scott system on a periodic :class:`Grid2D`."""

    def __init__(self, grid: Grid2D, model: GrayScott | None = None):
        if grid.dof != 2:
            raise ValueError("Gray-Scott needs dof=2 (u and v)")
        self.grid = grid
        self.model = model if model is not None else GrayScott()

    # -- state helpers ------------------------------------------------------
    def initial_state(self, noise: float = 0.01, seed: int = 2018) -> np.ndarray:
        """Pearson-style initial condition: trivial state + seeded square.

        u = 1, v = 0 everywhere; a centered square (side = L/4) is set to
        u = 1/2, v = 1/4 with a small multiplicative perturbation so the
        instability develops.  Deterministic for a fixed seed.
        """
        g = self.grid
        x, y = g.point_coordinates()
        u = np.ones(g.npoints)
        v = np.zeros(g.npoints)
        half, side = g.length / 2.0, g.length / 8.0
        box = (np.abs(x - half) <= side) & (np.abs(y - half) <= side)
        u[box] = 0.5
        v[box] = 0.25
        rng = np.random.default_rng(seed)
        u[box] *= 1.0 + noise * rng.standard_normal(int(box.sum()))
        v[box] *= 1.0 + noise * rng.standard_normal(int(box.sum()))
        w = np.empty(g.ndof)
        w[0::2] = u
        w[1::2] = v
        return w

    def split(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """State vector -> (u, v) 2D fields."""
        fields = self.grid.unknowns_as_fields(w)
        return fields[0], fields[1]

    # -- RHS and Jacobian ------------------------------------------------------
    def rhs(self, w: np.ndarray) -> np.ndarray:
        """f(w): the spatially discretized right-hand side."""
        g, m = self.grid, self.model
        u, v = self.split(w)
        uv2 = u * v * v
        fu = m.d1 * apply_laplacian(g, u) - uv2 + m.gamma * (1.0 - u)
        fv = m.d2 * apply_laplacian(g, v) + uv2 - (m.gamma + m.kappa) * v
        return g.fields_as_unknowns([fu, fv])

    def jacobian(
        self, w: np.ndarray, shift: float = 0.0, scale: float = 1.0
    ) -> AijMat:
        """``scale * J_f(w) + shift * I`` with the full 10-entry-per-row pattern.

        ``shift``/``scale`` implement PETSc's TSComputeIJacobian convention,
        so the Crank-Nicolson system matrix ``I/dt - 0.5 J_f`` assembles in
        one pass with the *same sparsity* at every Newton iteration — the
        property that makes re-assembly cheap: every call assembles over
        one :class:`~repro.mat.aij.CooPlan` per problem, and the SELL
        conversion and multigrid set-up reuse their structure plans.
        """
        g, m = self.grid, self.model
        if w.shape != (g.ndof,):
            raise ValueError(f"state must have {g.ndof} entries")
        u = w[0::2]
        v = w[1::2]
        p = g.npoints
        h2 = g.hx * g.hx
        if g.hx != g.hy:
            raise ValueError("assembly assumes square cells")

        zeros = np.zeros(p)
        vals: list[np.ndarray] = []
        for di, dj, wgt in FIVE_POINT:
            lap = wgt / h2
            # d f_u / d u and d f_v / d v: D * lap (+ reaction terms at the
            # center); the u-v coupling is a structural zero off-center.
            duu = m.d1 * lap * scale * np.ones(p)
            dvv = m.d2 * lap * scale * np.ones(p)
            if di == 0 and dj == 0:
                duu += scale * (-(v * v) - m.gamma) + shift
                dvv += scale * (2.0 * u * v - (m.gamma + m.kappa)) + shift
                vals += [duu, scale * (-2.0 * u * v), scale * (v * v), dvv]
            else:
                vals += [duu, zeros, zeros, dvv]
        return self._jacobian_plan.assemble(np.concatenate(vals))

    @cached_property
    def _jacobian_plan(self) -> CooPlan:
        """The Jacobian's assembly plan, built on first use.

        Its triplet indices depend only on the grid: per stencil point the
        2x2 block (u, u), (u, v), (v, u), (v, v), in the order
        :meth:`jacobian` lists the values.
        """
        g = self.grid
        base = np.arange(g.npoints, dtype=np.int64) * 2
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        for di, dj, _ in FIVE_POINT:
            nbr = g.shifted_points(di, dj) * 2
            rows += [base, base, base + 1, base + 1]
            cols += [nbr, nbr + 1, nbr, nbr + 1]
        return CooPlan(
            (g.ndof, g.ndof),
            np.concatenate(rows),
            np.concatenate(cols),
            sum_duplicates=False,
        )

    def jacobian_fd(self, w: np.ndarray, eps: float = 1.0e-7) -> np.ndarray:
        """Dense finite-difference Jacobian, for verification on tiny grids."""
        n = w.shape[0]
        if n > 512:
            raise ValueError("finite-difference Jacobian is for tiny grids only")
        j = np.zeros((n, n))
        f0 = self.rhs(w)
        for k in range(n):
            wp = w.copy()
            step = eps * max(1.0, abs(w[k]))
            wp[k] += step
            j[:, k] = (self.rhs(wp) - f0) / step
        return j
