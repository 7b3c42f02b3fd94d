"""Fully distributed Gray-Scott: the paper's parallel simulation, end to end.

The abstract promises "preconditioned iterative solvers in realistic
PDE-based simulations in parallel"; this module delivers that on the
simulated MPI runtime with no replicated global state anywhere:

* the periodic grid is decomposed into horizontal strips (contiguous grid
  rows per rank — the 1D DMDA decomposition matching PETSc's row-block
  matrix layout);
* each rank evaluates its residual from its strip plus two ghost *grid
  rows* exchanged with its neighbours (the 5-point stencil's halo);
* each rank assembles only its own Jacobian rows, splitting them into the
  diagonal/off-diagonal blocks of an :class:`~repro.mat.mpi_aij.MPIAij`
  directly — the rank-local assembly path real applications use, not the
  replicate-and-slice convenience constructor of the tests;
* Newton runs collectively (residual norms are allreduces), each step
  solving with the ordinary :class:`~repro.ksp.gmres.GMRES` on the
  distributed Jacobian (its inner products reduce across ranks).

A test pins the distributed trajectory against the sequential
:class:`~repro.pde.grayscott.GrayScottProblem` solve to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..comm.communicator import Comm
from ..comm.partition import RowLayout
from ..mat.aij import AijMat
from ..mat.mpi_aij import CompressedCsr, MPIAij, split_local_rows
from ..mat.mpi_sell import MPISell
from ..vec.mpi_vec import MPIVec
from .grayscott import GrayScott
from .grid import Grid2D
from .stencil import FIVE_POINT


@dataclass
class StripDecomposition:
    """Contiguous grid-row strips, one per rank."""

    grid: Grid2D
    comm: Comm
    row_starts: list[int] = field(init=False)

    def __post_init__(self) -> None:
        ny, size = self.grid.ny, self.comm.size
        if ny < size:
            raise ValueError(
                f"grid has {ny} rows but the communicator has {size} ranks"
            )
        base, extra = divmod(ny, size)
        starts = [0]
        for rank in range(size):
            starts.append(starts[-1] + base + (1 if rank < extra else 0))
        self.row_starts = starts

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def my_rows(self) -> tuple[int, int]:
        """This rank's [start, end) grid rows."""
        return self.row_starts[self.rank], self.row_starts[self.rank + 1]

    @property
    def ny_local(self) -> int:
        start, end = self.my_rows
        return end - start

    def dof_layout(self) -> RowLayout:
        """The matching unknown-index layout (nx * dof per grid row)."""
        per_row = self.grid.nx * self.grid.dof
        return RowLayout.from_local_sizes(
            [
                (self.row_starts[r + 1] - self.row_starts[r]) * per_row
                for r in range(self.comm.size)
            ]
        )

    def exchange_halo(self, local_fields: np.ndarray) -> np.ndarray:
        """Extend ``(dof, ny_local, nx)`` fields with one ghost row each side.

        Neighbours are periodic in rank space; single-rank worlds wrap
        locally.  Returns ``(dof, ny_local + 2, nx)``.
        """
        dof, ny_local, nx = local_fields.shape
        if ny_local != self.ny_local or nx != self.grid.nx:
            raise ValueError("field block does not match the decomposition")
        comm, size = self.comm, self.comm.size
        out = np.empty((dof, ny_local + 2, nx), dtype=np.float64)
        out[:, 1:-1, :] = local_fields
        if size == 1:
            out[:, 0, :] = local_fields[:, -1, :]
            out[:, -1, :] = local_fields[:, 0, :]
            return out
        up = (comm.rank - 1) % size    # owns the grid rows below mine
        down = (comm.rank + 1) % size  # owns the grid rows above mine
        comm.isend(local_fields[:, 0, :].copy(), up, tag=101)
        comm.isend(local_fields[:, -1, :].copy(), down, tag=102)
        out[:, -1, :] = comm.recv(down, tag=101)
        out[:, 0, :] = comm.recv(up, tag=102)
        return out


class DistributedGrayScott:
    """Rank-local Gray-Scott residual and Jacobian assembly."""

    def __init__(
        self,
        comm: Comm,
        grid: Grid2D,
        model: GrayScott | None = None,
        matrix_format: str = "aij",
        slice_height: int = 8,
    ):
        if grid.dof != 2:
            raise ValueError("Gray-Scott needs dof=2")
        if matrix_format not in ("aij", "sell"):
            raise ValueError("matrix_format must be 'aij' or 'sell'")
        self.grid = grid
        self.model = model if model is not None else GrayScott()
        self.decomp = StripDecomposition(grid, comm)
        self.layout = self.decomp.dof_layout()
        self.comm = comm
        self.matrix_format = matrix_format
        self.slice_height = slice_height

    # -- state handling ----------------------------------------------------
    def initial_state(self, noise: float = 0.01, seed: int = 2018) -> MPIVec:
        """The rank's strip of the (deterministic) global initial state."""
        from .grayscott import GrayScottProblem

        reference = GrayScottProblem(self.grid, self.model).initial_state(
            noise=noise, seed=seed
        )
        return MPIVec.from_global(self.comm, self.layout, reference)

    def _strip_fields(self, w: MPIVec) -> np.ndarray:
        """Local interleaved unknowns -> (2, ny_local, nx) fields."""
        nx = self.grid.nx
        ny_local = self.decomp.ny_local
        u = w.local.array[0::2].reshape(ny_local, nx)
        v = w.local.array[1::2].reshape(ny_local, nx)
        return np.stack([u, v])

    # -- residual ------------------------------------------------------------
    def rhs(self, w: MPIVec) -> MPIVec:
        """f(w), computed strip-locally with one halo exchange."""
        g, m = self.grid, self.model
        h2 = g.hx * g.hx
        halo = self.decomp.exchange_halo(self._strip_fields(w))
        u, v = halo[0], halo[1]
        # 5-point Laplacian on the interior of the halo block; x wraps
        # periodically in-place (the strip spans full grid rows).
        lap = (
            np.roll(u, 1, axis=1)[1:-1]
            + np.roll(u, -1, axis=1)[1:-1]
            + u[:-2]
            + u[2:]
            - 4.0 * u[1:-1]
        ) / h2
        lap_v = (
            np.roll(v, 1, axis=1)[1:-1]
            + np.roll(v, -1, axis=1)[1:-1]
            + v[:-2]
            + v[2:]
            - 4.0 * v[1:-1]
        ) / h2
        ui, vi = u[1:-1], v[1:-1]
        uv2 = ui * vi * vi
        fu = m.d1 * lap - uv2 + m.gamma * (1.0 - ui)
        fv = m.d2 * lap_v + uv2 - (m.gamma + m.kappa) * vi
        out = w.duplicate()
        out.local.array[0::2] = fu.ravel()
        out.local.array[1::2] = fv.ravel()
        return out

    # -- Jacobian ------------------------------------------------------------
    def jacobian(self, w: MPIVec, shift: float = 0.0, scale: float = 1.0) -> MPIAij:
        """Assemble this rank's Jacobian rows into an MPIAij/MPISell.

        Stencil coefficients reference global unknown indices; the split
        into diagonal + compressed off-diagonal blocks happens locally,
        with no rank ever seeing another rank's rows.
        """
        g, m = self.grid, self.model
        h2 = g.hx * g.hx
        nx = g.nx
        row_start, row_end = self.decomp.my_rows
        u = w.local.array[0::2]
        v = w.local.array[1::2]
        p_local = self.decomp.ny_local * nx

        local_point = np.arange(p_local, dtype=np.int64)
        global_start_dof = self.layout.range_of(self.comm.rank)[0]
        base = global_start_dof + 2 * local_point

        # Global point index of each stencil neighbour of each local point.
        i = local_point % nx
        j_local = local_point // nx
        j_global = j_local + row_start

        rows_parts, cols_parts, vals_parts = [], [], []
        zeros = np.zeros(p_local)
        for di, dj, wgt in FIVE_POINT:
            ni = (i + di) % nx
            nj = (j_global + dj) % g.ny
            nbr = (nj * nx + ni) * 2
            lap = wgt / h2
            center = di == 0 and dj == 0
            duu = m.d1 * lap * scale * np.ones(p_local)
            dvv = m.d2 * lap * scale * np.ones(p_local)
            if center:
                duu += scale * (-(v * v) - m.gamma) + shift
                dvv += scale * (2.0 * u * v - (m.gamma + m.kappa)) + shift
            duv = scale * (-2.0 * u * v) if center else zeros
            dvu = scale * (v * v) if center else zeros
            for row_off, col_off, vals in (
                (0, 0, duu),
                (0, 1, duv),
                (1, 0, dvu),
                (1, 1, dvv),
            ):
                rows_parts.append(base + row_off)
                cols_parts.append(nbr + col_off)
                vals_parts.append(vals)

        rows = np.concatenate(rows_parts) - global_start_dof
        cols = np.concatenate(cols_parts)
        vals = np.concatenate(vals_parts)
        n_global = self.layout.n_global
        local_csr = AijMat.from_coo(
            (2 * p_local, n_global), rows, cols, vals, sum_duplicates=False
        )
        rrange = self.layout.range_of(self.comm.rank)
        diag, off, garray = split_local_rows(
            local_csr, (0, 2 * p_local), rrange
        )
        if self.matrix_format == "sell":
            from ..core.sell import SellMat

            diag = SellMat.from_csr(diag, slice_height=self.slice_height)
            return MPISell(
                self.comm, self.layout, diag, CompressedCsr.from_csr(off), garray
            )
        return MPIAij(
            self.comm, self.layout, diag, CompressedCsr.from_csr(off), garray
        )


@dataclass
class ParallelThetaMethod:
    """Distributed Crank-Nicolson: parallel Newton over a distributed KSP.

    ``ksp_factory`` builds the linear solver for each Newton step, e.g.
    ``lambda: GMRES(pc=JacobiPC())``; its ``solve`` takes the MPIAij
    Jacobian and an MPIVec right-hand side and returns this rank's block
    of the update.
    """

    problem: DistributedGrayScott
    ksp_factory: Callable[[], object]
    theta: float = 0.5
    dt: float = 1.0
    snes_rtol: float = 1.0e-8
    snes_atol: float = 1.0e-12
    snes_max_it: int = 25

    def step(self, w_n: MPIVec) -> tuple[MPIVec, int, int]:
        """One implicit step; returns (w_{n+1}, newton_its, linear_its)."""
        prob = self.problem
        inv_dt = 1.0 / self.dt
        f_n = prob.rhs(w_n)
        w = w_n.copy()
        linear_total = 0

        def g_norm(w_trial: MPIVec) -> tuple[MPIVec, float]:
            f = prob.rhs(w_trial)
            r = w_trial.copy()
            r.axpy(-1.0, w_n)
            r.scale(inv_dt)
            r.axpy(-self.theta, f)
            r.axpy(-(1.0 - self.theta), f_n)
            return r, r.norm("2")

        residual, fnorm = g_norm(w)
        fnorm0 = fnorm if fnorm > 0 else 1.0
        for it in range(1, self.snes_max_it + 1):
            if fnorm <= self.snes_atol or fnorm <= self.snes_rtol * fnorm0:
                return w, it - 1, linear_total
            op = prob.jacobian(w, inv_dt, -self.theta)
            rhs_vec = residual.copy()
            rhs_vec.scale(-1.0)
            ksp = self.ksp_factory()
            result = ksp.solve(op, rhs_vec)
            linear_total += result.iterations
            step_vec = MPIVec(prob.comm, prob.layout, result.x)
            w.axpy(1.0, step_vec)
            residual, fnorm = g_norm(w)
        raise RuntimeError(
            f"parallel Newton failed to converge (fnorm {fnorm:.3e})"
        )

    def integrate(self, w0: MPIVec, nsteps: int) -> tuple[MPIVec, dict]:
        """Take ``nsteps`` steps; returns the final state and statistics."""
        w = w0.copy()
        newton = linear = 0
        for _ in range(nsteps):
            w, n_it, l_it = self.step(w)
            newton += n_it
            linear += l_it
        return w, {"newton": newton, "linear": linear}
