"""The fully distributed Gray-Scott simulation: no replicated state.

The paper's abstract claim — preconditioned iterative solvers in realistic
PDE-based simulations *in parallel* — exercised end to end: strip
decomposition, halo exchanges, rank-local Jacobian assembly into
diag/off-diag blocks, parallel Newton over parallel GMRES, CSR and SELL.
"""

import numpy as np
import pytest

from repro.comm.spmd import SpmdError, run_spmd
from repro.ksp import GMRES, JacobiPC, ThetaMethod
from repro.pde import Grid2D, GrayScottProblem
from repro.pde.parallel_grayscott import (
    DistributedGrayScott,
    ParallelThetaMethod,
    StripDecomposition,
)
from repro.vec import MPIVec

GRID = Grid2D(12, 12, dof=2)


@pytest.fixture(scope="module")
def sequential_reference():
    prob = GrayScottProblem(GRID)
    ts = ThetaMethod(
        rhs=prob.rhs,
        jacobian=prob.jacobian,
        ksp_factory=lambda: GMRES(pc=JacobiPC(), rtol=1e-10),
        dt=1.0,
    )
    return prob, ts.integrate(prob.initial_state(), 3).final_state


class TestStripDecomposition:
    def test_strips_cover_the_grid(self):
        def prog(comm):
            decomp = StripDecomposition(GRID, comm)
            return decomp.my_rows

        ranges = run_spmd(3, prog)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == GRID.ny
        for (_, end), (start, _) in zip(ranges, ranges[1:], strict=False):
            assert end == start

    def test_halo_exchange_matches_periodic_neighbours(self):
        field = np.arange(GRID.ny * GRID.nx, dtype=np.float64).reshape(
            GRID.ny, GRID.nx
        )

        def prog(comm):
            decomp = StripDecomposition(GRID, comm)
            start, end = decomp.my_rows
            local = field[start:end][None, :, :]
            halo = decomp.exchange_halo(local)
            below = field[(start - 1) % GRID.ny]
            above = field[end % GRID.ny]
            return (
                np.array_equal(halo[0, 0], below),
                np.array_equal(halo[0, -1], above),
            )

        for ok_below, ok_above in run_spmd(4, prog):
            assert ok_below and ok_above

    def test_more_ranks_than_grid_rows_rejected(self):
        tiny = Grid2D(4, 2, dof=2)

        def prog(comm):
            StripDecomposition(tiny, comm)

        with pytest.raises(SpmdError):
            run_spmd(3, prog)


class TestDistributedOperators:
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_residual_matches_sequential(self, size, sequential_reference):
        prob, _ = sequential_reference
        f_seq = prob.rhs(prob.initial_state())

        def prog(comm):
            dprob = DistributedGrayScott(comm, GRID)
            return dprob.rhs(dprob.initial_state()).to_global()

        for f_par in run_spmd(size, prog):
            assert np.allclose(f_par, f_seq, atol=1e-13)

    def test_rank_local_jacobian_equals_the_sequential_one(
        self, sequential_reference
    ):
        """Assembled without any rank seeing the global matrix."""
        prob, _ = sequential_reference
        j_seq = prob.jacobian(prob.initial_state(), shift=1.0, scale=-0.5)
        x = np.random.default_rng(0).standard_normal(GRID.ndof)
        expected = j_seq.multiply(x)

        def prog(comm):
            dprob = DistributedGrayScott(comm, GRID)
            j = dprob.jacobian(dprob.initial_state(), shift=1.0, scale=-0.5)
            xv = MPIVec.from_global(comm, dprob.layout, x)
            return j.multiply(xv).to_global()

        for result in run_spmd(3, prog):
            assert np.allclose(result, expected, atol=1e-12)

    def test_sell_diagonal_block_is_used_when_requested(self):
        def prog(comm):
            dprob = DistributedGrayScott(comm, GRID, matrix_format="sell")
            j = dprob.jacobian(dprob.initial_state())
            return j.diag.format_name

        assert run_spmd(2, prog) == ["SELL", "SELL"]

    def test_unknown_format_rejected(self):
        def prog(comm):
            DistributedGrayScott(comm, GRID, matrix_format="coo")

        with pytest.raises(SpmdError):
            run_spmd(2, prog)


class TestParallelSimulation:
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_trajectory_matches_sequential(self, size, sequential_reference):
        _, reference = sequential_reference

        def prog(comm):
            dprob = DistributedGrayScott(comm, GRID)
            pts = ParallelThetaMethod(
                dprob,
                lambda: GMRES(pc=JacobiPC(), rtol=1e-10),
            )
            final, stats = pts.integrate(dprob.initial_state(), 3)
            return final.to_global(), stats

        for final, stats in run_spmd(size, prog):
            assert np.abs(final - reference).max() < 1e-9
            assert stats["newton"] >= 3

    def test_sell_simulation_matches_csr_simulation(self):
        def run_with(fmt):
            def prog(comm):
                dprob = DistributedGrayScott(comm, GRID, matrix_format=fmt)
                pts = ParallelThetaMethod(
                    dprob,
                    lambda: GMRES(pc=JacobiPC(), rtol=1e-10),
                )
                final, _ = pts.integrate(dprob.initial_state(), 2)
                return final.to_global()

            return run_spmd(2, prog)[0]

        assert np.abs(run_with("sell") - run_with("aij")).max() < 1e-10

    def test_statistics_are_identical_across_ranks(self):
        def prog(comm):
            dprob = DistributedGrayScott(comm, GRID)
            pts = ParallelThetaMethod(
                dprob,
                lambda: GMRES(pc=JacobiPC(), rtol=1e-10),
            )
            _, stats = pts.integrate(dprob.initial_state(), 2)
            return stats

        results = run_spmd(3, prog)
        assert results[0] == results[1] == results[2]

    def test_newton_failure_is_collective_and_loud(self):
        def prog(comm):
            dprob = DistributedGrayScott(comm, GRID)
            pts = ParallelThetaMethod(
                dprob,
                lambda: GMRES(pc=JacobiPC(), rtol=1e-10, max_it=1),
                dt=1e9,
                snes_max_it=2,
                snes_rtol=1e-15,
                snes_atol=1e-30,
            )
            pts.integrate(dprob.initial_state(), 1)

        with pytest.raises(SpmdError, match="Newton"):
            run_spmd(2, prog)
