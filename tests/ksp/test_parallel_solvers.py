"""GMRES on distributed operators (simulated MPI runtime).

GMRES takes an MPIAij/MPISell and an MPIVec directly:
the operator resolves to its rank-local view, whose ``dot`` is the
rank-ordered allreduce, and the solve returns this rank's block of x.
"""

import numpy as np
import pytest

from repro.comm.spmd import run_spmd
from repro.ksp.base import IdentityPC
from repro.ksp.gmres import GMRES
from repro.ksp.pc.bjacobi import ParallelBlockJacobiPC
from repro.ksp.pc.jacobi import JacobiPC
from repro.mat.mpi_aij import MPIAij
from repro.mat.mpi_sell import MPISell
from repro.pde.problems import gray_scott_jacobian, random_sparse
from repro.vec.mpi_vec import MPIVec


def _distributed_solve(csr, b, size, make_ksp):
    """Solve on ``size`` ranks; returns (iterations, norms, global x) per rank."""

    def prog(comm):
        a = MPIAij.from_global_csr(comm, csr)
        bv = MPIVec.from_global(comm, a.layout, b)
        res = make_ksp().solve(a, bv)
        x = MPIVec(comm, a.layout, res.x).to_global()
        return res.iterations, res.residual_norms, x

    return run_spmd(size, prog)


@pytest.fixture(scope="module")
def system():
    csr = gray_scott_jacobian(8)
    b = np.random.default_rng(0).standard_normal(csr.shape[0])
    return csr, b


class TestParallelGMRES:
    def test_matches_sequential_iterate_for_iterate(self, system):
        """Deterministic collectives: the parallel Krylov process is the
        *same* process as the sequential one, to rounding."""
        csr, b = system
        seq = GMRES(pc=JacobiPC(), rtol=1e-10).solve(csr, b)

        def prog(comm):
            a = MPIAij.from_global_csr(comm, csr)
            bv = MPIVec.from_global(comm, a.layout, b)
            res = GMRES(pc=JacobiPC(), rtol=1e-10).solve(a, bv)
            x = MPIVec(comm, a.layout, res.x)
            return res.iterations, res.residual_norms, x.to_global()

        for its, norms, x in run_spmd(3, prog):
            assert its == seq.iterations
            assert np.allclose(norms, seq.residual_norms, rtol=1e-10)
            assert np.allclose(x, seq.x, atol=1e-10)

    def test_reproducible_across_runs(self, system):
        csr, b = system

        def prog(comm):
            a = MPIAij.from_global_csr(comm, csr)
            bv = MPIVec.from_global(comm, a.layout, b)
            return GMRES(pc=JacobiPC(), rtol=1e-10).solve(a, bv).x

        first = run_spmd(2, prog)
        second = run_spmd(2, prog)
        for x1, x2 in zip(first, second, strict=True):
            assert np.array_equal(x1, x2)

    def test_sell_operator_converges_identically(self, system):
        csr, b = system

        def prog(comm):
            aij = MPIAij.from_global_csr(comm, csr)
            sell = MPISell.from_mpiaij(aij)
            bv = MPIVec.from_global(comm, sell.layout, b)
            res = GMRES(pc=JacobiPC(), rtol=1e-10).solve(sell, bv)
            return res.iterations, res.reason.converged

        its = run_spmd(2, prog)
        assert all(conv for _, conv in its)
        seq = GMRES(pc=JacobiPC(), rtol=1e-10).solve(csr, b)
        assert all(i == seq.iterations for i, _ in its)

    def test_block_jacobi_strengthens_with_fewer_ranks(self, system):
        """PCBJACOBI solves larger local blocks exactly on fewer ranks, so
        iteration counts must not increase as ranks decrease."""
        csr, b = system

        def prog(comm):
            a = MPIAij.from_global_csr(comm, csr)
            bv = MPIVec.from_global(comm, a.layout, b)
            res = GMRES(pc=ParallelBlockJacobiPC(), rtol=1e-10).solve(a, bv)
            return res.iterations

        one = run_spmd(1, prog)[0]
        four = run_spmd(4, prog)[0]
        assert one <= four
        assert one <= 2  # a single rank factors the whole matrix

    def test_unpreconditioned_still_converges(self):
        csr = random_sparse(24, density=0.2, seed=5)
        b = np.random.default_rng(1).standard_normal(24)

        def prog(comm):
            a = MPIAij.from_global_csr(comm, csr)
            bv = MPIVec.from_global(comm, a.layout, b)
            res = GMRES(pc=IdentityPC(), rtol=1e-9).solve(a, bv)
            x = MPIVec(comm, a.layout, res.x)
            err = np.linalg.norm(csr.multiply(x.to_global()) - b)
            return res.reason.converged, err

        for conv, err in run_spmd(2, prog):
            assert conv and err < 1e-5

    def test_ranks_without_rows(self):
        """More ranks than rows: the empty ranks still join every
        reduction, and block Jacobi has nothing to factor there."""
        csr = random_sparse(3, density=0.5, seed=7)
        b = np.random.default_rng(3).standard_normal(3)
        seq = GMRES(pc=ParallelBlockJacobiPC(), rtol=1e-10).solve(csr, b)
        for make_pc in (ParallelBlockJacobiPC, JacobiPC):
            ranks = _distributed_solve(csr, b, 5, lambda: GMRES(pc=make_pc(), rtol=1e-10))
            for its, _, x in ranks:
                assert its == ranks[0][0]
                assert np.allclose(x, seq.x, atol=1e-10)

    def test_invalid_restart_rejected(self, system):
        csr, b = system

        def prog(comm):
            a = MPIAij.from_global_csr(comm, csr)
            bv = MPIVec.from_global(comm, a.layout, b)
            GMRES(restart=0).solve(a, bv)

        from repro.comm.spmd import SpmdError

        with pytest.raises(SpmdError):
            run_spmd(2, prog)


class TestOneKrylovProcess:
    """One GMRES for both settings: the distributed solve is the
    sequential one, with only the reductions spread over ranks."""

    @pytest.mark.parametrize("grid", [8, 16])
    def test_one_rank_is_bit_identical_to_sequential(self, grid):
        csr = gray_scott_jacobian(grid)
        b = np.random.default_rng(0).standard_normal(csr.shape[0])
        seq = GMRES(pc=JacobiPC(), rtol=1e-10).solve(csr, b)
        [(its, norms, x)] = _distributed_solve(
            csr, b, 1, lambda: GMRES(pc=JacobiPC(), rtol=1e-10)
        )
        assert its == seq.iterations
        assert norms == seq.residual_norms
        assert x.tobytes() == seq.x.tobytes()

    @pytest.mark.parametrize("size", [2, 3, 4])
    @pytest.mark.parametrize("grid", [8, 16])
    def test_more_ranks_agree_to_rounding(self, grid, size):
        csr = gray_scott_jacobian(grid)
        b = np.random.default_rng(0).standard_normal(csr.shape[0])
        seq = GMRES(pc=JacobiPC(), rtol=1e-10).solve(csr, b)
        for its, norms, x in _distributed_solve(
            csr, b, size, lambda: GMRES(pc=JacobiPC(), rtol=1e-10)
        ):
            assert its == seq.iterations
            assert np.abs(x - seq.x).max() <= 1e-10
