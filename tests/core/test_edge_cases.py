"""Remaining structural edge cases across formats and solvers."""

import numpy as np
import pytest

from repro.mat.aij import AijMat


class TestBaijEmptyBlockRows:
    def test_multiply_with_empty_block_rows(self):
        """A block row with no blocks must produce zeros, not garbage
        (the reduceat empty-segment trap)."""
        from repro.mat.baij import BaijMat

        dense = np.zeros((8, 8))
        dense[0, 0] = 2.0  # only the first block row has content
        dense[6, 7] = 3.0  # and the last
        a = AijMat.from_dense(dense)
        baij = BaijMat.from_csr(a, 2)
        x = np.arange(1.0, 9.0)
        assert np.allclose(baij.multiply(x), dense @ x)

    def test_fully_empty_matrix(self):
        from repro.mat.baij import BaijMat

        a = AijMat.from_coo((4, 4), np.array([]), np.array([]), np.array([]))
        baij = BaijMat.from_csr(a, 2)
        assert np.array_equal(baij.multiply(np.ones(4)), np.zeros(4))


class TestGmresHappyBreakdown:
    def test_exact_solution_inside_the_krylov_space(self):
        """When the Krylov space exactly contains the solution, GMRES must
        terminate with the breakdown handled as convergence."""
        from repro.ksp.gmres import GMRES

        # Rank-structured system: solution reached in exactly 2 iterations.
        a = AijMat.from_dense(np.diag([3.0, 3.0, 5.0, 5.0]))
        b = np.array([1.0, 1.0, 0.0, 0.0])
        result = GMRES(rtol=1e-14).solve(a, b)
        assert result.reason.converged
        assert result.iterations <= 2
        assert np.allclose(a.multiply(result.x), b, atol=1e-12)


class TestMpiVecNormKinds:
    def test_unknown_norm_rejected(self):
        from repro.comm.spmd import SpmdError, run_spmd
        from repro.comm.partition import RowLayout
        from repro.vec.mpi_vec import MPIVec

        def prog(comm):
            layout = RowLayout.uniform(4, comm.size)
            MPIVec(comm, layout).norm("fro")

        with pytest.raises(SpmdError):
            run_spmd(2, prog)
