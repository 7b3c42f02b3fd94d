"""Measured benchmarks of the production fast paths, all formats.

These are real timings on the host (unlike the modeled figure numbers):
every format's forward product on the reference Gray-Scott operator and
the distributed SpMV over the simulated runtime.  They guard against
performance regressions in the fast paths the solvers depend on.
"""

import numpy as np
import pytest

from repro.core.sell import SellMat
from repro.mat.aij_perm import AijPermMat
from repro.mat.baij import BaijMat

CONVERTERS = {
    "CSR": lambda csr: csr,
    "SELL": lambda csr: SellMat.from_csr(csr),
    "BAIJ": lambda csr: BaijMat.from_csr(csr, 2),
    "CSRPerm": AijPermMat.from_csr,
}


@pytest.mark.parametrize("fmt", sorted(CONVERTERS))
def test_forward_multiply(benchmark, reference_operator, reference_x, fmt):
    mat = CONVERTERS[fmt](reference_operator)
    y = np.zeros(mat.shape[0])
    benchmark(mat.multiply, reference_x, y)
    assert np.allclose(y, reference_operator.multiply(reference_x))


def test_distributed_spmv_two_ranks(benchmark, reference_operator, reference_x):
    """The whole 4-step parallel SpMV, including the simulated exchange."""
    from repro.comm.spmd import run_spmd
    from repro.mat.mpi_aij import MPIAij
    from repro.vec.mpi_vec import MPIVec

    def one_round():
        def prog(comm):
            a = MPIAij.from_global_csr(comm, reference_operator)
            xv = MPIVec.from_global(comm, a.layout, reference_x)
            for _ in range(5):
                y = a.multiply(xv)
            return float(y.norm("2"))

        return run_spmd(2, prog)

    norms = benchmark.pedantic(one_round, rounds=1, iterations=1)
    assert norms[0] == norms[1]


def test_gmres_mg_solve(benchmark, reference_operator):
    """One full preconditioned solve on the reference operator."""
    from repro.ksp import GMRES, MGPC
    from repro.pde import Grid2D

    grid = Grid2D(64, 64, dof=2)
    b = np.random.default_rng(1).standard_normal(reference_operator.shape[0])

    def solve():
        pc = MGPC(grids=grid.hierarchy(3))
        return GMRES(pc=pc, rtol=1e-8).solve(reference_operator, b)

    result = benchmark.pedantic(solve, rounds=1, iterations=1)
    assert result.reason.converged
