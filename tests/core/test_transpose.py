"""Transpose SpMV: Mat.multiply_transpose and the reverse ghost exchange."""

import numpy as np
import pytest

from repro.comm.spmd import run_spmd
from repro.core.sell import SellMat
from repro.mat.base import MatrixShapeError
from repro.mat.mpi_aij import MPIAij
from repro.mat.mpi_sell import MPISell
from repro.pde.problems import gray_scott_jacobian, irregular_rows, random_sparse
from repro.vec.mpi_vec import MPIVec

from ..conftest import make_random_csr


@pytest.fixture(params=[0, 1])
def rect(request):
    """Rectangular matrices: transpose must swap the dimensions."""
    return make_random_csr(14, 9, density=0.3, seed=request.param)


class TestFastPaths:
    def test_csr_matches_explicit_transpose(self, rect, rng):
        x = rng.standard_normal(rect.shape[0])
        assert np.allclose(rect.multiply_transpose(x), rect.to_dense().T @ x)

    def test_sell_matches_explicit_transpose(self, rng):
        csr = make_random_csr(17, 17, density=0.25, seed=2)
        sell = SellMat.from_csr(csr)
        x = rng.standard_normal(17)
        assert np.allclose(sell.multiply_transpose(x), csr.to_dense().T @ x)

    def test_sorted_sell_transpose(self, rng):
        csr = irregular_rows(32, max_len=10, seed=3)
        sell = SellMat.from_csr(csr, sigma=16)
        x = rng.standard_normal(32)
        assert np.allclose(sell.multiply_transpose(x), csr.to_dense().T @ x)

    def test_duplicate_columns_accumulate(self):
        from repro.mat.aij import AijMat

        a = AijMat.from_coo(
            (2, 3), np.array([0, 1]), np.array([1, 1]), np.array([2.0, 3.0])
        )
        y = a.multiply_transpose(np.array([1.0, 1.0]))
        assert np.array_equal(y, [0.0, 5.0, 0.0])

    def test_conformance_validation(self, rect):
        with pytest.raises(MatrixShapeError):
            rect.multiply_transpose(np.ones(rect.shape[1]))  # wrong side
        with pytest.raises(MatrixShapeError):
            rect.multiply_transpose(np.ones(rect.shape[0]), np.ones(rect.shape[0]))

    @pytest.mark.parametrize(
        "csr", [gray_scott_jacobian(32), random_sparse(500)], ids=["gs32", "rand500"]
    )
    def test_handle_path_keeps_the_row_order_scatter_bits(self, csr, rng):
        """The handle's transpose accumulates y[col] += a_ij x_i row by row,
        in stored order: exactly the scatter-accumulate loop it replaced."""
        x = rng.standard_normal(csr.shape[0])
        rows = np.repeat(np.arange(csr.shape[0]), csr.row_lengths())
        ref = np.zeros(csr.shape[1])
        np.add.at(ref, csr.colidx, csr.val * x[rows])
        assert csr.multiply_transpose(x).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("sigma", [1, 8])
    @pytest.mark.parametrize(
        "csr", [gray_scott_jacobian(32), random_sparse(500)], ids=["gs32", "rand500"]
    )
    def test_sell_transpose_has_the_csr_bits(self, csr, sigma, rng):
        """One transposed product path: the format no longer changes the
        answer (the SELL slot-order sum used to differ by up to 7e-15)."""
        x = rng.standard_normal(csr.shape[0])
        sell = SellMat.from_csr(csr, sigma=sigma)
        assert sell.multiply_transpose(x).tobytes() == csr.multiply_transpose(x).tobytes()


class TestReverseScatterAndMPITranspose:
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_distributed_transpose_matches_sequential(self, size):
        csr = gray_scott_jacobian(8)
        x = np.random.default_rng(6).standard_normal(csr.shape[0])
        expected = csr.to_dense().T @ x

        def prog(comm):
            a = MPIAij.from_global_csr(comm, csr)
            xv = MPIVec.from_global(comm, a.layout, x)
            return a.multiply_transpose(xv).to_global()

        for result in run_spmd(size, prog):
            assert np.allclose(result, expected, atol=1e-11)

    def test_mpisell_transpose(self):
        csr = gray_scott_jacobian(8)
        x = np.random.default_rng(7).standard_normal(csr.shape[0])
        expected = csr.to_dense().T @ x

        def prog(comm):
            a = MPISell.from_global_csr(comm, csr)
            xv = MPIVec.from_global(comm, a.layout, x)
            return a.multiply_transpose(xv).to_global()

        for result in run_spmd(3, prog):
            assert np.allclose(result, expected, atol=1e-11)

    def test_forward_and_reverse_scatter_compose_to_identity_action(self):
        """reverse(forward(x)) accumulates each ghost exactly once."""
        from repro.comm.partition import RowLayout
        from repro.comm.scatter import VecScatter

        n = 12

        def prog(comm):
            layout = RowLayout.uniform(n, comm.size)
            start, end = layout.range_of(comm.rank)
            ghosts = np.array([(end) % n], dtype=np.int64)
            ghosts = ghosts[(ghosts < start) | (ghosts >= end)]
            sc = VecScatter(comm, layout, ghosts)
            local = np.zeros(end - start)
            ghost_vals = sc.exchange(np.arange(start, end, dtype=np.float64))
            sc.reverse_begin(np.ones_like(ghost_vals))
            sc.reverse_end(local)
            # Each owned entry requested by exactly one peer gained 1.0.
            return float(local.sum()), ghost_vals.size

        results = run_spmd(3, prog)
        total_received = sum(r[0] for r in results)
        total_ghosts = sum(r[1] for r in results)
        assert total_received == total_ghosts

    def test_reverse_contribution_length_validated(self):
        from repro.comm.partition import RowLayout
        from repro.comm.scatter import VecScatter
        from repro.comm.spmd import SpmdError

        def prog(comm):
            layout = RowLayout.uniform(8, comm.size)
            sc = VecScatter(comm, layout, np.array([], dtype=np.int64))
            sc.reverse_begin(np.ones(5))

        with pytest.raises(SpmdError):
            run_spmd(2, prog)


class TestTrafficExtensions:
    def test_64bit_indices_add_four_bytes_per_nonzero(self):
        from repro.core.traffic import csr_traffic, sell_traffic

        for fn in (csr_traffic, sell_traffic):
            narrow = fn(100, 100, 1000)
            wide = fn(100, 100, 1000, index_bytes=8)
            assert wide.total_bytes - narrow.total_bytes == 4 * 1000

    def test_paper_grid_is_the_32bit_limit(self):
        from repro.core.traffic import largest_grid_with_32bit_indices

        assert largest_grid_with_32bit_indices(dof=2) == 16384
        # One DOF per point doubles the admissible points.
        assert largest_grid_with_32bit_indices(dof=1) == 32768
