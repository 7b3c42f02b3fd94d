"""Distributed matrices: splitting, compression, overlapped SpMV.

``split_local_rows`` and ``CompressedCsr.from_csr`` run as whole-array
NumPy passes; the per-entry and per-row loops they replaced are kept
below as oracles, and every array they build must match in bytes and
dtype.
"""

import numpy as np
import pytest

from repro.comm.partition import RowLayout
from repro.comm.spmd import run_spmd
from repro.mat.aij import AijMat
from repro.mat.mpi_aij import CompressedCsr, MPIAij, split_local_rows
from repro.mat.mpi_sell import MPISell
from repro.pde.problems import gray_scott_jacobian
from repro.vec.mpi_vec import MPIVec

from ..conftest import make_random_csr


def loop_split(csr: AijMat, row_range, col_range):
    """The per-entry split ``split_local_rows`` replaced, kept as its oracle."""
    rstart, rend = row_range
    cstart, cend = col_range
    diag_rows, diag_cols, diag_vals = [], [], []
    off_rows, off_cols_global, off_vals = [], [], []
    for i_local, i in enumerate(range(rstart, rend)):
        cols, vals = csr.get_row(i)
        for j, v in zip(cols, vals, strict=True):
            j = int(j)
            if cstart <= j < cend:
                diag_rows.append(i_local)
                diag_cols.append(j - cstart)
                diag_vals.append(float(v))
            else:
                off_rows.append(i_local)
                off_cols_global.append(j)
                off_vals.append(float(v))
    garray = np.unique(np.array(off_cols_global, dtype=np.int64))
    off_cols = np.searchsorted(garray, np.array(off_cols_global, dtype=np.int64))
    m_local = rend - rstart
    diag = AijMat.from_coo(
        (m_local, cend - cstart),
        np.array(diag_rows, dtype=np.int64),
        np.array(diag_cols, dtype=np.int64),
        np.array(diag_vals, dtype=np.float64),
        sum_duplicates=False,
    )
    offdiag = AijMat.from_coo(
        (m_local, int(garray.size)),
        np.array(off_rows, dtype=np.int64),
        off_cols.astype(np.int64),
        np.array(off_vals, dtype=np.float64),
        sum_duplicates=False,
    )
    return diag, offdiag, garray


def loop_compress(csr: AijMat) -> CompressedCsr:
    """The per-row copy ``CompressedCsr.from_csr`` replaced, kept as its oracle."""
    lengths = csr.row_lengths()
    nzrows = np.nonzero(lengths > 0)[0].astype(np.int64)
    rowptr = np.zeros(nzrows.size + 1, dtype=np.int64)
    np.cumsum(lengths[nzrows], out=rowptr[1:])
    colidx = np.empty(csr.nnz, dtype=np.int32)
    val = np.empty(csr.nnz, dtype=np.float64)
    for k, row in enumerate(nzrows):
        lo, hi = csr.rowptr[row], csr.rowptr[row + 1]
        dst = slice(rowptr[k], rowptr[k + 1])
        colidx[dst] = csr.colidx[lo:hi]
        val[dst] = csr.val[lo:hi]
    inner = AijMat((nzrows.size, csr.shape[1]), rowptr, colidx, val, check=False)
    return CompressedCsr(csr.shape[0], nzrows, inner)


def assert_same_bytes(got, want) -> None:
    """Two arrays, or two CSR matrices array by array, equal in bytes and dtype."""
    if isinstance(want, AijMat):
        assert got.shape == want.shape
        for name in ("rowptr", "colidx", "val"):
            assert_same_bytes(getattr(got, name), getattr(want, name))
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _signed_csr(m: int, seed: int) -> AijMat:
    """A random CSR with empty rows, -0.0 and a NaN among its values."""
    csr = make_random_csr(m, density=0.3, seed=seed)
    val = csr.val.copy()
    val[::7] = -0.0
    val[3::11] = np.nan
    return AijMat(csr.shape, csr.rowptr, csr.colidx, val)


class TestSplitEqualsTheLoop:
    @pytest.mark.parametrize(
        "csr",
        [gray_scott_jacobian(16), _signed_csr(30, 4), make_random_csr(17, 17, 0.05, 5)],
        ids=["gray-scott-16", "signed-30", "sparse-17"],
    )
    def test_every_rank_block_splits_alike(self, csr):
        m = csr.shape[0]
        cuts = sorted({0, 1, m // 3, m // 2, m - 1, m})
        for lo, hi in zip(cuts, cuts[1:]):
            for cols in ((lo, hi), (0, m), (hi, hi)):
                got = split_local_rows(csr, (lo, hi), cols)
                want = loop_split(csr, (lo, hi), cols)
                for g, w in zip(got, want):
                    assert_same_bytes(g, w)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compression_copies_alike(self, seed):
        csr = _signed_csr(23, seed)
        got, want = CompressedCsr.from_csr(csr), loop_compress(csr)
        assert got.m == want.m
        assert_same_bytes(got.nzrows, want.nzrows)
        assert_same_bytes(got.inner, want.inner)


class TestSplitLocalRows:
    def test_diag_block_covers_owned_columns(self):
        csr = make_random_csr(12, density=0.4, seed=1)
        diag, off, garray = split_local_rows(csr, (4, 8), (4, 8))
        assert diag.shape == (4, 4)
        assert off.shape == (4, garray.size)
        # diag + expanded off-diag reproduce the original row block.
        dense = csr.to_dense()[4:8]
        recon = np.zeros_like(dense)
        recon[:, 4:8] = diag.to_dense()
        if garray.size:
            recon[:, garray] += off.to_dense()
        assert np.allclose(recon, dense)

    def test_garray_is_sorted_unique(self):
        csr = make_random_csr(20, density=0.3, seed=2)
        _, _, garray = split_local_rows(csr, (0, 7), (0, 7))
        assert np.all(np.diff(garray) > 0)


class TestCompressedCsr:
    def test_only_nonzero_rows_are_stored(self):
        csr = AijMat.from_coo(
            (6, 3), np.array([1, 4, 4]), np.array([0, 1, 2]), np.ones(3)
        )
        comp = CompressedCsr.from_csr(csr)
        assert np.array_equal(comp.nzrows, [1, 4])
        assert comp.inner.shape == (2, 3)
        assert comp.nnz == 3

    def test_multiply_add_accumulates_into_existing_values(self):
        csr = AijMat.from_coo((4, 2), np.array([2]), np.array([1]), np.array([3.0]))
        comp = CompressedCsr.from_csr(csr)
        y = np.ones(4)
        comp.multiply_add(np.array([0.0, 2.0]), y)
        assert np.array_equal(y, [1.0, 1.0, 7.0, 1.0])

    def test_expand_round_trips(self):
        csr = make_random_csr(9, 5, density=0.2, seed=3)
        assert CompressedCsr.from_csr(csr).expand().equal(csr, tol=0.0)

    def test_conformance_validation(self):
        csr = make_random_csr(4, 4, density=0.5, seed=0)
        comp = CompressedCsr.from_csr(csr)
        with pytest.raises(ValueError):
            comp.multiply_add(np.zeros(4), np.zeros(99))


class TestParallelSpMV:
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_mpiaij_matches_sequential(self, size):
        csr = make_random_csr(25, density=0.2, seed=5)
        x = np.random.default_rng(6).standard_normal(25)
        expected = csr.multiply(x)

        def prog(comm):
            a = MPIAij.from_global_csr(comm, csr)
            xv = MPIVec.from_global(comm, a.layout, x)
            return a.multiply(xv).to_global()

        for result in run_spmd(size, prog):
            assert np.allclose(result, expected)

    def test_mpisell_matches_sequential_on_gray_scott(self):
        csr = gray_scott_jacobian(8)
        x = np.random.default_rng(7).standard_normal(csr.shape[0])
        expected = csr.multiply(x)

        def prog(comm):
            a = MPISell.from_global_csr(comm, csr)
            xv = MPIVec.from_global(comm, a.layout, x)
            return a.multiply(xv).to_global()

        for result in run_spmd(4, prog):
            assert np.allclose(result, expected)

    def test_sell_conversion_preserves_the_ghost_set(self):
        """Section 5.5: padded column indices are copied from local
        nonzeros, so converting to SELL must not widen communication."""
        csr = gray_scott_jacobian(8)

        def prog(comm):
            aij = MPIAij.from_global_csr(comm, csr)
            sell = MPISell.from_mpiaij(aij)
            return (
                np.array_equal(aij.garray, sell.garray),
                aij.scatter.recv_peers == sell.scatter.recv_peers,
            )

        for same_garray, same_peers in run_spmd(3, prog):
            assert same_garray and same_peers

    def test_nnz_global_sums_over_ranks(self):
        csr = make_random_csr(18, density=0.3, seed=8)

        def prog(comm):
            return MPIAij.from_global_csr(comm, csr).nnz_global

        assert run_spmd(3, prog) == [csr.nnz] * 3

    def test_distributed_diagonal(self):
        csr = make_random_csr(10, density=0.5, seed=9)

        def prog(comm):
            return MPIAij.from_global_csr(comm, csr).diagonal().to_global()

        for d in run_spmd(2, prog):
            assert np.allclose(d, csr.diagonal())

    def test_uneven_layouts_are_supported(self):
        csr = make_random_csr(11, density=0.4, seed=10)
        x = np.random.default_rng(11).standard_normal(11)
        layout = RowLayout.from_local_sizes([7, 1, 3])

        def prog(comm):
            a = MPIAij.from_global_csr(comm, csr, layout)
            xv = MPIVec.from_global(comm, layout, x)
            return a.multiply(xv).to_global()

        for result in run_spmd(3, prog):
            assert np.allclose(result, csr.multiply(x))

    def test_rectangular_matrices_rejected(self):
        csr = make_random_csr(6, 5, density=0.5, seed=0)

        def prog(comm):
            MPIAij.from_global_csr(comm, csr)

        from repro.comm.spmd import SpmdError

        with pytest.raises(SpmdError):
            run_spmd(2, prog)

    def test_local_memory_accounting(self):
        csr = gray_scott_jacobian(8)

        def prog(comm):
            a = MPIAij.from_global_csr(comm, csr)
            return a.memory_bytes_local() > 0

        assert all(run_spmd(2, prog))
