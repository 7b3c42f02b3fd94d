"""Distributed matrices: row-block partition, diag + compressed off-diag.

Implements the PETSc parallel layout of paper Section 2.1 / Figure 2: each
rank owns a consecutive block of rows, stored as two sequential matrices —
the square **diagonal block** (columns the rank also owns, in local
numbering) and the **off-diagonal block** (every other column, renumbered
compactly against the ghost array ``garray``).

The off-diagonal block of a PDE matrix has only a few nonzero rows, so it
is stored as *compressed CSR* (Section 2.2): only rows with entries appear.
``multiply`` is the paper's overlapped 4-step parallel SpMV:

1. post the ghost exchange (:class:`~repro.comm.scatter.VecScatter`);
2. multiply the diagonal block with the local vector;
3. complete the exchange;
4. multiply the off-diagonal block with the ghost values, accumulating.

:class:`LocalView` is the same matrix seen from one rank on plain arrays —
the operator the Krylov solvers iterate on.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..comm.communicator import Comm
from ..comm.partition import RowLayout
from ..comm.scatter import VecScatter
from ..obs.observer import obs_event
from ..vec.mpi_vec import MPIVec
from .aij import AijMat
from .base import Mat


class CompressedCsr:
    """CSR restricted to its nonzero rows (PETSc's off-diagonal storage)."""

    def __init__(self, m: int, nzrows: np.ndarray, inner: AijMat):
        nzrows = np.asarray(nzrows, dtype=np.int64)
        if inner.shape[0] != nzrows.shape[0]:
            raise ValueError("inner matrix must have one row per nonzero row")
        if nzrows.size and (nzrows.min() < 0 or nzrows.max() >= m):
            raise IndexError("nonzero row index out of range")
        self.m = m
        self.nzrows = nzrows
        self.inner = inner

    @classmethod
    def from_csr(cls, csr: AijMat) -> "CompressedCsr":
        """Drop empty rows of ``csr`` into the compressed representation.

        Empty rows hold no entries, so the stored entries of the nonzero
        rows, in order, are all of ``csr``'s.
        """
        lengths = csr.row_lengths()
        nzrows = np.nonzero(lengths > 0)[0].astype(np.int64)
        rowptr = np.zeros(nzrows.size + 1, dtype=np.int64)
        np.cumsum(lengths[nzrows], out=rowptr[1:])
        lo, hi = csr.rowptr[0], csr.rowptr[-1]
        colidx = np.array(csr.colidx[lo:hi], dtype=np.int32)
        val = np.array(csr.val[lo:hi], dtype=np.float64)
        inner = AijMat((nzrows.size, csr.shape[1]), rowptr, colidx, val, check=False)
        return cls(csr.shape[0], nzrows, inner)

    @property
    def nnz(self) -> int:
        """Stored nonzeros."""
        return self.inner.nnz

    def multiply_add(self, x: np.ndarray, y: np.ndarray) -> None:
        """y[nzrows] += inner @ x (the accumulate of SpMV step 4)."""
        if y.shape[0] != self.m:
            raise ValueError("output vector does not conform")
        if self.nzrows.size:
            y[self.nzrows] += self.inner.multiply(x)

    def expand(self) -> AijMat:
        """The uncompressed (m x n) CSR matrix, for conversions and tests."""
        rows = np.repeat(self.nzrows, self.inner.row_lengths())
        return AijMat.from_coo(
            (self.m, self.inner.shape[1]),
            rows,
            self.inner.colidx.astype(np.int64),
            self.inner.val,
            sum_duplicates=False,
        )

    def memory_bytes(self) -> int:
        """Footprint: inner CSR plus the nonzero-row list."""
        return self.inner.memory_bytes() + self.nzrows.shape[0] * 8


def split_local_rows(
    csr: AijMat, row_range: tuple[int, int], col_range: tuple[int, int]
) -> tuple[AijMat, AijMat, np.ndarray]:
    """Split this rank's rows of a global CSR into diag/off-diag blocks.

    Returns ``(diag, offdiag, garray)``: the square diagonal block in local
    column numbering, the off-diagonal block renumbered against ``garray``,
    and ``garray`` itself (sorted global indices of ghost columns).
    """
    rstart, rend = row_range
    cstart, cend = col_range
    m_local = rend - rstart
    lo, hi = csr.rowptr[rstart], csr.rowptr[rend]
    rows = np.repeat(np.arange(m_local, dtype=np.int64), csr.row_lengths()[rstart:rend])
    cols = csr.colidx[lo:hi].astype(np.int64)
    vals = np.asarray(csr.val[lo:hi], dtype=np.float64)
    inside = (cols >= cstart) & (cols < cend)
    ghost = ~inside

    garray = np.unique(cols[ghost])
    diag = AijMat.from_coo(
        (m_local, cend - cstart),
        rows[inside],
        cols[inside] - cstart,
        vals[inside],
        sum_duplicates=False,
    )
    offdiag = AijMat.from_coo(
        (m_local, int(garray.size)),
        rows[ghost],
        np.searchsorted(garray, cols[ghost]).astype(np.int64),
        vals[ghost],
        sum_duplicates=False,
    )
    return diag, offdiag, garray


class MPIAij:
    """A distributed AIJ matrix (square, conforming row/column layout)."""

    format_name = "MPIAIJ"

    def __init__(
        self,
        comm: Comm,
        layout: RowLayout,
        diag: Mat,
        offdiag: CompressedCsr,
        garray: np.ndarray,
    ):
        if diag.shape[0] != layout.local_size(comm.rank):
            raise ValueError("diagonal block rows do not match the layout")
        if diag.shape[0] != offdiag.m:
            raise ValueError("diag and off-diag blocks must have equal rows")
        self.comm = comm
        self.layout = layout
        self.diag = diag
        self.offdiag = offdiag
        self.garray = np.asarray(garray, dtype=np.int64)
        self.scatter = VecScatter(comm, layout, self.garray)

    # -- construction -----------------------------------------------------
    @classmethod
    def from_global_csr(
        cls, comm: Comm, global_csr: AijMat, layout: RowLayout | None = None
    ) -> "MPIAij":
        """Each rank takes its row block of a replicated global matrix.

        Collective.  This mirrors how the tests and examples construct
        parallel operators; real applications assemble each rank's block
        locally (:meth:`repro.mat.aij.AijMat.from_coo`) instead.
        """
        m, n = global_csr.shape
        if m != n:
            raise ValueError("distributed matrices here are square")
        if layout is None:
            layout = RowLayout.uniform(m, comm.size)
        rrange = layout.range_of(comm.rank)
        diag_csr, off_csr, garray = split_local_rows(global_csr, rrange, rrange)
        return cls(comm, layout, diag_csr, CompressedCsr.from_csr(off_csr), garray)

    # -- shape ------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """Global shape."""
        return (self.layout.n_global, self.layout.n_global)

    @property
    def nnz_local(self) -> int:
        """Nonzeros stored on this rank."""
        return self.diag.to_csr().nnz + self.offdiag.nnz

    @property
    def nnz_global(self) -> int:
        """Total nonzeros (collective)."""
        return int(self.comm.allreduce(self.nnz_local))

    # -- the overlapped parallel SpMV ----------------------------------------
    @cached_property
    def local(self) -> "LocalView":
        """This rank's view of the operator, on local arrays."""
        return LocalView(self)

    def multiply(self, x: MPIVec, y: MPIVec | None = None) -> MPIVec:
        """y = A @ x with communication/computation overlap (Section 2.2)."""
        if y is None:
            y = MPIVec(self.comm, self.layout)
        self.local.multiply(x.local.array, y.local.array)
        return y

    def diagonal(self) -> MPIVec:
        """The global diagonal as a distributed vector."""
        return MPIVec(self.comm, self.layout, self.diag.diagonal())

    def memory_bytes_local(self) -> int:
        """This rank's storage footprint (both blocks + ghost map)."""
        return (
            self.diag.memory_bytes()
            + self.offdiag.memory_bytes()
            + self.garray.shape[0] * 8
        )


class LocalView:
    """One rank's face of a distributed matrix, on local NumPy arrays.

    :meth:`KSP._resolve_operator <repro.ksp.base.KSP._resolve_operator>`
    hands this to the array Krylov loop (GMRES) in place
    of the :class:`MPIAij`: the shape is the local one, :meth:`multiply`
    is the overlapped 4-step product, :meth:`diagonal` and :meth:`to_csr`
    give the local diagonal block (for Jacobi and block-Jacobi set-ups),
    and :meth:`dot` is the rank-ordered ``allreduce`` of the local inner
    product — the one reduction every Krylov inner product and norm goes
    through.  On one rank every step is the sequential one, so the solve
    is the sequential solve bit for bit.
    """

    def __init__(self, mat: MPIAij):
        self.mat = mat

    @property
    def shape(self) -> tuple[int, int]:
        """(owned rows, owned rows)."""
        n = self.mat.diag.shape[0]
        return (n, n)

    def multiply(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """The 4-step product of Section 2.2 on this rank's blocks."""
        mat = self.mat
        if y is None:
            y = np.empty(mat.diag.shape[0])
        # (1) post ghost sends/receives
        mat.scatter.begin(x)
        # (2) diagonal block with the local vector
        mat.diag.multiply(x, y)
        # (3) wait for ghost values
        ghosts = mat.scatter.end()
        # (4) off-diagonal block accumulates
        mat.offdiag.multiply_add(ghosts, y)
        return y

    def diagonal(self) -> np.ndarray:
        """This rank's block of the global diagonal."""
        return self.mat.diag.diagonal()

    def to_csr(self) -> AijMat:
        """The local diagonal block as CSR."""
        return self.mat.diag.to_csr()

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Global inner product of two local blocks (one allreduce).

        Timed as ``VecDot`` so a per-rank log shows what the reductions
        cost; the sequential dot is not an event.
        """
        with obs_event("VecDot"):
            return float(self.mat.comm.allreduce(float(a @ b)))
