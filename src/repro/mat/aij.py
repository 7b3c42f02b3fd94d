"""AIJ — compressed sparse row, PETSc's default matrix format.

The baseline of every comparison in the paper.  Storage follows Figure 3:
``val`` (nonzeros, row-major), ``colidx`` (their columns, int32 as in a
32-bit-index PETSc build), and ``rowptr`` (first-nonzero offsets, int64).
Values within a row are kept column-sorted, which PETSc guarantees after
assembly and which the SELL conversion relies on.

Products and the diagonal come from :class:`~repro.mat.base.Mat`: a SciPy
CSR handle over these same arrays.  The instruction-level kernels that
reproduce Algorithm 1 live in :mod:`repro.core.kernels_csr` and are tested
to agree with that path.
"""

from __future__ import annotations

import numpy as np

from ..memory.spaces import aligned_alloc
from .base import Mat, register_format


class AijMat(Mat):
    """A sequential CSR matrix with aligned storage."""

    format_name = "CSR"

    def __init__(
        self,
        shape: tuple[int, int],
        rowptr: np.ndarray,
        colidx: np.ndarray,
        val: np.ndarray,
        alignment: int = 64,
        check: bool = True,
    ):
        m, n = shape
        rowptr = np.asarray(rowptr, dtype=np.int64)
        colidx = np.asarray(colidx, dtype=np.int32)
        val = np.asarray(val, dtype=np.float64)
        if check:
            if m < 0 or n < 0:
                raise ValueError("matrix dimensions must be non-negative")
            if rowptr.shape != (m + 1,):
                raise ValueError(f"rowptr must have {m + 1} entries")
            if rowptr[0] != 0 or np.any(np.diff(rowptr) < 0):
                raise ValueError("rowptr must be non-decreasing from zero")
            if rowptr[-1] != val.shape[0] or colidx.shape != val.shape:
                raise ValueError("rowptr, colidx, val are inconsistent")
            if val.size and (colidx.min() < 0 or colidx.max() >= n):
                raise IndexError("column index out of range")
        self._shape = (m, n)
        self.rowptr = rowptr
        # Values and indices live in aligned buffers so the engine kernels
        # see the same alignment properties PETSc arranges (Section 3.1).
        self.colidx = aligned_alloc(colidx.shape[0], np.int32, alignment)
        self.colidx[:] = colidx
        self.val = aligned_alloc(val.shape[0], np.float64, alignment)
        self.val[:] = val

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        sum_duplicates: bool = True,
    ) -> "AijMat":
        """Build CSR from triplets; duplicates accumulate (ADD_VALUES)."""
        m, n = shape
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if sum_duplicates and rows.size:
            keep = np.ones(rows.size, dtype=bool)
            keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group = np.cumsum(keep) - 1
            summed = np.bincount(group, weights=vals)
            rows, cols, vals = rows[keep], cols[keep], summed
        rowptr = np.zeros(m + 1, dtype=np.int64)
        if rows.size:
            np.add.at(rowptr, rows + 1, 1)
        np.cumsum(rowptr, out=rowptr)
        return cls(shape, rowptr, cols, vals)

    @classmethod
    def from_dense(cls, dense: np.ndarray, drop_tol: float = 0.0) -> "AijMat":
        """CSR from a dense array, dropping entries with |v| <= drop_tol."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("dense input must be two-dimensional")
        rows, cols = np.nonzero(np.abs(dense) > drop_tol)
        return cls.from_coo(dense.shape, rows, cols, dense[rows, cols])

    @classmethod
    def from_scipy(cls, sp_mat) -> "AijMat":
        """CSR from a scipy.sparse matrix (testing convenience)."""
        csr = sp_mat.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(csr.shape, csr.indptr, csr.indices, csr.data)

    def to_scipy(self):
        """scipy.sparse.csr_matrix view of this matrix (copies)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.val.copy(), self.colidx.copy(), self.rowptr.copy()),
            shape=self.shape,
        )

    # -- Mat interface -------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self.rowptr[-1])

    def to_csr(self) -> "AijMat":
        return self

    def memory_bytes(self) -> int:
        # val (8B) + colidx (4B) per nonzero, rowptr (8B) per row + 1.
        return int(self.nnz * 12 + self.rowptr.shape[0] * 8)

    # -- format-specific helpers ----------------------------------------------
    def row_lengths(self) -> np.ndarray:
        """Nonzeros per row — the quantity that decides CSR SIMD efficiency."""
        return np.diff(self.rowptr)

    def get_row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(columns, values) of row ``i`` (views, do not mutate)."""
        lo, hi = self.rowptr[i], self.rowptr[i + 1]
        return self.colidx[lo:hi], self.val[lo:hi]

    def transpose(self) -> "AijMat":
        """A^T in CSR (used by tests and the symmetric-problem gallery)."""
        m, n = self.shape
        rows = np.repeat(np.arange(m, dtype=np.int64), self.row_lengths())
        return AijMat.from_coo(
            (n, m), self.colidx.astype(np.int64), rows, self.val,
            sum_duplicates=False,
        )

    def permute_rows(self, perm: np.ndarray) -> "AijMat":
        """The matrix with row ``i`` taken from old row ``perm[i]``."""
        perm = np.asarray(perm, dtype=np.int64)
        m, n = self.shape
        if sorted(perm.tolist()) != list(range(m)):
            raise ValueError("perm must be a permutation of the row indices")
        lengths = self.row_lengths()[perm]
        rowptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(lengths, out=rowptr[1:])
        colidx = np.empty(self.nnz, dtype=np.int32)
        val = np.empty(self.nnz, dtype=np.float64)
        for new_i, old_i in enumerate(perm):
            lo, hi = self.rowptr[old_i], self.rowptr[old_i + 1]
            dst = slice(rowptr[new_i], rowptr[new_i + 1])
            colidx[dst] = self.colidx[lo:hi]
            val[dst] = self.val[lo:hi]
        return AijMat((m, n), rowptr, colidx, val, check=False)

    def equal(self, other: Mat, tol: float = 0.0) -> bool:
        """Entrywise equality against any other format (via CSR)."""
        a, b = self, other.to_csr()
        if a.shape != b.shape:
            return False
        if np.array_equal(a.rowptr, b.rowptr) and np.array_equal(
            a.colidx, b.colidx
        ):
            return bool(np.allclose(a.val, b.val, rtol=0.0, atol=tol))
        return bool(np.allclose(a.to_dense(), b.to_dense(), rtol=0.0, atol=tol))


# CSR is the assembled format, so conversion is the identity.  "AIJ" is the
# PETSc spelling; "MKL" runs the inspector-executor path on the same CSR
# arrays (the library never reformats, it only re-schedules).
@register_format("CSR", "AIJ", "MKL")
def _csr_identity(csr: AijMat, *, slice_height: int = 8, sigma: int = 1) -> AijMat:
    return csr
