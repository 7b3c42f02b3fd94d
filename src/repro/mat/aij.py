"""AIJ — compressed sparse row, PETSc's default matrix format.

The baseline of every comparison in the paper.  Storage follows Figure 3:
``val`` (nonzeros, row-major), ``colidx`` (their columns, int32 as in a
32-bit-index PETSc build), and ``rowptr`` (first-nonzero offsets, int64).
Values within a row are kept column-sorted, which PETSc guarantees after
assembly and which the SELL conversion relies on.

Products and the diagonal come from :class:`~repro.mat.base.Mat`: SciPy's
compiled CSR routines called on these same ``val`` and ``colidx`` arrays
(with an int32 copy of ``rowptr``), with no ``scipy.sparse`` object in
between.  The instruction-level kernels that reproduce Algorithm 1 live in
:mod:`repro.core.kernels_csr` and are tested to agree with that path.
"""

from __future__ import annotations

import numpy as np

from ..memory.spaces import aligned_alloc
from .base import Mat, register_format
from .sparsity import carry_signature


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
        """Build CSR from triplets; duplicates accumulate (ADD_VALUES).

        A one-off :class:`CooPlan`: callers reassembling new values over
        the same triplet indices keep the plan instead.  The result is
        hashed on demand, like any matrix, not stamped by the plan.
        """
        return CooPlan(shape, rows, cols, sum_duplicates)._assemble(vals)

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
        if (
            perm.shape != (m,)
            or np.any(perm < 0)
            or np.any(np.bincount(perm, minlength=m) != 1)
        ):
            raise ValueError("perm must be a permutation of the row indices")
        lengths = self.row_lengths()[perm]
        rowptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(lengths, out=rowptr[1:])
        # One gather: new slot t of row i reads old slot t + (old - new start).
        src = np.arange(self.nnz) + np.repeat(self.rowptr[perm] - rowptr[:-1], lengths)
        colidx, val = self.colidx[src], self.val[src]
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


def sort_coo(
    shape: tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
    sum_duplicates: bool = True,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """The structure half of COO assembly: ``(order, group, rowptr, colidx)``.

    ``order`` is one stable sort on the fused key ``rows * n + cols`` (the
    row-major two-key lexsort; int32 columns keep it within int64), so
    duplicates stay in input order.  With ``sum_duplicates``, ``group[k]``
    is the output slot of sorted triplet ``k`` and the values assemble as
    ``np.bincount(group, weights=vals[order])``; otherwise ``group`` is
    None and every sorted triplet is its own entry.  The structure depends
    only on the indices, so a caller replaying new values over fixed
    indices (:class:`CooPlan`, :class:`repro.ksp.pc.mg.ProductPlan`) sorts
    once.
    """
    m, n = shape
    order = np.argsort(rows * n + cols, kind="stable")
    rows, cols = rows[order], cols[order]
    group = None
    if sum_duplicates:
        keep = np.ones(rows.size, dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group = np.cumsum(keep) - 1
        rows, cols = rows[keep], cols[keep]
    counts = np.bincount(rows, minlength=m)
    if counts.shape[0] > m:
        raise IndexError("row index out of range")
    rowptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=rowptr[1:])
    return order, group, rowptr, cols


class CooPlan:
    """COO assembly for fixed triplet indices (PETSc's
    ``MatSetPreallocationCOO`` / ``MatSetValuesCOO``).

    The constructor runs :func:`sort_coo` once and keeps its index arrays
    plus the output ``rowptr`` and int32 ``colidx``; :meth:`assemble` is
    then a gather (and, with ``sum_duplicates``, one ``bincount``) of the
    new values, bit-identical to a fresh :meth:`AijMat.from_coo`.  Every
    assembled matrix carries the plan's structure signature
    (:func:`repro.mat.sparsity.carry_signature`), hashed once per plan.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        sum_duplicates: bool = True,
    ):
        m, n = shape
        if m < 0 or n < 0:
            raise ValueError("matrix dimensions must be non-negative")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        # Rows are range-checked by the sort; the fused key only orders
        # in-range columns, so those are checked before it.
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise IndexError("column index out of range")
        self.shape = shape
        self.triplets = rows.shape[0]
        self.order, self.group, self.rowptr, colidx = sort_coo(
            shape, rows, cols, sum_duplicates
        )
        self.colidx = colidx.astype(np.int32)

    def assemble(self, vals: np.ndarray) -> AijMat:
        """The matrix for ``vals``, given in the triplet order of the plan."""
        return carry_signature(self._assemble(vals), self)

    def _assemble(self, vals: np.ndarray) -> AijMat:
        vals = np.asarray(vals, dtype=np.float64)
        if vals.shape != (self.triplets,):
            raise ValueError(f"expected {self.triplets} values, got {vals.shape}")
        vals = vals[self.order]
        if self.group is not None:
            vals = np.bincount(self.group, weights=vals, minlength=self.colidx.shape[0])
        # The indices were checked once, in the constructor.  AijMat keeps
        # ``rowptr`` as passed; the copy keeps every result from aliasing
        # the plan.
        return AijMat(self.shape, self.rowptr.copy(), self.colidx, vals, check=False)


# CSR is the assembled format, so conversion is the identity.  "AIJ" is the
# PETSc spelling; "MKL" runs the inspector-executor path on the same CSR
# arrays (the library never reformats, it only re-schedules).
@register_format("CSR", "AIJ", "MKL")
def _csr_identity(csr: AijMat, *, slice_height: int = 8, sigma: int = 1) -> AijMat:
    return csr
