"""Sliced ELLPACK (SELL) — the matrix format the paper contributes to PETSc.

Storage follows Section 5 and Figure 6 exactly:

* rows are grouped into **slices** of ``C`` adjacent rows (C = 8 on KNL:
  one 512-bit register of doubles, Section 5.1);
* each slice is padded to its own width (its longest row), so short rows
  only pay for their slice, not for the global maximum as in ELLPACK;
* within a slice, values and column indices are stored **column by
  column** — the memory order equals the order the vectorized kernel
  (Algorithm 2) consumes, so every matrix access is a contiguous,
  alignable vector load;
* an ``rlen`` array keeps each row's true length.  The SpMV kernel never
  reads it (Section 5.2) — padded zeros are simply multiplied — but
  assembly, conversion, and diagnostics need it;
* the **column index of a padded slot is copied from a real nonzero of the
  same row** (its last one), so gathers through padding stay within the
  local vector and never widen a parallel matrix's ghost set
  (Section 5.5);
* the trailing partial slice, if any, is padded with empty rows to a full
  ``C`` so the kernel runs maskless except possibly at the final store.

Conversion is split as in PETSc's ``MatConvert(..., MAT_REUSE_MATRIX)``:
:class:`SellPlan` does the structure work once per sparsity pattern, and
its ``refill`` scatters each new set of values.

Design decisions the paper argues for are parameters here so the ablation
benchmarks can contradict them: ``slice_height`` sweeps C (C = 1
degenerates to CSR), ``sigma`` enables SELL-C-sigma window sorting
(``sigma = 1``, the default, is the paper's "no sorting" choice of
Section 5.4).
"""

from __future__ import annotations

import weakref

import numpy as np

from ..mat.aij import AijMat
from ..mat.base import Mat, register_format
from ..mat.sparsity import signature
from ..memory.spaces import aligned_alloc


class SellMat(Mat):
    """A sliced-ELLPACK matrix (PETSc's MATSELL).

    A converted matrix (:meth:`from_csr`, :meth:`SellPlan.refill`) keeps
    a weak reference to its source CSR: :meth:`to_csr` returns it, and
    products and the diagonal run on :class:`~repro.mat.base.Mat`'s CSR
    handle over it.  There is no SciPy view of the padded storage, so
    padded slots never multiply ``x`` outside the SIMD kernels.
    """

    format_name = "SELL"

    def __init__(
        self,
        shape: tuple[int, int],
        slice_height: int,
        sliceptr: np.ndarray,
        val: np.ndarray,
        colidx: np.ndarray,
        rlen: np.ndarray,
        perm: np.ndarray | None = None,
        sigma: int = 1,
        alignment: int = 64,
    ):
        m, n = shape
        if slice_height < 1:
            raise ValueError("slice height must be positive")
        sliceptr = np.asarray(sliceptr, dtype=np.int64)
        rlen = np.asarray(rlen, dtype=np.int64)
        nslices = (m + slice_height - 1) // slice_height if m else 0
        if sliceptr.shape != (nslices + 1,):
            raise ValueError(f"sliceptr must have {nslices + 1} entries")
        if sliceptr[0] != 0 or np.any(np.diff(sliceptr) < 0):
            raise ValueError("sliceptr must be non-decreasing from zero")
        if np.any(np.diff(sliceptr) % slice_height):
            raise ValueError("slice extents must be multiples of the height")
        if val.shape != colidx.shape or val.shape != (int(sliceptr[-1]),):
            raise ValueError("val/colidx inconsistent with sliceptr")
        if rlen.shape != (m,):
            raise ValueError("rlen must have one entry per row")
        self._shape = (m, n)
        self.slice_height = slice_height
        self.sigma = sigma
        self.sliceptr = sliceptr
        self.rlen = rlen
        self.val = _aligned(val, np.float64, alignment)
        self.colidx = _aligned(colidx, np.int32, alignment)
        if perm is not None:
            perm = np.asarray(perm, dtype=np.int64)
            if perm.shape != (m,):
                raise ValueError("perm must have one entry per row")
        self.perm = perm
        #: Weak reference to the CSR matrix this one was converted from
        #: (set by :meth:`SellPlan.refill`); ``None`` when built from arrays.
        self._source: weakref.ref | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(
        cls,
        csr: AijMat,
        slice_height: int = 8,
        sigma: int = 1,
        alignment: int = 64,
    ) -> "SellMat":
        """Convert an assembled CSR matrix (the MatConvert path).

        ``sigma > 1`` sorts rows by descending length inside disjoint
        windows of ``sigma`` rows before slicing (SELL-C-sigma);
        ``sigma`` must then be a multiple of the slice height so slices
        never straddle windows.  A one-off :class:`SellPlan`: callers
        converting new values on the same structure keep the plan.
        """
        return SellPlan(csr, slice_height, sigma, alignment).refill(csr)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def row_map(self) -> np.ndarray:
        """Output row of every stored slot, int32 (padding maps to its lane's row).

        The inverse view of the column-major slice layout: slot
        ``base + j*C + i`` of slice ``s`` belongs to the row stored at
        slice position ``s*C + i`` (trailing padding lanes reuse the last
        row).  Built on first use and cached; :meth:`to_csr` reads each
        slot's row from it.
        """
        cached = getattr(self, "_row_map", None)
        if cached is None:
            m, c = self.shape[0], self.slice_height
            lanes = np.minimum(np.arange(self.nslices * c), max(m - 1, 0))
            if self.perm is not None:
                lanes = self.perm[lanes]
            cached = np.repeat(
                lanes.astype(np.int32).reshape(self.nslices, c),
                np.diff(self.sliceptr) // c,
                axis=0,
            ).ravel()
            self._row_map = cached
        return cached

    def _real_slots(self) -> np.ndarray:
        """One boolean per stored slot: True for real nonzeros.

        Slot ``base + j*C + i`` of slice ``s`` is real when ``j`` is below
        ``rlen`` of the row in lane ``i``; trailing padding lanes have no
        real slots.
        """
        m, c = self.shape[0], self.slice_height
        lane_len = np.zeros(self.nslices * c, dtype=np.int64)
        lane_len[:m] = self.rlen[self.perm] if self.perm is not None else self.rlen
        widths = np.diff(self.sliceptr) // c
        # Column position j of every slot: its slice-relative offset // C.
        col_pos = np.arange(self.val.shape[0]) // c - np.repeat(
            self.sliceptr[:-1] // c, widths * c
        )
        slot_len = np.repeat(lane_len.reshape(self.nslices, c), widths, axis=0)
        return col_pos < slot_len.ravel()

    @property
    def nnz(self) -> int:
        return int(self.rlen.sum())

    @property
    def nslices(self) -> int:
        """Number of slices (the outer-loop trip count of Algorithm 2)."""
        return int(self.sliceptr.shape[0] - 1)

    def slice_width(self, s: int) -> int:
        """Padded row length of slice ``s``."""
        return int(
            (self.sliceptr[s + 1] - self.sliceptr[s]) // self.slice_height
        )

    @property
    def padded_entries(self) -> int:
        """Stored slots that are padding — the SELL storage penalty."""
        return int(self.sliceptr[-1] - self.nnz)

    @property
    def padding_fraction(self) -> float:
        """Padding as a fraction of all stored slots."""
        total = int(self.sliceptr[-1])
        return self.padded_entries / total if total else 0.0

    def storage_row(self, storage_index: int) -> int:
        """Original row stored at slice position ``storage_index``."""
        if self.perm is None:
            return storage_index
        return int(self.perm[storage_index])

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def to_csr(self) -> AijMat:
        """The source CSR of a converted matrix (shared, not copied).

        A matrix built from arrays, or one whose source is gone, rebuilds
        its CSR from the real slots.
        """
        source = self._source() if self._source is not None else None
        if source is not None:
            return source
        m, n = self.shape
        real = self._real_slots()
        rows = self.row_map[real]
        cols = self.colidx[real]
        # A row's slots sit in one slice at increasing j, so a stable sort
        # by row restores the CSR order the matrix was converted from.
        order = np.argsort(rows, kind="stable")
        rowptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=m), out=rowptr[1:])
        return AijMat((m, n), rowptr, cols[order], self.val[real][order])

    def memory_bytes(self) -> int:
        """Storage footprint: padded val + colidx, sliceptr, rlen, perm."""
        slots = int(self.sliceptr[-1])
        total = slots * 12 + self.sliceptr.shape[0] * 8 + self.rlen.shape[0] * 8
        if self.perm is not None:
            total += self.perm.shape[0] * 8
        return int(total)


def _aligned(a: np.ndarray, dtype, alignment: int) -> np.ndarray:
    """``a`` itself when already stored as ``dtype`` on an ``alignment``
    boundary (contiguous), else an aligned copy."""
    a = np.asarray(a)
    if (
        a.dtype == dtype
        and a.flags.c_contiguous
        and (a.size == 0 or a.ctypes.data % alignment == 0)
    ):
        return a
    out = aligned_alloc(a.shape[0], dtype, alignment)
    out[:] = a
    return out


def _frozen(a: np.ndarray | None) -> np.ndarray | None:
    """Mark a plan-shared array read-only, so a write raises instead of
    corrupting every later refill."""
    if a is not None:
        a.flags.writeable = False
    return a


class SellPlan:
    """CSR→SELL conversion for one sparsity structure (PETSc's
    ``MatConvert(..., MAT_REUSE_MATRIX)``).

    The constructor does every step of the conversion that depends only
    on the structure: the sigma permutation, the slice widths and
    ``sliceptr``, the padded ``colidx`` and the scatter index of the
    values.  Stored row ``k`` (after the sigma permutation) sits in lane
    ``i = k % C`` of slice ``s = k // C``, and its entry ``j`` goes to slot
    ``sliceptr[s] + j*C + i``.  A padded slot has value 0 and repeats the
    column of its lane's last real entry; lanes with no entries (empty
    rows and the trailing lanes of a partial last slice) pad with column 0.

    :meth:`refill` is then one scatter of the values.  Every matrix it
    builds shares the plan's ``sliceptr``, ``colidx``, ``rlen`` and
    ``perm``, which are read-only, and keeps a weak reference to its
    source CSR, which :meth:`SellMat.to_csr` returns.
    """

    def __init__(
        self,
        csr: AijMat,
        slice_height: int = 8,
        sigma: int = 1,
        alignment: int = 64,
    ):
        if slice_height < 1:
            raise ValueError("slice height must be positive")
        if sigma < 1:
            raise ValueError("sigma must be positive")
        if sigma > 1 and sigma % slice_height:
            raise ValueError("sigma must be a multiple of the slice height")
        m, n = csr.shape
        c = slice_height
        lengths = csr.row_lengths().astype(np.int64)

        # A stable sort on (window, -length) is the per-window stable
        # descending-length sort of SELL-C-sigma.
        perm = np.lexsort((-lengths, np.arange(m) // sigma)) if sigma > 1 else None
        storage_rows = perm if perm is not None else np.arange(m, dtype=np.int64)

        stored = lengths[storage_rows]
        nslices = -(-m // c)
        lane_len = np.zeros(nslices * c, dtype=np.int64)
        lane_len[:m] = stored
        widths = lane_len.reshape(nslices, c).max(axis=1)
        sliceptr = np.zeros(nslices + 1, dtype=np.int64)
        np.cumsum(widths * c, out=sliceptr[1:])

        # Padding first: every slot of a lane holds the lane's last real
        # column; the real slots are overwritten below.
        starts = csr.rowptr[storage_rows]
        filled = stored > 0
        lane_last = np.zeros(nslices * c, dtype=np.int32)
        lane_last[:m][filled] = csr.colidx[(starts + stored - 1)[filled]]
        colidx = _aligned(
            np.repeat(lane_last.reshape(nslices, c), widths, axis=0).ravel(),
            np.int32,
            alignment,
        )

        # Entry t of the scatter is entry j = t - first[k] of stored row k:
        # it reads CSR slot starts[k] + j and writes sliceptr[k // C] +
        # j*C + k % C, so both index arrays are a per-row offset repeated
        # over the row's entries plus a multiple of t.  Without a sigma
        # permutation the CSR slots are read in order.
        first = np.cumsum(stored) - stored
        lane_base = sliceptr[:-1].repeat(c)[:m] + np.arange(m) % c
        t = np.arange(int(stored.sum()), dtype=np.int64)
        self._src = None if perm is None else np.repeat(starts - first, stored) + t
        self._dst = np.repeat(lane_base - first * c, stored) + t * c
        colidx[self._dst] = csr.colidx if perm is None else csr.colidx[self._src]

        self.shape = (m, n)
        self.slice_height = slice_height
        self.sigma = sigma
        self.alignment = alignment
        self.sliceptr = _frozen(sliceptr)
        self.colidx = _frozen(colidx)
        self.rlen = _frozen(lengths)
        self.perm = _frozen(perm)
        self.signature = signature(csr)

    def refill(self, csr: AijMat) -> SellMat:
        """The SELL matrix of ``csr``, which must have the plan's structure."""
        if signature(csr) != self.signature:
            raise ValueError("refill needs a CSR matrix with the plan's sparsity structure")
        val = aligned_alloc(self.colidx.shape[0], np.float64, self.alignment)
        val[self._dst] = csr.val if self._src is None else csr.val[self._src]
        sell = SellMat(
            self.shape,
            self.slice_height,
            self.sliceptr,
            val,
            self.colidx,
            self.rlen,
            perm=self.perm,
            sigma=self.sigma,
            alignment=self.alignment,
        )
        sell._source = weakref.ref(csr)
        return sell


@register_format("SELL", plan=SellPlan)
def _sell_from_csr(csr: AijMat, *, slice_height: int = 8, sigma: int = 1) -> SellMat:
    return SellMat.from_csr(csr, slice_height=slice_height, sigma=sigma)
