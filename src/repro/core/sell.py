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

Design decisions the paper argues for are parameters here so the ablation
benchmarks can contradict them: ``slice_height`` sweeps C (C = 1
degenerates to CSR), ``sigma`` enables SELL-C-sigma window sorting
(``sigma = 1``, the default, is the paper's "no sorting" choice of
Section 5.4).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..mat.aij import AijMat
from ..mat.base import Mat, register_format
from ..memory.spaces import aligned_alloc


class SellMat(Mat):
    """A sliced-ELLPACK matrix (PETSc's MATSELL)."""

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
        self.val = aligned_alloc(val.shape[0], np.float64, alignment)
        self.val[:] = val
        self.colidx = aligned_alloc(colidx.shape[0], np.int32, alignment)
        self.colidx[:] = colidx
        if perm is not None:
            perm = np.asarray(perm, dtype=np.int64)
            if perm.shape != (m,):
                raise ValueError("perm must have one entry per row")
        self.perm = perm

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
        never straddle windows.
        """
        if slice_height < 1:
            raise ValueError("slice height must be positive")
        if sigma < 1:
            raise ValueError("sigma must be positive")
        if sigma > 1 and sigma % slice_height:
            raise ValueError("sigma must be a multiple of the slice height")
        m, n = csr.shape
        lengths = csr.row_lengths().astype(np.int64)

        if sigma > 1:
            perm = np.empty(m, dtype=np.int64)
            for start in range(0, m, sigma):
                stop = min(start + sigma, m)
                window = np.arange(start, stop)
                order = np.argsort(-lengths[start:stop], kind="stable")
                perm[start:stop] = window[order]
        else:
            perm = None

        storage_rows = perm if perm is not None else np.arange(m, dtype=np.int64)
        storage_lengths = lengths[storage_rows] if m else lengths

        nslices = (m + slice_height - 1) // slice_height if m else 0
        sliceptr = np.zeros(nslices + 1, dtype=np.int64)
        widths = np.zeros(nslices, dtype=np.int64)
        for s in range(nslices):
            chunk = storage_lengths[s * slice_height : (s + 1) * slice_height]
            widths[s] = int(chunk.max()) if chunk.size else 0
            sliceptr[s + 1] = sliceptr[s] + widths[s] * slice_height

        total = int(sliceptr[-1])
        val = np.zeros(total, dtype=np.float64)
        colidx = np.zeros(total, dtype=np.int32)
        for s in range(nslices):
            base = sliceptr[s]
            width = widths[s]
            for i in range(slice_height):
                k = s * slice_height + i
                if k >= m:
                    # Trailing padding rows: zero values, column 0 is a
                    # safe local index.
                    continue
                row = int(storage_rows[k])
                cols, vals = csr.get_row(row)
                length = cols.shape[0]
                # Element (i, j) of the slice lives at base + j*C + i.
                slots = base + np.arange(length, dtype=np.int64) * slice_height + i
                val[slots] = vals
                colidx[slots] = cols
                if length < width:
                    pad = base + np.arange(length, width) * slice_height + i
                    # Padding reuses a real (local) column of the same row.
                    colidx[pad] = cols[-1] if length else 0
        return cls(
            (m, n),
            slice_height,
            sliceptr,
            val,
            colidx,
            lengths,
            perm=perm,
            sigma=sigma,
            alignment=alignment,
        )

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
        row).  Built on first use and cached; it is the row array of the
        product handle and tells the transpose kernels which ``x`` entry
        each slot multiplies.
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

    def _scipy_view(self) -> sp.coo_matrix:
        """A SciPy COO view over ``val``, ``colidx`` and :attr:`row_map`.

        No storage is copied.  SciPy's COO product walks the slots in
        storage order, which within each row is column-position order —
        CSR's order — so every ``y_i`` is the same sequential row sum the
        CSR handle computes; padded slots add an exact ``+0.0``.
        """
        return sp.coo_matrix((self.val, (self.row_map, self.colidx)), shape=self.shape)

    def memory_bytes(self) -> int:
        """Storage footprint: padded val + colidx, sliceptr, rlen, perm."""
        slots = int(self.sliceptr[-1])
        total = slots * 12 + self.sliceptr.shape[0] * 8 + self.rlen.shape[0] * 8
        if self.perm is not None:
            total += self.perm.shape[0] * 8
        return int(total)

    def _compute_abft_checksums(self) -> tuple[np.ndarray, np.ndarray]:
        # Column sums are invariant under the sigma row permutation, and
        # padded slots carry val == 0 with an in-range column index, so the
        # padded arrays bincount directly — no CSR round-trip needed.
        n = self.shape[1]
        w = np.bincount(self.colidx, weights=self.val, minlength=n)[:n]
        wabs = np.bincount(self.colidx, weights=np.abs(self.val), minlength=n)[:n]
        return w, wabs


@register_format("SELL")
def _sell_from_csr(csr: AijMat, *, slice_height: int = 8, sigma: int = 1) -> SellMat:
    return SellMat.from_csr(csr, slice_height=slice_height, sigma=sigma)
