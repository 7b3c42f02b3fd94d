"""β(r,c): block-based storage with no zero padding (Bramas & Kus, SPC5).

BCSR-style block formats pay for register-friendly access with dense
r-by-c tiles: every structural zero inside a tile is stored, loaded, and
multiplied.  The β(r,c) family (arXiv 1801.01134) keeps the blocking but
drops the padding — each block stores

* one anchor column (``block_col``),
* one r*c-bit presence mask (``block_mask``, bit ``i*c + j`` set iff row
  ``i`` of the block has an entry at column ``anchor + j``), and
* its true nonzeros only, packed row-major (a slice of ``val``).

The per-nonzero index overhead collapses from CSR's 4 bytes to
``(4 + 8) / nnz_per_block`` amortized bytes, and the kernel performs
exactly ``2*nnz`` flops: the mask, not padding, tells each lane what to
do.

Blocks are cut greedily left-to-right inside each r-row band, the same
streaming pass the SPC5 converter uses: a block is anchored at the
first column of the band no earlier block covers and spans
``[anchor, anchor + c)``.  Anchors are not aligned to multiples of
``c``.  :meth:`BetaMat.from_csr` computes that cut with whole-array
NumPy passes, so its cost grows with the number of entries only through
sorts and reductions, and with the longest run of closely spaced columns
through one short frontier walk (see its docstring).

The arrays the SpMV *kernels* and the CSR conversion consume beyond that
storage — ``valptr`` (prefix popcounts of the masks), the per-nonzero
gather columns, and the per-nonzero row map — are derived, recomputable
from (mask, anchor) alone; SPC5 expands them at run time from the mask
word, so :meth:`memory_bytes` counts only the true format storage.
``valptr`` is built with the matrix; the gather columns and row map are
built from the unpacked mask bits on first use.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..mat.aij import AijMat
from ..mat.base import Mat, register_format

#: Default block shape: 2x4 doubles = one AVX-512 register per block row
#: pair, the shape SPC5 calls beta(2,4).
DEFAULT_BLOCK_SHAPE = (2, 4)


def _check_block_shape(r: int, c: int) -> None:
    if r < 1 or c < 1 or r * c > 64:
        raise ValueError(f"block shape {(r, c)} must fit a 64-bit mask")


class BetaMat(Mat):
    """A sparse matrix in β(r,c) no-padding block storage."""

    format_name = "BETA"

    def __init__(
        self,
        shape: tuple[int, int],
        block_shape: tuple[int, int],
        blockptr: np.ndarray,
        block_col: np.ndarray,
        block_mask: np.ndarray,
        val: np.ndarray,
    ):
        self._shape = (int(shape[0]), int(shape[1]))
        self.block_shape = (int(block_shape[0]), int(block_shape[1]))
        self.blockptr = blockptr
        self.block_col = block_col
        self.block_mask = block_mask
        self.val = val
        _check_block_shape(*self.block_shape)
        # Packed-order prefix offsets: block b's values are
        # val[valptr[b]:valptr[b + 1]].
        popcnt = np.bitwise_count(np.asarray(block_mask, dtype=np.uint64))
        self.valptr = np.zeros(popcnt.shape[0] + 1, dtype=np.int64)
        np.cumsum(popcnt, out=self.valptr[1:])

    # -- construction -----------------------------------------------------
    @classmethod
    def from_csr(
        cls,
        csr: AijMat,
        block_shape: tuple[int, int] = DEFAULT_BLOCK_SHAPE,
    ) -> "BetaMat":
        """The greedy streaming cut of every band, in whole-array passes.

        1. Each entry gets the key ``band * (n + c) + col``.  Sorted
           stably, the keys list the bands in order and each band's
           entries by column, rows in order within a column; a band's
           keys sit more than ``c`` below the next band's.
        2. A block starts at every key at least ``c`` past the key
           before it (a band's first key included).  The other starts
           come from a frontier walk over all bands at once: from each
           start whose next key is no start, the next start is the
           first key at or beyond ``anchor + c`` (``np.searchsorted``);
           a step that lands on a known start ends its chain.  The walk
           takes as many steps as the longest run of keys less than
           ``c`` apart has blocks.
        3. Each entry sets bit ``row_in_band * c + col - anchor`` of its
           block's mask (``np.bitwise_or.reduceat``), and ordering the
           entries by (anchor, bit) packs each block's values row-major.
        """
        m, n = csr.shape
        r, c = int(block_shape[0]), int(block_shape[1])
        _check_block_shape(r, c)
        nbands = (m + r - 1) // r if m else 0
        nnz = int(csr.rowptr[m])
        rows = np.arange(m, dtype=np.int64)
        rowlen = np.diff(csr.rowptr)
        stride = n + c
        key = np.repeat(rows // r * stride, rowlen) + csr.colidx
        order = np.argsort(key, kind="stable")
        key = key[order]
        # start[nnz] is a sentinel: a span reaching past the last key.
        start = np.ones(nnz + 1, dtype=bool)
        np.greater_equal(key[1:] - key[:-1], c, out=start[1:nnz])
        frontier = np.flatnonzero(start[:nnz] & ~start[1:])
        while frontier.size:
            frontier = np.searchsorted(key, key[frontier] + c)
            frontier = frontier[~start[frontier]]
            start[frontier] = True
        first = np.flatnonzero(start[:nnz])
        anchor_key = key[first]
        anchor = np.repeat(anchor_key, np.diff(first, append=nnz))
        bit = np.repeat(rows % r * c, rowlen)[order] + (key - anchor)
        block_mask = np.bitwise_or.reduceat(
            np.left_shift(np.uint64(1), bit.astype(np.uint64)), first
        )
        # Consecutive anchors lie at least c apart, so anchor * r + bit
        # orders by block, then by row and column inside it.
        packed = order[np.argsort(anchor * r + bit, kind="stable")]
        block_band = anchor_key // stride
        blockptr = np.zeros(nbands + 1, dtype=np.int64)
        np.cumsum(np.bincount(block_band, minlength=nbands), out=blockptr[1:])
        return cls(
            (m, n),
            (r, c),
            blockptr,
            (anchor_key - block_band * stride).astype(np.int32),
            block_mask,
            csr.val[packed],
        )

    @cached_property
    def _expansion(self) -> tuple[np.ndarray, np.ndarray]:
        """Per packed value: its gather column and its logical row.

        A block's set mask bits, in increasing order, are its values in
        packed (row-major) order, so unpacking the masks and listing the
        set bits block by block lists every value once, in storage order.
        """
        r, c = self.block_shape
        masks = np.ascontiguousarray(self.block_mask, dtype="<u8")
        bits = np.unpackbits(
            masks.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )[:, : r * c]
        block, bit = np.nonzero(bits)
        row_in_block, col_in_block = np.divmod(bit, c)
        band = np.repeat(np.arange(self.nbands, dtype=np.int64), np.diff(self.blockptr))
        gathercol = (self.block_col[block] + col_in_block).astype(np.int32)
        return gathercol, band[block] * r + row_in_block

    @property
    def gathercol(self) -> np.ndarray:
        """The column every packed value multiplies, int32."""
        return self._expansion[0]

    @property
    def _row_of_element(self) -> np.ndarray:
        """The row every packed value adds into, int64."""
        return self._expansion[1]

    # -- shape -------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self.val.shape[0])

    @property
    def nbands(self) -> int:
        """Number of r-row bands (block rows)."""
        return self.blockptr.shape[0] - 1

    @property
    def nblocks(self) -> int:
        return int(self.block_col.shape[0])

    # -- operations ----------------------------------------------------------
    def to_csr(self) -> AijMat:
        m, n = self.shape
        order = np.lexsort((self.gathercol, self._row_of_element))
        counts = np.bincount(self._row_of_element, minlength=m)[:m]
        rowptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        return AijMat(
            (m, n),
            rowptr,
            np.asarray(self.gathercol[order], dtype=np.int32),
            np.asarray(self.val[order], dtype=np.float64),
        )

    def memory_bytes(self) -> int:
        """True format storage: values, anchors, masks, and band pointers.

        The derived expansion arrays are excluded — SPC5 reconstructs
        them from the mask word at run time (see the module docstring).
        """
        return int(
            self.val.nbytes
            + self.block_col.nbytes
            + self.block_mask.nbytes
            + self.blockptr.nbytes
        )

    @property
    def fill_ratio(self) -> float:
        """Stored nonzeros per block slot (1.0 = every slot real).

        BCSR would store ``nblocks * r * c`` values; β stores ``nnz``.
        The ratio is the storage the no-padding mask trick saves.
        """
        r, c = self.block_shape
        slots = self.nblocks * r * c
        return float(self.nnz) / slots if slots else 1.0


@register_format("BETA", block_shape=True)
def _beta_from_csr(
    csr: AijMat,
    *,
    slice_height: int = 8,
    sigma: int = 1,
    block_shape: tuple[int, int] = DEFAULT_BLOCK_SHAPE,
) -> BetaMat:
    """β(r,c) ignores the SELL knobs; ``block_shape`` picks (r, c)."""
    del slice_height, sigma
    return BetaMat.from_csr(csr, block_shape=block_shape)
