"""BAIJ — block CSR, PETSc's format for PDEs with multiple DOFs per point.

The Gray-Scott system has two degrees of freedom (u, v) per grid point, so
its Jacobian consists of natural 2x2 blocks (paper Section 7).  BAIJ stores
one column index per *block* and the block values densely, which halves the
index traffic relative to AIJ and enables register blocking on CPUs with
narrow vectors — though, as the paper notes (Section 3.2), small natural
blocks map poorly onto 512-bit registers, which is precisely why SELL wins
on KNL.
"""

from __future__ import annotations

import numpy as np

from .aij import AijMat
from .base import Mat, register_format


class BaijMat(Mat):
    """Block CSR with a fixed square block size."""

    format_name = "BAIJ"

    def __init__(
        self,
        shape: tuple[int, int],
        bs: int,
        browptr: np.ndarray,
        bcolidx: np.ndarray,
        val: np.ndarray,
    ):
        m, n = shape
        if bs < 1:
            raise ValueError("block size must be positive")
        if m % bs or n % bs:
            raise ValueError(f"matrix {m}x{n} not divisible by block size {bs}")
        browptr = np.asarray(browptr, dtype=np.int64)
        bcolidx = np.asarray(bcolidx, dtype=np.int32)
        val = np.asarray(val, dtype=np.float64)
        mb = m // bs
        if browptr.shape != (mb + 1,):
            raise ValueError("browptr must have one entry per block row + 1")
        if val.shape != (bcolidx.shape[0], bs, bs):
            raise ValueError("val must be (nblocks, bs, bs)")
        if bcolidx.size and (bcolidx.min() < 0 or bcolidx.max() >= n // bs):
            raise IndexError("block column index out of range")
        self._shape = (m, n)
        self.bs = bs
        self.browptr = browptr
        self.bcolidx = bcolidx
        self.val = val

    @classmethod
    def from_csr(cls, csr: AijMat, bs: int) -> "BaijMat":
        """Convert CSR to BAIJ, padding partially-filled blocks with zeros."""
        m, n = csr.shape
        if m % bs or n % bs:
            raise ValueError(f"matrix {m}x{n} not divisible by block size {bs}")
        mb = m // bs
        blocks: list[dict[int, np.ndarray]] = [dict() for _ in range(mb)]
        for i in range(m):
            bi, oi = divmod(i, bs)
            cols, vals = csr.get_row(i)
            for j, v in zip(cols, vals, strict=True):
                bj, oj = divmod(int(j), bs)
                block = blocks[bi].setdefault(bj, np.zeros((bs, bs)))
                block[oi, oj] += v
        browptr = np.zeros(mb + 1, dtype=np.int64)
        bcolidx: list[int] = []
        vals_list: list[np.ndarray] = []
        for bi in range(mb):
            cols_sorted = sorted(blocks[bi])
            browptr[bi + 1] = browptr[bi] + len(cols_sorted)
            bcolidx.extend(cols_sorted)
            vals_list.extend(blocks[bi][bj] for bj in cols_sorted)
        val = (
            np.stack(vals_list)
            if vals_list
            else np.zeros((0, bs, bs), dtype=np.float64)
        )
        return cls((m, n), bs, browptr, np.array(bcolidx, dtype=np.int32), val)

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        """Stored scalar entries (whole blocks, including block padding)."""
        return int(self.val.size)

    @property
    def nblocks(self) -> int:
        """Number of stored blocks."""
        return int(self.bcolidx.shape[0])

    def to_csr(self) -> AijMat:
        m, n = self.shape
        bs = self.bs
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        mb = m // bs
        for bi in range(mb):
            for k in range(self.browptr[bi], self.browptr[bi + 1]):
                bj = int(self.bcolidx[k])
                block = self.val[k]
                for oi in range(bs):
                    for oj in range(bs):
                        # Keep explicit zeros out of the CSR version so the
                        # round-trip matches the original sparsity.
                        if block[oi, oj] != 0.0:
                            rows.append(bi * bs + oi)
                            cols.append(bj * bs + oj)
                            vals.append(float(block[oi, oj]))
        return AijMat.from_coo(
            (m, n),
            np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64),
            np.array(vals, dtype=np.float64),
            sum_duplicates=False,
        )

    def memory_bytes(self) -> int:
        # Dense blocks (8B/entry) + one 4B index per block + 8B per block row.
        return int(self.val.size * 8 + self.nblocks * 4 + self.browptr.shape[0] * 8)


# Block size 2: the Gray-Scott Jacobian's natural (u, v) blocks.
@register_format("BAIJ")
def _baij_from_csr(csr: AijMat, *, slice_height: int = 8, sigma: int = 1) -> BaijMat:
    return BaijMat.from_csr(csr, 2)
