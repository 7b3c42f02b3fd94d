"""Hybrid ELL + COO format (Bell & Garland, paper Section 2.5).

The GPU-era compromise: store the first ``K`` entries of each row in
ELLPACK (regular, vectorizable) and spill the tail of unusually long rows
into COO.  ``K`` defaults to a percentile of the row-length distribution so
that a few outlier rows cannot inflate the padded width — the exact failure
of pure ELLPACK the hybrid was invented to fix.
"""

from __future__ import annotations

import numpy as np

from .aij import AijMat
from .base import Mat, register_format
from .coo import CooMat
from .ellpack import EllpackMat


class HybridMat(Mat):
    """ELLPACK for the regular part, COO for the spill."""

    format_name = "HYB"

    def __init__(self, ell: EllpackMat, coo: CooMat):
        if ell.shape != coo.shape:
            raise ValueError("ELL and COO parts must share a shape")
        self.ell = ell
        self.coo = coo

    @classmethod
    def from_csr(
        cls, csr: AijMat, width: int | None = None, percentile: float = 75.0
    ) -> "HybridMat":
        """Split CSR at ``width`` entries/row (default: a length percentile)."""
        m, n = csr.shape
        lengths = csr.row_lengths()
        if width is None:
            width = (
                int(np.percentile(lengths, percentile)) if lengths.size else 0
            )
        if width < 0:
            raise ValueError("ELL width must be non-negative")

        ell_width = max(width, 0)
        val = np.zeros((m, ell_width), order="F")
        colidx = np.zeros((m, ell_width), dtype=np.int32, order="F")
        rlen = np.minimum(lengths, ell_width)
        spill_rows: list[int] = []
        spill_cols: list[int] = []
        spill_vals: list[float] = []
        for i in range(m):
            cols, vals = csr.get_row(i)
            k = min(cols.shape[0], ell_width)
            val[i, :k] = vals[:k]
            colidx[i, :k] = cols[:k]
            colidx[i, k:] = cols[k - 1] if k else 0
            if cols.shape[0] > ell_width:
                tail = slice(ell_width, cols.shape[0])
                spill_rows.extend([i] * (cols.shape[0] - ell_width))
                spill_cols.extend(cols[tail].tolist())
                spill_vals.extend(vals[tail].tolist())
        ell = EllpackMat((m, n), val, colidx, rlen)
        coo = CooMat(
            (m, n),
            np.array(spill_rows, dtype=np.int64),
            np.array(spill_cols, dtype=np.int64),
            np.array(spill_vals, dtype=np.float64),
        )
        return cls(ell, coo)

    @property
    def shape(self) -> tuple[int, int]:
        return self.ell.shape

    @property
    def nnz(self) -> int:
        return self.ell.nnz + self.coo.nnz

    @property
    def spill_fraction(self) -> float:
        """Fraction of nonzeros that fell into the COO part."""
        return self.coo.nnz / self.nnz if self.nnz else 0.0

    def to_csr(self) -> AijMat:
        a = self.ell.to_csr()
        b = self.coo.to_csr()
        rows_a = np.repeat(
            np.arange(a.shape[0], dtype=np.int64), a.row_lengths()
        )
        rows_b = np.repeat(
            np.arange(b.shape[0], dtype=np.int64), b.row_lengths()
        )
        return AijMat.from_coo(
            self.shape,
            np.concatenate([rows_a, rows_b]),
            np.concatenate(
                [a.colidx.astype(np.int64), b.colidx.astype(np.int64)]
            ),
            np.concatenate([a.val, b.val]),
            sum_duplicates=True,
        )

    def memory_bytes(self) -> int:
        return self.ell.memory_bytes() + self.coo.memory_bytes()


@register_format("HYB")
def _hybrid_from_csr(
    csr: AijMat, *, slice_height: int = 8, sigma: int = 1
) -> HybridMat:
    return HybridMat.from_csr(csr)
