"""AIJPERM — CSR with a row permutation for cross-row vectorization.

The D'Azevedo/Fahey/Mills format (paper Section 2.4): keep the CSR data in
place, but compute, once, a grouping of rows by equal nonzero count.  The
SpMV kernel then vectorizes *across* rows inside a group, ELLPACK-style,
reading the value and index arrays with a non-unit stride.  On the Cray X1
that stride was nearly free; on cache-based CPUs it defeats spatial
locality, which is why the paper measures AIJPERM at parity with plain CSR
on KNL (Figure 8).
"""

from __future__ import annotations

import numpy as np

from .aij import AijMat
from .base import Mat, register_format


class AijPermMat(Mat):
    """CSR plus a precomputed equal-row-length permutation."""

    format_name = "CSRPerm"

    def __init__(self, csr: AijMat):
        self.csr = csr
        lengths = csr.row_lengths()
        # Stable sort: rows of equal length keep their original order, so
        # locality within a group degrades as little as possible.
        self.perm = np.argsort(lengths, kind="stable").astype(np.int64)
        sorted_lengths = lengths[self.perm]
        # Group boundaries: one group per distinct row length.
        if sorted_lengths.size:
            change = np.nonzero(np.diff(sorted_lengths))[0] + 1
            self.group_starts = np.concatenate(
                ([0], change, [sorted_lengths.size])
            ).astype(np.int64)
        else:
            self.group_starts = np.array([0], dtype=np.int64)
        self.group_lengths = (
            sorted_lengths[self.group_starts[:-1]].astype(np.int64)
            if sorted_lengths.size
            else np.zeros(0, dtype=np.int64)
        )

    @classmethod
    def from_csr(cls, csr: AijMat) -> "AijPermMat":
        """Wrap an assembled CSR matrix (the data is shared, not copied)."""
        return cls(csr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def ngroups(self) -> int:
        """Number of equal-row-length groups."""
        return int(self.group_starts.shape[0] - 1)

    @property
    def colidx_f64(self) -> np.ndarray:
        """The column indices as doubles, for the kernel's strided gathers.

        The permuted kernel gathers column indices through the *float*
        gather unit (there is no integer gather on the modeled ISAs), so it
        needs a float view of ``colidx``.  Cached: converting per column
        position allocated O(nnz) every inner iteration.
        """
        cached = getattr(self, "_colidx_f64", None)
        if cached is None:
            cached = self.csr.colidx.astype(np.float64)
            self._colidx_f64 = cached
        return cached

    def to_csr(self) -> AijMat:
        return self.csr

    def memory_bytes(self) -> int:
        # The CSR data plus the permutation (8B/row) and group tables.
        return int(
            self.csr.memory_bytes()
            + self.perm.shape[0] * 8
            + self.group_starts.shape[0] * 8
            + self.group_lengths.shape[0] * 8
        )


@register_format("CSRPerm")
def _csrperm_from_csr(
    csr: AijMat, *, slice_height: int = 8, sigma: int = 1
) -> AijPermMat:
    return AijPermMat.from_csr(csr)
