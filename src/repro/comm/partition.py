"""Row layouts: how a global dimension is split across ranks.

PETSc distributes matrices by consecutive row blocks (paper Section 2.1,
Figure 2) and vectors conformingly.  :class:`RowLayout` is that ownership
map: contiguous ranges, one per rank, computed with PETSc's default
rule (the first ``n % size`` ranks get one extra row).
:func:`row_block` cuts one rank's rows out of a global CSR operator.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from ..mat.aij import AijMat


@dataclass(frozen=True)
class RowLayout:
    """Ownership of a global index range by ``size`` ranks.

    Attributes
    ----------
    n_global:
        Total number of rows (or vector entries).
    starts:
        ``size + 1`` offsets; rank ``r`` owns ``[starts[r], starts[r+1])``.
    """

    n_global: int
    starts: tuple[int, ...]

    @classmethod
    def uniform(cls, n_global: int, size: int) -> "RowLayout":
        """PETSc's PETSC_DECIDE split: remainders go to the lowest ranks."""
        if n_global < 0:
            raise ValueError("global size must be non-negative")
        if size < 1:
            raise ValueError("communicator size must be positive")
        base, extra = divmod(n_global, size)
        starts = [0]
        for rank in range(size):
            starts.append(starts[-1] + base + (1 if rank < extra else 0))
        return cls(n_global=n_global, starts=tuple(starts))

    @classmethod
    def from_local_sizes(cls, local_sizes: list[int]) -> "RowLayout":
        """Layout from explicit per-rank local sizes."""
        if any(s < 0 for s in local_sizes):
            raise ValueError("local sizes must be non-negative")
        starts = [0]
        for s in local_sizes:
            starts.append(starts[-1] + s)
        return cls(n_global=starts[-1], starts=tuple(starts))

    @property
    def size(self) -> int:
        """Number of ranks in the layout."""
        return len(self.starts) - 1

    def range_of(self, rank: int) -> tuple[int, int]:
        """The ``[start, end)`` rows owned by ``rank``."""
        if not 0 <= rank < self.size:
            raise IndexError(f"rank {rank} out of range")
        return self.starts[rank], self.starts[rank + 1]

    def local_size(self, rank: int) -> int:
        """Number of rows ``rank`` owns."""
        start, end = self.range_of(rank)
        return end - start

    def owner_of(self, index: int) -> int:
        """The rank owning global ``index``."""
        if not 0 <= index < self.n_global:
            raise IndexError(f"global index {index} out of range")
        return bisect.bisect_right(self.starts, index) - 1

    def to_local(self, rank: int, index: int) -> int:
        """Convert a global index owned by ``rank`` to its local offset."""
        start, end = self.range_of(rank)
        if not start <= index < end:
            raise IndexError(f"index {index} not owned by rank {rank}")
        return index - start

    def is_balanced(self, tolerance: int = 1) -> bool:
        """True when local sizes differ by at most ``tolerance``."""
        sizes = [self.local_size(r) for r in range(self.size)]
        return max(sizes) - min(sizes) <= tolerance


def row_block(csr: AijMat, layout: RowLayout, rank: int) -> AijMat:
    """Rank-local contiguous row block of a CSR operator."""
    start, end = layout.range_of(rank)
    lo, hi = int(csr.rowptr[start]), int(csr.rowptr[end])
    return AijMat(
        (end - start, csr.shape[1]),
        csr.rowptr[start : end + 1] - csr.rowptr[start],
        csr.colidx[lo:hi],
        csr.val[lo:hi],
        check=False,
    )
