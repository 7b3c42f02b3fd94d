"""Block Jacobi on rank-local blocks (PETSc's PCBJACOBI).

:class:`ParallelBlockJacobiPC` is the preconditioner of distributed
solves: each rank factors its own diagonal block.
"""

from __future__ import annotations

import numpy as np

from ..base import LinearOperator


class ParallelBlockJacobiPC:
    """PCBJACOBI: solve each rank's diagonal block exactly (dense LU).

    PETSc's default parallel preconditioner applies an (I)LU of the local
    diagonal block; with the small per-rank systems of the tests a dense
    factorization is the honest equivalent.  The block is the operator's
    ``to_csr()`` — on a distributed matrix's rank-local view, the local
    diagonal block; on a sequential matrix, the whole matrix.
    """

    def __init__(self) -> None:
        self._lu: tuple[np.ndarray, np.ndarray] | None = None
        self._ready = False

    def setup(self, op: LinearOperator) -> None:
        """Factor the rank-local diagonal block."""
        # Imported here: nothing else loads scipy.linalg at start-up.
        import scipy.linalg as sla

        block = op.to_csr().to_dense()  # type: ignore[attr-defined]
        # A rank that owns no rows (more ranks than rows) has nothing to factor.
        self._lu = sla.lu_factor(block) if block.size else None
        self._ready = True

    def apply(self, r: np.ndarray) -> np.ndarray:
        """z = (local diag block)^-1 r."""
        import scipy.linalg as sla

        if not self._ready:
            raise RuntimeError("ParallelBlockJacobiPC.apply before setup")
        if self._lu is None:
            return r.copy()
        return sla.lu_solve(self._lu, r)
