"""Block Jacobi: point blocks (PCPBJACOBI) and rank-local blocks (PCBJACOBI).

For the Gray-Scott Jacobian the natural blocks are the 2x2 (u, v)
couplings at each grid point; point-block Jacobi inverts them exactly,
strengthening the smoother where the reaction terms dominate.  This is
PETSc's PCPBJACOBI and exists here both as a better smoother option and as
a consumer of the BAIJ format.

:class:`ParallelBlockJacobiPC` is PETSc's PCBJACOBI for distributed
solves: each rank factors its own diagonal block.
"""

from __future__ import annotations

import numpy as np

from ..base import LinearOperator


class BlockJacobiPC:
    """z = blockdiag(A)^-1 r with dense bs x bs blocks."""

    def __init__(self, bs: int = 2):
        if bs < 1:
            raise ValueError("block size must be positive")
        self.bs = bs
        self._inv_blocks: np.ndarray | None = None

    def setup(self, op: LinearOperator) -> None:
        """Extract and invert the block diagonal.

        The operator must expose ``to_csr`` (every repro format does);
        singular blocks fall back to the pseudo-inverse so an
        under-resolved block cannot poison the whole smoother.
        """
        csr = op.to_csr() if hasattr(op, "to_csr") else op  # type: ignore[attr-defined]
        m, n = csr.shape
        bs = self.bs
        if m != n or m % bs:
            raise ValueError(f"operator {m}x{n} incompatible with block size {bs}")
        nb = m // bs
        blocks = np.zeros((nb, bs, bs))
        for i in range(m):
            bi, oi = divmod(i, bs)
            cols, vals = csr.get_row(i)
            lo = bi * bs
            sel = (cols >= lo) & (cols < lo + bs)
            blocks[bi, oi, cols[sel] - lo] = vals[sel]
        inv = np.empty_like(blocks)
        for k in range(nb):
            try:
                inv[k] = np.linalg.inv(blocks[k])
            except np.linalg.LinAlgError:
                inv[k] = np.linalg.pinv(blocks[k])
        self._inv_blocks = inv

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Apply all inverse blocks in one batched einsum."""
        if self._inv_blocks is None:
            raise RuntimeError("BlockJacobiPC.apply before setup")
        bs = self.bs
        if r.shape[0] != self._inv_blocks.shape[0] * bs:
            raise ValueError("residual does not conform to the operator")
        rb = r.reshape(-1, bs)
        return np.einsum("kij,kj->ki", self._inv_blocks, rb).ravel()


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
