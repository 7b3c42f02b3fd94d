"""ILU(0): incomplete LU on the existing sparsity pattern.

The paper's future-work section singles out "(possibly incomplete) LU
decomposition and triangular solves for sliced ELLPACK" as the missing
piece for broader preconditioner coverage.  The CSR-based ILU(0) here is
that reference point: the factorization and the two triangular solves run
on CSR row structure and have no SELL-friendly formulation — which is the
point the ablation discussion makes.
"""

from __future__ import annotations

import numpy as np

from ...core.triangular import ilu0_factor
from ..base import LinearOperator


class ILU0PC:
    """Zero-fill incomplete LU with CSR-pattern triangular solves."""

    def __init__(self) -> None:
        self._csr = None
        self._lu: np.ndarray | None = None
        self._diag_pos: np.ndarray | None = None

    def setup(self, op: LinearOperator) -> None:
        """IKJ-variant ILU(0) over the operator's CSR pattern."""
        csr = op.to_csr() if hasattr(op, "to_csr") else None
        if csr is None:
            raise TypeError("ILU0PC needs an operator exposing to_csr()")
        self._lu, self._diag_pos = ilu0_factor(csr)
        self._csr = csr

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Solve L U z = r with the stored factors."""
        if self._lu is None:
            raise RuntimeError("ILU0PC.apply before setup")
        csr, lu, diag_pos = self._csr, self._lu, self._diag_pos
        m = csr.shape[0]
        if r.shape[0] != m:
            raise ValueError("residual does not conform to the operator")
        rowptr, colidx = csr.rowptr, csr.colidx
        # Forward solve: L has unit diagonal.
        y = r.astype(np.float64).copy()
        for i in range(m):
            lo = int(rowptr[i])
            dp = int(diag_pos[i])
            if dp > lo:
                y[i] -= lu[lo:dp] @ y[colidx[lo:dp]]
        # Backward solve with U.
        z = y
        for i in range(m - 1, -1, -1):
            dp = int(diag_pos[i])
            hi = int(rowptr[i + 1])
            if hi > dp + 1:
                z[i] -= lu[dp + 1 : hi] @ z[colidx[dp + 1 : hi]]
            z[i] /= lu[dp]
        return z
