"""Preconditioned Richardson iteration — the smoother workhorse.

``x <- x + scale * M^-1 (b - A x)``.  With a Jacobi PC and scale 2/3 this
is the damped-Jacobi smoother the multigrid preconditioner runs on every
level (the paper's ``-mg_levels_pc_type jacobi`` configuration, which
makes the whole solve "rely heavily on matrix-vector multiplications" —
Section 7.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import (
    KSP,
    ConvergedReason,
    IdentityPC,
    KSPResult,
    LinearOperator,
    krylov_dot,
    local_array,
)


@dataclass
class Richardson(KSP):
    """Fixed-point iteration with a preconditioner and damping factor."""

    scale: float = 1.0
    pc: object = field(default_factory=IdentityPC)
    max_it: int = 10

    def solve(
        self, op: LinearOperator, b: np.ndarray, x0: np.ndarray | None = None
    ) -> KSPResult:
        """Run up to ``max_it`` sweeps (smoothers run a fixed count)."""
        op = self._resolve_operator(op)
        b, x0 = local_array(b), local_array(x0)
        self._check_system(op, b)
        dot = krylov_dot(op)
        n = b.shape[0]
        x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
        self.pc.setup(op)
        norms: list[float] = []
        rnorm0: float | None = None
        reason = ConvergedReason.ITS
        it = 0
        for it in range(1, self.max_it + 1):
            r = b - op.multiply(x)
            rnorm = math.sqrt(dot(r, r))
            if rnorm0 is None:
                rnorm0 = rnorm or 1.0
            self._record(norms, it - 1, rnorm)
            stop = self._converged(rnorm, rnorm0)
            if stop is not None:
                reason = stop
                break
            x += self.scale * self.pc.apply(r)
        return KSPResult(x, reason, it, norms)
