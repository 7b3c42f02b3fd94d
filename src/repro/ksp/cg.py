"""Preconditioned conjugate gradients, for the SPD members of the gallery.

Not used by the paper's experiments (the Gray-Scott Jacobian is
nonsymmetric), but a Krylov library without CG would be incomplete, and
the CG tests double as independent validation of the preconditioners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..faults.abft import SdcDetected
from ..faults.events import emit
from ..obs.observer import obs_event
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
class CG(KSP):
    """Standard PCG with the natural-norm convergence test on z.r."""

    pc: object = field(default_factory=IdentityPC)

    def solve(
        self,
        op: LinearOperator,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> KSPResult:
        """Solve A x = b for SPD A."""
        op = self._resolve_operator(op)
        b, x0 = local_array(b), local_array(x0)
        self._check_system(op, b)
        n = b.shape[0]
        x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
        with obs_event("PCSetUp"):
            self.pc.setup(op)
        with obs_event("KSPSolve"):
            return self._iterate(op, b, x)

    def _iterate(
        self,
        op: LinearOperator,
        b: np.ndarray,
        x: np.ndarray,
    ) -> KSPResult:
        dot = krylov_dot(op)
        norms: list[float] = []
        rnorm0: float | None = None
        reason = ConvergedReason.ITS
        it = 0
        sdc_restarts = 0
        # The three-term recurrence (r, z, p, rz) restarts from the current
        # iterate after any detected corruption; x itself is only advanced
        # with vectors produced by verified products, so recomputing
        # r = b - A x rolls back to the last consistent state.
        needs_restart = True
        r = z = p = None
        rz = 0.0
        while it < self.max_it:
            try:
                if needs_restart:
                    with obs_event("MatMult"):
                        ax = op.multiply(x)
                    r = b - ax
                    with obs_event("PCApply"):
                        z = self.pc.apply(r)
                    p = z.copy()
                    rz = dot(r, z)
                    needs_restart = False
                    if rnorm0 is None:
                        rnorm0 = math.sqrt(dot(r, r)) or 1.0
                        self._record(norms, 0, rnorm0)
                        early = self._converged(rnorm0, rnorm0)
                        if early is not None:
                            return KSPResult(x, early, 0, norms)
                it += 1
                with obs_event("MatMult"):
                    ap = op.multiply(p)
                pap = dot(p, ap)
                if pap <= 0.0:
                    reason = ConvergedReason.BREAKDOWN
                    break
                alpha = rz / pap
                x += alpha * p
                r -= alpha * ap
                rnorm = math.sqrt(dot(r, r))
                self._record(norms, it, rnorm)
                stop = self._converged(rnorm, rnorm0)
                if stop is not None:
                    reason = stop
                    break
                with obs_event("PCApply"):
                    z = self.pc.apply(r)
                rz_new = dot(r, z)
                if rz == 0.0:
                    # rᵀz vanished with r nonzero: the recurrence has no
                    # next direction (indefinite preconditioner).
                    reason = ConvergedReason.BREAKDOWN
                    break
                beta = rz_new / rz
                rz = rz_new
                p = z + beta * p
            except SdcDetected:
                sdc_restarts += 1
                if sdc_restarts > self.max_sdc_restarts:
                    reason = ConvergedReason.BREAKDOWN
                    break
                emit(
                    "recovered", "ksp.cg", "rollback",
                    detail=f"recurrence restart {sdc_restarts}",
                )
                needs_restart = True
        return KSPResult(x, reason, it, norms)
