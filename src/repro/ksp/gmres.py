"""Restarted GMRES with left preconditioning — the paper's Krylov method.

Every linear system in the experiments is solved with GMRES (Section 7:
"The linear system is solved with the GMRES Krylov subspace method").
This is the textbook Saad implementation PETSc defaults to: Arnoldi with
modified Gram-Schmidt, Givens rotations maintaining the least-squares
residual incrementally, restart length 30, left preconditioning with the
preconditioned residual norm as the convergence quantity.
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
    KrylovBreakdown,
    KSPResult,
    LinearOperator,
    krylov_dot,
    local_array,
)


@dataclass
class GMRES(KSP):
    """GMRES(restart) with a pluggable preconditioner."""

    restart: int = 30
    pc: object = field(default_factory=IdentityPC)

    def solve(
        self,
        op: LinearOperator,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> KSPResult:
        """Solve A x = b from ``x0`` (zero when omitted).

        A distributed operator takes an MPIVec ``b`` (and ``x0``) and
        returns this rank's block of ``x``.
        """
        op = self._resolve_operator(op)
        b, x0 = local_array(b), local_array(x0)
        self._check_system(op, b)
        if self.restart < 1:
            raise ValueError("restart length must be positive")
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
        n = b.shape[0]
        dot = krylov_dot(op)
        norms: list[float] = []
        total_it = 0
        reason = ConvergedReason.ITS
        rnorm0: float | None = None
        sdc_restarts = 0

        while total_it < self.max_it:
            # The iterate x only changes at the end of a cycle, so a
            # corruption detected anywhere inside one (SdcDetected from an
            # ABFT-wrapped operator) can simply abandon the cycle: x is
            # still the last verified iterate, and the retry recomputes the
            # residual from it.  The injector's call counters advanced, so
            # a scheduled fault never re-fires on the retry.
            try:
                # (Preconditioned) initial residual for this cycle.
                with obs_event("MatMult"):
                    ax = op.multiply(x)
                r = b - ax
                with obs_event("PCApply"):
                    z = self.pc.apply(r)
                beta = math.sqrt(dot(z, z))
                if rnorm0 is None:
                    rnorm0 = beta if beta > 0 else 1.0
                    self._record(norms, 0, beta)
                    early = self._converged(beta, rnorm0)
                    if early is not None:
                        return KSPResult(x, early, 0, norms)

                if beta == 0.0:
                    reason = ConvergedReason.ATOL
                    break

                m = self.restart
                v = np.zeros((m + 1, n))
                h = np.zeros((m + 1, m))
                cs = np.zeros(m)
                sn = np.zeros(m)
                g = np.zeros(m + 1)
                v[0] = z / beta
                g[0] = beta
                k_used = 0

                cycle_reason: ConvergedReason | None = None
                for k in range(m):
                    if total_it >= self.max_it:
                        break
                    with obs_event("MatMult"):
                        av = op.multiply(v[k])
                    with obs_event("PCApply"):
                        w = self.pc.apply(av)
                    # Modified Gram-Schmidt.
                    for i in range(k + 1):
                        h[i, k] = dot(w, v[i])
                        w -= h[i, k] * v[i]
                    h[k + 1, k] = math.sqrt(dot(w, w))
                    if h[k + 1, k] <= 1e-300:
                        # Happy breakdown: exact solution in the current space.
                        k_used = k + 1
                        total_it += 1
                        g_k = abs(_apply_givens(h, g, cs, sn, k))
                        self._record(norms, total_it, g_k)
                        cycle_reason = (
                            self._converged(g_k, rnorm0) or ConvergedReason.ATOL
                        )
                        break
                    v[k + 1] = w / h[k + 1, k]
                    rnorm = abs(_apply_givens(h, g, cs, sn, k))
                    k_used = k + 1
                    total_it += 1
                    self._record(norms, total_it, rnorm)
                    cycle_reason = self._converged(rnorm, rnorm0)
                    if cycle_reason is not None:
                        break

                # Solve the k_used x k_used triangular system and update x.
                if k_used > 0:
                    y = _back_substitute(h, g, k_used)
                    x += v[:k_used].T @ y

                if cycle_reason is not None:
                    reason = cycle_reason
                    break
            except SdcDetected:
                sdc_restarts += 1
                if sdc_restarts > self.max_sdc_restarts:
                    reason = ConvergedReason.BREAKDOWN
                    break
                emit(
                    "recovered", "ksp.gmres", "rollback",
                    detail=f"cycle retry {sdc_restarts}",
                )
            except KrylovBreakdown:
                reason = ConvergedReason.BREAKDOWN
                break

        return KSPResult(x, reason, total_it, norms)


def _apply_givens(
    h: np.ndarray, g: np.ndarray, cs: np.ndarray, sn: np.ndarray, k: int
) -> float:
    """Apply previous rotations to column k, create the new one.

    Returns the updated residual estimate ``g[k+1]``.
    """
    for i in range(k):
        temp = cs[i] * h[i, k] + sn[i] * h[i + 1, k]
        h[i + 1, k] = -sn[i] * h[i, k] + cs[i] * h[i + 1, k]
        h[i, k] = temp
    denom = np.hypot(h[k, k], h[k + 1, k])
    if denom == 0.0:
        raise KrylovBreakdown(
            f"zero Givens denominator at Krylov column {k}"
        )
    cs[k] = h[k, k] / denom
    sn[k] = h[k + 1, k] / denom
    h[k, k] = cs[k] * h[k, k] + sn[k] * h[k + 1, k]
    h[k + 1, k] = 0.0
    g[k + 1] = -sn[k] * g[k]
    g[k] = cs[k] * g[k]
    return float(g[k + 1])


def _back_substitute(h: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """Solve the upper-triangular H[:k,:k] y = g[:k]."""
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - h[i, i + 1 : k] @ y[i + 1 : k]) / h[i, i]
    return y
