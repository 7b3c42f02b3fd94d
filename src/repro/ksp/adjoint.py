"""Discrete adjoint of the theta method (the 'adj' in the paper's ex5adj).

The paper's test code is PETSc's ``ex5adj`` — the Gray-Scott example wired
for TSAdjoint, where every backward step solves a *transposed* linear
system with the same Jacobian the forward step assembled.
:meth:`Mat.multiply_transpose <repro.mat.base.Mat.multiply_transpose>`
exists exactly for this; this module closes the loop with the backward
sweep itself.

For the theta step ``G(w_{n+1}, w_n) = (w_{n+1} - w_n)/dt
- [theta f(w_{n+1}) + (1-theta) f(w_n)] = 0`` the sensitivity of a terminal
cost ``Psi(w_N)`` propagates backwards as

    A_n^T mu = lambda_{n+1},        A_n = I/dt - theta J(w_{n+1})
    lambda_n = B_n^T mu,            B_n = I/dt + (1-theta) J(w_n)

so each backward step is one transposed Krylov solve plus one transposed
matvec — the classic adjoint structure.  ``lambda_0`` is the gradient of
``Psi`` with respect to the initial state; a finite-difference test pins it
down on the Gray-Scott problem itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..mat.base import Mat
from .base import KSP
from .ts import TSResult


class TransposeOperator:
    """Present ``A^T`` as an operator without materializing the transpose.

    Applies :meth:`Mat.multiply_transpose
    <repro.mat.base.Mat.multiply_transpose>` — the MatMultTranspose path a
    transposed Krylov solve uses, with the same bits for every format.
    """

    def __init__(self, inner: Mat):
        self.inner = inner

    @property
    def shape(self) -> tuple[int, int]:
        m, n = self.inner.shape
        return (n, m)

    def multiply(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        return self.inner.multiply_transpose(x, y)

    def diagonal(self) -> np.ndarray:
        """The diagonal is transpose-invariant."""
        return self.inner.diagonal()

    def to_csr(self):
        """Materialize A^T only when a PC setup explicitly needs it."""
        return self.inner.to_csr().transpose()


@dataclass
class AdjointThetaMethod:
    """Backward (adjoint) sweep matching a forward theta-method run.

    Parameters mirror :class:`repro.ksp.ts.ThetaMethod`; the ``jacobian``
    callback must be the same ``(w, shift, scale) -> Mat`` hook, and
    ``operator_wrapper`` converts each assembled Jacobian to the format
    under study before its transpose is applied — SELL adjoints run on
    the SELL matrix's own transpose product.
    """

    jacobian: Callable[[np.ndarray, float, float], Mat]
    ksp_factory: Callable[[], KSP]
    operator_wrapper: Callable[[Mat], Mat] | None = None
    theta: float = 0.5
    dt: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if self.dt <= 0.0:
            raise ValueError("time step must be positive")

    def _wrap(self, mat: Mat) -> Mat:
        return self.operator_wrapper(mat) if self.operator_wrapper else mat

    def step_adjoint(
        self, w_n: np.ndarray, w_np1: np.ndarray, lam: np.ndarray
    ) -> np.ndarray:
        """Propagate the adjoint across one stored forward step."""
        inv_dt = 1.0 / self.dt
        # A = I/dt - theta J(w_{n+1}): solve A^T mu = lambda.
        a = self._wrap(self.jacobian(w_np1, inv_dt, -self.theta))
        ksp = self.ksp_factory()
        result = ksp.solve(TransposeOperator(a), lam)
        if not result.reason.converged:
            raise RuntimeError(
                f"adjoint linear solve failed: {result.reason.value}"
            )
        mu = result.x
        # lambda_n = B^T mu with B = I/dt + (1-theta) J(w_n).
        b = self._wrap(self.jacobian(w_n, inv_dt, 1.0 - self.theta))
        return TransposeOperator(b).multiply(mu)

    def integrate_adjoint(
        self, forward: TSResult, terminal_gradient: np.ndarray
    ) -> np.ndarray:
        """Sweep backwards over a stored trajectory.

        Parameters
        ----------
        forward:
            A :class:`~repro.ksp.ts.TSResult` integrated with
            ``keep_states=True`` (the checkpointed trajectory TSAdjoint
            would store; the memkind discussion of paper Section 3.4 —
            checkpoints in DRAM, computation in MCDRAM — is about exactly
            these states).
        terminal_gradient:
            dPsi/dw at the final state.

        Returns
        -------
        ndarray
            ``lambda_0 = dPsi/dw_0``.
        """
        states = forward.states
        if len(states) < 2:
            raise ValueError("need a trajectory with at least one step")
        lam = np.array(terminal_gradient, dtype=np.float64)
        if lam.shape != states[-1].shape:
            raise ValueError("terminal gradient does not conform to the state")
        for n in range(len(states) - 2, -1, -1):
            lam = self.step_adjoint(states[n], states[n + 1], lam)
        return lam
