#!/usr/bin/env python
"""Adjoint sensitivity of the Gray-Scott pattern — the 'adj' in ex5adj.

The paper's test code is PETSc's adjoint tutorial: after the forward
Crank-Nicolson run, a backward sweep of *transposed* solves computes the
gradient of a terminal cost with respect to the initial state in one pass
(versus one forward solve per input for finite differences).  Every
backward step applies the transposed Jacobian — the MatMultTranspose
kernels this library implements for both CSR and SELL.

This example:
1. integrates Gray-Scott forward, storing the trajectory (the checkpoints
   of paper Section 3.4's DRAM-vs-MCDRAM discussion);
2. runs the adjoint sweep for Psi = mean inhibitor concentration at the
   final time, with the Jacobians converted to SELL;
3. verifies two directional derivatives against central finite
   differences;
4. prints a -log_view-style event summary showing where the time went.

Run:  python examples/adjoint_sensitivity.py
"""

import numpy as np

from repro import Grid2D, GrayScottProblem, SellMat
from repro.ksp import GMRES, JacobiPC, ThetaMethod
from repro.ksp.adjoint import AdjointThetaMethod
from repro.obs import EventLog

GRID = 12
STEPS = 3

log = EventLog()


def main() -> None:
    grid = Grid2D(GRID, GRID, dof=2)
    problem = GrayScottProblem(grid)
    n = grid.ndof

    def ksp_factory():
        return GMRES(pc=JacobiPC(), rtol=1e-12)

    ts = ThetaMethod(
        rhs=problem.rhs,
        jacobian=problem.jacobian,
        ksp_factory=ksp_factory,
        dt=1.0,
        snes_rtol=1e-12,
    )
    w0 = problem.initial_state()

    with log.event("TSSolve (forward)"):
        forward = ts.integrate(w0, STEPS)
    print(f"forward: {STEPS} steps, {forward.total_newton_iterations} Newton "
          f"/ {forward.total_linear_iterations} Krylov iterations, "
          f"{len(forward.states)} checkpointed states")

    # Psi(w) = mean of the inhibitor component v.
    grad_terminal = np.zeros(n)
    grad_terminal[1::2] = 1.0 / (n // 2)

    adjoint = AdjointThetaMethod(
        jacobian=problem.jacobian,
        ksp_factory=ksp_factory,
        dt=1.0,
        operator_wrapper=lambda m: SellMat.from_csr(m.to_csr(), 8),
    )
    with log.event("TSAdjointSolve (backward)"):
        lam0 = adjoint.integrate_adjoint(forward, grad_terminal)
    print(f"adjoint gradient: |lambda_0| = {np.linalg.norm(lam0):.3e} "
          f"(one backward sweep vs {n} forward runs for FD)")

    def psi(w):
        return float(ts.integrate(w, STEPS).final_state[1::2].mean())

    rng = np.random.default_rng(1)
    print("\nfinite-difference verification (central, eps=1e-6):")
    for trial in range(2):
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        eps = 1e-6
        with log.event("FD verification"):
            fd = (psi(w0 + eps * d) - psi(w0 - eps * d)) / (2 * eps)
        adj = float(lam0 @ d)
        print(f"  direction {trial}: adjoint {adj:+.8e}  fd {fd:+.8e}  "
              f"rel.err {abs(adj - fd) / max(abs(fd), 1e-30):.1e}")
        assert abs(adj - fd) / max(abs(fd), 1e-30) < 1e-4

    print()
    print(log.render())


if __name__ == "__main__":
    main()
