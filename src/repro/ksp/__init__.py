"""Solvers: Krylov methods, preconditioners, Newton, timestepping.

The mini-PETSc solver hierarchy of the paper's Figure 1: KSP (GMRES),
PC (Jacobi, block Jacobi, geometric multigrid), SNES (Newton with line
search), and TS (theta method / Crank-Nicolson) — enough to run the full
Gray-Scott experiment stack.
The same KSP objects solve distributed systems: hand them an MPIAij and
an MPIVec.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".base": (
            "ConvergedReason CountingOperator IdentityPC KrylovBreakdown KSP KSPResult "
            "LinearOperator"
        ),
        ".gmres": "GMRES",
        ".pc": (
            "JacobiPC MGPC ParallelBlockJacobiPC bilinear_prolongation csr_matmul "
            "full_weighting_restriction"
        ),
        ".snes": "NewtonSolver SNESConvergedReason SNESResult",
        ".ts": "StepStats ThetaMethod TSResult",
    },
)
