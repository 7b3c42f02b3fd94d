"""Solvers: Krylov methods, preconditioners, Newton, timestepping.

The mini-PETSc solver hierarchy of the paper's Figure 1: KSP (GMRES, CG,
Richardson), PC (Jacobi, block Jacobi, geometric multigrid), SNES (Newton
with line search), and TS (theta method / Crank-Nicolson) — enough to run
the full Gray-Scott experiment stack.
The same KSP objects solve distributed systems: hand them an MPIAij and
an MPIVec.
"""

from .base import (
    ConvergedReason,
    CountingOperator,
    IdentityPC,
    KrylovBreakdown,
    KSP,
    KSPResult,
    LinearOperator,
)
from .adjoint import AdjointThetaMethod, TransposeOperator
from .cg import CG
from .gmres import GMRES
from .pc import (
    BlockJacobiPC,
    JacobiPC,
    MGPC,
    ParallelBlockJacobiPC,
    bilinear_prolongation,
    csr_matmul,
    full_weighting_restriction,
)
from .richardson import Richardson
from .snes import NewtonSolver, SNESConvergedReason, SNESResult
from .ts import StepStats, ThetaMethod, TSResult

__all__ = [
    "AdjointThetaMethod",
    "BlockJacobiPC",
    "CG",
    "ConvergedReason",
    "CountingOperator",
    "GMRES",
    "IdentityPC",
    "JacobiPC",
    "KSP",
    "KSPResult",
    "KrylovBreakdown",
    "LinearOperator",
    "MGPC",
    "NewtonSolver",
    "ParallelBlockJacobiPC",
    "Richardson",
    "SNESConvergedReason",
    "SNESResult",
    "StepStats",
    "ThetaMethod",
    "TransposeOperator",
    "TSResult",
    "bilinear_prolongation",
    "csr_matmul",
    "full_weighting_restriction",
]
