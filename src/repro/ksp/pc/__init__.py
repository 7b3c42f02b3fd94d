"""Preconditioners: Jacobi, (parallel) block Jacobi, SOR, Chebyshev, ILU(0), multigrid."""

from .bjacobi import BlockJacobiPC, ParallelBlockJacobiPC
from .chebyshev import ChebyshevPC, estimate_lambda_max
from .ilu import ILU0PC
from .jacobi import JacobiPC
from .mg import (
    MGLevel,
    MGPC,
    bilinear_prolongation,
    csr_matmul,
    full_weighting_restriction,
)
from .sor import SORPC

__all__ = [
    "BlockJacobiPC",
    "ChebyshevPC",
    "ILU0PC",
    "JacobiPC",
    "MGLevel",
    "MGPC",
    "ParallelBlockJacobiPC",
    "SORPC",
    "bilinear_prolongation",
    "csr_matmul",
    "estimate_lambda_max",
    "full_weighting_restriction",
]
