"""Preconditioners: Jacobi, (parallel) block Jacobi, multigrid."""

from .bjacobi import BlockJacobiPC, ParallelBlockJacobiPC
from .jacobi import JacobiPC
from .mg import (
    MGLevel,
    MGPC,
    bilinear_prolongation,
    csr_matmul,
    full_weighting_restriction,
)

__all__ = [
    "BlockJacobiPC",
    "JacobiPC",
    "MGLevel",
    "MGPC",
    "ParallelBlockJacobiPC",
    "bilinear_prolongation",
    "csr_matmul",
    "full_weighting_restriction",
]
