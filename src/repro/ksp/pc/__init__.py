"""Preconditioners: Jacobi, parallel block Jacobi, multigrid."""

from ..._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".bjacobi": "ParallelBlockJacobiPC",
        ".jacobi": "JacobiPC",
        ".mg": "MGLevel MGPC bilinear_prolongation csr_matmul full_weighting_restriction",
    },
)
