"""PDE layer: grids, stencils, the Gray-Scott problem, matrix gallery."""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".grayscott": "GrayScott GrayScottProblem",
        ".grid": "Grid2D",
        ".parallel_grayscott": "DistributedGrayScott ParallelThetaMethod StripDecomposition",
        ".problems": (
            "gray_scott_jacobian irregular_rows laplacian_2d nine_point_2d random_sparse "
            "spd_laplacian tridiagonal"
        ),
        ".stencil": "FIVE_POINT apply_laplacian laplacian_csr nine_point_laplacian_csr",
    },
)
