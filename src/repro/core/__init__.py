"""The paper's contribution: SELL format, vectorized kernels, traffic model.

Everything the paper adds to PETSc lives here: the sliced-ELLPACK matrix
(:class:`~repro.core.sell.SellMat`), the hand-vectorized SpMV kernels for
CSR (Algorithm 1) and SELL (Algorithm 2) across AVX/AVX2/AVX-512, the
Section 6 memory-traffic model, the kernel-variant registry (the figure
legends plus the ESB, BAIJ and BETA ablations), and the
:class:`ExecutionContext` the benchmarks drive.
"""

from . import dispatch  # noqa: F401  (registers the variants)
from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".context": "ExecutionContext",
        ".esb": "EsbMat",
        ".kernels_baij": "simd_efficiency spmv_baij",
        ".dispatch": (
            "ALL_VARIANTS BAIJ_AVX512 CSR_AVX CSR_AVX2 CSR_AVX512 CSR_BASELINE CSR_NOVEC CSR_PERM "
            "ESB_AVX512 FIGURE11_VARIANTS FIGURE8_VARIANTS MKL_CSR SELL_AVX SELL_AVX2 SELL_AVX512 "
            "SELL_NOVEC KernelVariant get_variant register_variant registered_variants"
        ),
        ".kernels_csr": "spmv_csr_compiler spmv_csr_perm spmv_csr_scalar spmv_csr_vectorized",
        ".kernels_mkl": "MKL_EFFICIENCY spmv_csr_mkl",
        ".kernels_sell": "spmv_sell spmv_sell_esb",
        ".registry": "SignatureRegistry",
        ".sell": "SellMat",
        ".spmv": "SpmvMeasurement",
        ".traffic": (
            "TrafficEstimate csr_traffic gray_scott_intensity largest_grid_with_32bit_indices "
            "sell_traffic traffic_for"
        ),
    },
)
