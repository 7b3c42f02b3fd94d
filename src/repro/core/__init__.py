"""The paper's contribution: SELL format, vectorized kernels, traffic model.

Everything the paper adds to PETSc lives here: the sliced-ELLPACK matrix
(:class:`~repro.core.sell.SellMat`), the hand-vectorized SpMV kernels for
CSR (Algorithm 1) and SELL (Algorithm 2) across AVX/AVX2/AVX-512, the
Section 6 memory-traffic model, the kernel-variant registry matching the
figure legends, and the measure/predict API the benchmarks drive.
"""

from .analytic import (
    counters_match,
    predict_csr_counters,
    predict_sell_counters,
)
from .autotune import TuneCandidate, TuneResult, tune_sell
from .context import ExecutionContext
from .esb import EsbMat
from .kernels_baij import simd_efficiency, spmv_baij
from .dispatch import (
    ALL_VARIANTS,
    BAIJ_AVX512,
    CSR_AVX,
    CSR_AVX2,
    CSR_AVX512,
    CSR_BASELINE,
    CSR_NOVEC,
    CSR_PERM,
    ELLPACK_AVX512,
    ELLPACK_R_AVX512,
    ESB_AVX512,
    FIGURE11_VARIANTS,
    FIGURE8_VARIANTS,
    HYBRID_AVX512,
    MKL_CSR,
    SELL_AVX,
    SELL_AVX2,
    SELL_AVX512,
    SELL_NOVEC,
    KernelVariant,
    get_variant,
    register_variant,
    registered_variants,
)
from .kernels_csr import (
    spmv_csr_compiler,
    spmv_csr_perm,
    spmv_csr_scalar,
    spmv_csr_vectorized,
)
from .kernels_ellpack import spmv_ellpack, spmv_ellpack_r, spmv_hybrid
from .kernels_mkl import MKL_EFFICIENCY, spmv_csr_mkl
from .kernels_sell import spmv_sell, spmv_sell_esb
from .registry import SignatureRegistry
from .sell import SellMat
from .spmv import SpmvMeasurement, measure, predict
from .transpose import (
    csr_multiply_transpose,
    sell_multiply_transpose,
    spmv_csr_transpose,
    spmv_sell_transpose,
)
from .triangular import (
    SellILU0PC,
    SellTriangular,
    ilu0,
    level_schedule,
    solve_sell_triangular,
)
from .traffic import (
    TrafficEstimate,
    csr_traffic,
    gray_scott_intensity,
    largest_grid_with_32bit_indices,
    sell_traffic,
    traffic_for,
)

__all__ = [
    "ALL_VARIANTS",
    "BAIJ_AVX512",
    "EsbMat",
    "CSR_AVX",
    "CSR_AVX2",
    "CSR_AVX512",
    "CSR_BASELINE",
    "CSR_NOVEC",
    "CSR_PERM",
    "ELLPACK_AVX512",
    "ELLPACK_R_AVX512",
    "ESB_AVX512",
    "ExecutionContext",
    "FIGURE11_VARIANTS",
    "FIGURE8_VARIANTS",
    "HYBRID_AVX512",
    "KernelVariant",
    "MKL_CSR",
    "MKL_EFFICIENCY",
    "SELL_AVX",
    "SELL_AVX2",
    "SELL_AVX512",
    "SELL_NOVEC",
    "SellILU0PC",
    "SellMat",
    "SignatureRegistry",
    "SellTriangular",
    "SpmvMeasurement",
    "TuneCandidate",
    "TuneResult",
    "TrafficEstimate",
    "counters_match",
    "csr_multiply_transpose",
    "csr_traffic",
    "get_variant",
    "gray_scott_intensity",
    "ilu0",
    "largest_grid_with_32bit_indices",
    "level_schedule",
    "measure",
    "predict_csr_counters",
    "predict_sell_counters",
    "predict",
    "register_variant",
    "registered_variants",
    "sell_multiply_transpose",
    "sell_traffic",
    "solve_sell_triangular",
    "simd_efficiency",
    "spmv_baij",
    "spmv_ellpack",
    "spmv_ellpack_r",
    "spmv_hybrid",
    "spmv_csr_compiler",
    "spmv_csr_transpose",
    "spmv_csr_mkl",
    "spmv_csr_perm",
    "spmv_csr_scalar",
    "spmv_csr_vectorized",
    "spmv_sell",
    "spmv_sell_esb",
    "spmv_sell_transpose",
    "traffic_for",
    "tune_sell",
]
