"""repro — reproduction of "Vectorized Parallel Sparse Matrix-Vector
Multiplication in PETSc Using AVX-512" (Zhang, Mills, Rupp, Smith, ICPP'18).

A mini-PETSc with the paper's contribution at its center: the sliced
ELLPACK (SELL) matrix format and hand-vectorized SpMV kernels, executing on
a simulated SIMD machine (AVX / AVX2 / AVX-512) with calibrated KNL and
Xeon performance models, a simulated MPI runtime, and the full
TS -> SNES -> KSP -> PC solver stack running the paper's Gray-Scott
experiment.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
the per-figure reproduction record.

Quick start::

    from repro import ExecutionContext, gray_scott_jacobian

    ctx = ExecutionContext()                    # KNL 7230, flat MCDRAM
    csr = gray_scott_jacobian(64)               # the paper's operator
    best = ctx.best_variant(csr)                # autotuned format choice
    meas = ctx.measure(best, csr)               # run its kernel (memoized)
    perf = ctx.predict(meas, scale=1024.0)      # price it on the machine
    print(best.name, perf.gflops)
"""

from . import core, mat  # noqa: F401  (registers every format and variant)
from ._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".core": (
            "FIGURE8_VARIANTS FIGURE11_VARIANTS ExecutionContext KernelVariant SellMat "
            "SpmvMeasurement csr_traffic get_variant register_variant registered_variants "
            "sell_traffic"
        ),
        ".mat": "AijMat BaijMat MPIAij MPISell",
        ".obs": (
            "ChromeTrace EventLog LogStage MetricsRegistry Observer merge_rank_logs observing "
            "validate_trace"
        ),
        ".pde": "Grid2D GrayScottProblem gray_scott_jacobian",
        ".simd": "AVX AVX2 AVX512 SCALAR SimdEngine",
        ".vec": "MPIVec SeqVec",
    },
)

__version__ = "1.0.0"
__all__ = sorted([*__all__, "__version__"])
