"""Memory-system models: alignment, bandwidth curves, cache mode.

The substitute for KNL's MCDRAM/DRAM hierarchy (DESIGN.md substitution
table): real aligned allocation, plus calibrated
bandwidth-versus-process-count curves that reproduce the paper's Figure 4
STREAM measurements and feed the SpMV performance model.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".bandwidth": (
            "FIGURE4_CURVES FIGURE4_PROCESS_COUNTS KNL_CACHE_AVX512 KNL_CACHE_NOVEC KNL_FLAT_DRAM "
            "KNL_FLAT_MCDRAM_AVX512 KNL_FLAT_MCDRAM_NOVEC BandwidthCurve sustained_fraction"
        ),
        ".cache": "DirectMappedCache",
        ".spaces": "aligned_alloc misaligned_alloc",
        ".stream": "StreamResult figure4_series run_all triad",
    },
)
