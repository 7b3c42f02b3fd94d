"""Simulated SIMD machine: ISAs, registers, an executing engine, and costs.

This package is the substitute for the Intel intrinsics layer of the paper
(see DESIGN.md, substitution table).  Kernels written against
:class:`~repro.simd.engine.SimdEngine` follow the paper's Algorithms 1 and 2
instruction for instruction; the engine performs the real lane arithmetic
with NumPy and records instruction/traffic counters that the machine models
turn into performance figures.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        ".alignment": (
            "AlignmentFault LoopDecomposition decompose_loop misalignment_elements "
            "pointer_is_aligned"
        ),
        ".cost_model": "DEFAULT_COSTS CostTable cycles",
        ".counters": "KernelCounters",
        ".engine": "SimdEngine",
        ".isa": "AVX AVX2 AVX512 ISAS SCALAR SSE2 Isa UnsupportedInstructionError get_isa",
        ".megakernel": "FusedRegion MegakernelTrace compile_megakernel",
        ".register": "LaneMismatchError MaskRegister VectorRegister",
        ".replay": "KernelTrace bind_buffers compile_trace execute_step",
        ".trace": "TraceError TraceRecorder",
        ".trace_ir": "flat_view op_reads op_writes",
    },
)
