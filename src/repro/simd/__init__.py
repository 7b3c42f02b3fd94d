"""Simulated SIMD machine: ISAs, registers, an executing engine, and costs.

This package is the substitute for the Intel intrinsics layer of the paper
(see DESIGN.md, substitution table).  Kernels written against
:class:`~repro.simd.engine.SimdEngine` follow the paper's Algorithms 1 and 2
instruction for instruction; the engine performs the real lane arithmetic
with NumPy and records instruction/traffic counters that the machine models
turn into performance figures.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(
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

__all__ = [
    "AVX",
    "AVX2",
    "AVX512",
    "AlignmentFault",
    "CostTable",
    "DEFAULT_COSTS",
    "FusedRegion",
    "ISAS",
    "Isa",
    "KernelCounters",
    "KernelTrace",
    "LaneMismatchError",
    "LoopDecomposition",
    "MaskRegister",
    "MegakernelTrace",
    "SCALAR",
    "SSE2",
    "SimdEngine",
    "TraceError",
    "TraceRecorder",
    "UnsupportedInstructionError",
    "VectorRegister",
    "bind_buffers",
    "compile_megakernel",
    "compile_trace",
    "cycles",
    "decompose_loop",
    "execute_step",
    "flat_view",
    "get_isa",
    "misalignment_elements",
    "op_reads",
    "op_writes",
    "pointer_is_aligned",
]
