"""Simulated SIMD machine: ISAs, registers, an executing engine, and costs.

This package is the substitute for the Intel intrinsics layer of the paper
(see DESIGN.md, substitution table).  Kernels written against
:class:`~repro.simd.engine.SimdEngine` follow the paper's Algorithms 1 and 2
instruction for instruction; the engine performs the real lane arithmetic
with NumPy and records instruction/traffic counters that the machine models
turn into performance figures.
"""

from .alignment import (
    AlignmentFault,
    LoopDecomposition,
    decompose_loop,
    misalignment_elements,
    pointer_is_aligned,
)
from .cost_model import DEFAULT_COSTS, CostTable, cycles
from .counters import KernelCounters
from .engine import SimdEngine
from .isa import (
    AVX,
    AVX2,
    AVX512,
    ISAS,
    SCALAR,
    SSE2,
    Isa,
    UnsupportedInstructionError,
    get_isa,
)
from .megakernel import (
    FusedRegion,
    MegakernelTrace,
    compile_megakernel,
)
from .register import LaneMismatchError, MaskRegister, VectorRegister
from .replay import (
    KernelTrace,
    bind_buffers,
    compile_trace,
    execute_step,
)
from .trace import TraceError, TraceRecorder
from .trace_ir import (
    flat_view,
    op_reads,
    op_writes,
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
