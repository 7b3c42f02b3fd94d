"""Record/replay wiring: per-format buffer maps and variant-level helpers.

The trace layer (:mod:`repro.simd.trace` / :mod:`repro.simd.replay`)
identifies the arrays a kernel touches by *name* so a recorded trace can be
re-bound to fresh data.  Which arrays those are is a property of the
matrix *format*, so this module keeps a registry parallel to the format
converter table: :func:`register_trace_buffers` maps a format name to a
function returning the format's value-carrying float buffers.  Only float
buffers appear — column indices, slice pointers, row lengths and mask bits
are structure-derived and get baked into the trace by value.

:func:`record_trace` runs a kernel once through a
:class:`~repro.simd.trace.TraceRecorder` (returning the compiled trace
*and* that run's exact y/counters, so the recording doubles as the first
measurement), and :func:`replay_trace` executes a compiled trace against a
same-structure matrix and a new input vector.  :func:`acquire_trace` is
the trace-cache fill: record, level-schedule, fuse — one
:class:`~repro.simd.megakernel.MegakernelTrace` per structure.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..mat.base import Mat
from ..memory.spaces import aligned_alloc
from ..obs.observer import obs_counter
from ..simd import megakernel
from ..simd.counters import KernelCounters
from ..simd.replay import KernelTrace, compile_trace
from ..simd.trace import TraceError, TraceRecorder

#: format name -> fn(mat) returning the format's named value buffers.
TRACE_BUFFERS: dict[str, Callable[[Mat], dict[str, np.ndarray]]] = {}


def register_trace_buffers(*fmts: str):
    """Register a format's value-buffer map (decorator).

    The returned dict must name every float array the kernel loads matrix
    values from or stores results to, excluding ``x``/``y`` (bound by the
    harness).  A format without a registered map cannot be traced and
    falls back to interpreted execution.
    """

    def decorate(fn: Callable[[Mat], dict[str, np.ndarray]]):
        for fmt in fmts:
            TRACE_BUFFERS[fmt] = fn
        return fn

    return decorate


def trace_buffers(fmt: str, mat: Mat) -> dict[str, np.ndarray]:
    """The named value buffers of a prepared matrix, by format name."""
    fn = TRACE_BUFFERS.get(fmt)
    if fn is None:
        raise TraceError(f"format {fmt!r} has no registered trace buffers")
    return fn(mat)


@register_trace_buffers("SELL", "ESB", "CSR", "MKL", "BETA")
def _val_buffer(mat: Mat) -> dict[str, np.ndarray]:
    return {"val": mat.val}


@register_trace_buffers("CSRPerm")
def _csrperm_buffers(mat) -> dict[str, np.ndarray]:
    return {"val": mat.csr.val}


@register_trace_buffers("BAIJ")
def _baij_buffers(mat) -> dict[str, np.ndarray]:
    return {"val": mat.val}


@register_trace_buffers("ELLPACK", "ELLPACK-R")
def _ellpack_buffers(mat) -> dict[str, np.ndarray]:
    return {"val": mat.val_f}


@register_trace_buffers("HYB")
def _hybrid_buffers(mat) -> dict[str, np.ndarray]:
    return {"val": mat.ell.val_f, "coo_vals": mat.coo.vals}


def record_trace(
    variant, mat: Mat, x: np.ndarray, strict_alignment: bool = False
) -> tuple[KernelTrace, np.ndarray, KernelCounters]:
    """Record one kernel execution; return (trace, y, counters).

    ``y`` and ``counters`` come from the recording run itself — the
    recorder defers every instruction to the interpreted engine, so they
    are exactly what :meth:`KernelVariant.run` would have produced, and
    the recording serves as the first measurement for free.
    """
    # The cold-start gate counts these: a process replaying from a warm
    # on-disk plan cache must perform zero recordings.
    obs_counter("compiler.recordings")
    recorder = TraceRecorder(variant.isa, strict_alignment=strict_alignment)
    y = aligned_alloc(mat.shape[0], np.float64, 64)
    recorder.bind_buffers(trace_buffers(variant.fmt, mat))
    recorder.bind("x", x)
    recorder.bind("y", y)
    variant.kernel(recorder, mat, x, y)
    return compile_trace(recorder), y, recorder.counters


def replay_trace(
    variant,
    trace: KernelTrace | megakernel.MegakernelTrace,
    mat: Mat,
    x: np.ndarray,
) -> tuple[np.ndarray, KernelCounters]:
    """Replay a compiled program against a same-structure matrix and new x."""
    y = aligned_alloc(mat.shape[0], np.float64, 64)
    buffers = trace_buffers(variant.fmt, mat)
    buffers["x"] = x
    buffers["y"] = y
    counters = trace.replay(buffers)
    return y, counters


def acquire_trace(
    variant,
    registry,
    key: tuple,
    mat: Mat,
    x: np.ndarray,
    strict_alignment: bool = False,
) -> tuple[megakernel.MegakernelTrace, tuple[np.ndarray, KernelCounters] | None]:
    """Get the compiled program under ``key``, building it at most once.

    The fill records the kernel, level-schedules the trace
    (:func:`~repro.simd.replay.compile_trace`) and fuses it
    (:func:`~repro.simd.megakernel.compile_megakernel`); the fused
    program — zero regions when nothing chains — is the only thing
    cached.  The registry's single-flight semantics elect one leader
    among concurrent callers for an uncached structure; only the leader
    runs the fill, and it gets the recording run's exact ``(y,
    counters)`` back as the second element (the recording doubles as the
    first measurement).  Everyone else — cache hits and single-flight
    waiters alike — receives ``(program, None)`` and replays.

    ``key`` must come from
    :meth:`repro.core.registry.SignatureRegistry.trace_key` — the single
    definition of the trace cache key.  A kernel the trace layer cannot
    represent raises :class:`TraceError` out of the recording (nothing
    is cached) for the caller to fall back to interpretation.
    """
    recorded: dict[str, tuple[np.ndarray, KernelCounters]] = {}

    def fill() -> megakernel.MegakernelTrace:
        trace, y, counters = record_trace(
            variant, mat, x, strict_alignment=strict_alignment
        )
        recorded["run"] = (y, counters)
        # The cold-start gate counts these alongside recordings: a warm
        # plan cache must satisfy the fill without compiling.
        obs_counter("compiler.megakernel_compiles")
        return megakernel.compile_megakernel(trace)

    program = registry.get_or_compute("trace", key, fill)
    return program, recorded.get("run")
