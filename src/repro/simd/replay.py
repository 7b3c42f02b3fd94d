"""Trace compilation and batched replay.

:func:`compile_trace` turns the linear instruction trace captured by
:class:`~repro.simd.trace.TraceRecorder` into a :class:`KernelTrace`: a
short program of *batched* steps.  The scheduling model is a dependency
levelling:

* every op gets a **level**, one more than the deepest of its inputs —
  register/scalar producers, plus memory hazards (a load of a cell sits
  above the last store to that cell; a store sits above every prior read
  of its buffer and the last store to its cells);
* ops at one level are mutually independent, so all ops of the same
  *kind* (same opcode, same buffer, same operand shape) at one level
  collapse into a single NumPy call over a ``(k, lanes)`` block.

For the SpMV kernels this recovers exactly the structure the formats were
designed around: the FMA chains of all SELL strips advance in lockstep
(level = position in the chain), so a trace of ``O(nnz/lanes)``
interpreted instructions replays in ``O(max_row_length)`` batched steps.
Loads become one fancy-index per level, gathers one ``x[idx2d]``, FMAs one
fused array expression — each arithmetic op still performed element-wise
on the same operands in the same order, so replayed results are
**bit-identical** to the interpreted engine's.

Counters are not re-derived at replay: the instruction mix is a pure
function of the sparsity structure, so the recorded
:class:`~repro.simd.counters.KernelCounters` are returned as-is (a copy).

:meth:`KernelTrace.replay` executes a compiled trace against fresh
buffers — same structure, new values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counters import KernelCounters
from .trace import BufferSlot, TraceError, TraceRecorder
from .trace_ir import STEP_LAYOUT, flat_view, lane_addresses


@dataclass
class KernelTrace:
    """A compiled, replayable instruction stream for one sparsity structure.

    ``steps`` is the batched program (level-ordered); ``buffers`` the
    binding table (named slots re-bind at replay, const slots carry frozen
    structure-derived data); ``counters`` the instruction mix recorded at
    capture time, valid for every replay of the same structure.
    """

    lanes: int
    nregs: int
    nscalars: int
    steps: list = field(repr=False)
    buffers: list[BufferSlot] = field(repr=False)
    counters: KernelCounters = field(repr=False)
    nops: int = 0  #: interpreted instructions the recording executed

    @property
    def nsteps(self) -> int:
        """Batched NumPy steps per replay (vs ``nops`` interpreted ops)."""
        return len(self.steps)

    @property
    def named_buffers(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.buffers if s.is_named)

    def replay(self, buffers: dict[str, np.ndarray]) -> KernelCounters:
        """Execute the trace against fresh named buffers.

        Output buffers (``y``) are written in place; the recorded counter
        block is returned as a copy.
        """
        bufs = bind_buffers(self.buffers, buffers)
        regs = np.zeros((self.nregs, self.lanes), dtype=np.float64)
        svals = np.zeros(max(self.nscalars, 1), dtype=np.float64)
        lane_idx = np.arange(self.lanes, dtype=np.int64)
        for step in self.steps:
            execute_step(step, bufs, regs, svals, lane_idx)
        return self.counters.copy()


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def compile_trace(recorder: TraceRecorder) -> KernelTrace:
    """Level-schedule and batch a recorded trace (see module docstring).

    A full recording is a one-unit tiling: it compiles through the same
    scheduler as a program tiled from per-shape templates
    (:mod:`repro.simd.tiling`).
    """
    from .tiling import Tiling

    return Tiling.whole(recorder).compile()


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def bind_buffers(
    slots: list[BufferSlot], buffers: dict[str, np.ndarray]
) -> list[np.ndarray]:
    """Resolve a trace's buffer table against fresh named arrays.

    Shared by :meth:`KernelTrace.replay` and the megakernel tier
    (:mod:`repro.simd.megakernel`): const slots carry their frozen
    structure snapshots, named slots re-bind to same-shape arrays.
    """
    bound: list[np.ndarray] = []
    for slot in slots:
        if not slot.is_named:
            bound.append(slot.const)
            continue
        arr = buffers.get(slot.name)
        if arr is None:
            raise TraceError(f"replay is missing buffer {slot.name!r}")
        arr = flat_view(arr, slot.name)
        if arr.nbytes != slot.nbytes or arr.dtype.str != slot.dtype:
            raise TraceError(
                f"buffer {slot.name!r} does not match the recording "
                f"({arr.nbytes}B {arr.dtype} vs {slot.nbytes}B "
                f"{np.dtype(slot.dtype)}); traces are valid only for "
                "matrices sharing the recorded sparsity structure"
            )
        bound.append(arr)
    return bound


def _reg_block(regs: np.ndarray, opnd):
    kind, payload = opnd
    return regs[payload] if kind == "r" else payload


def _scal_vec(svals: np.ndarray, opnd):
    kind, payload = opnd
    return svals[payload] if kind == "s" else payload


def execute_step(step, bufs, regs, svals, lane_idx) -> None:
    """Execute one batched step against the replay machine state.

    The single definition of step semantics: :meth:`KernelTrace.replay` runs
    every step through here, and the megakernel executor
    (:mod:`repro.simd.megakernel`) uses it for the plain steps between
    fused regions — the two tiers can never drift on what a step means.
    Vector loads, gathers and vector stores take their lanes' cells from
    :func:`~repro.simd.trace_ir.lane_addresses`; a load's dead lanes
    read 0.0 and a store's dead lanes are left untouched.
    """
    kind = step[0]
    lay = STEP_LAYOUT[kind]
    if lay.rdef and lay.buf is not None:  # vector loads and gathers
        addr, live = lane_addresses(step, lay, lane_idx)
        vals = bufs[step[lay.buf]][addr]
        regs[step[lay.rdef[0]]] = vals if live is None else np.where(live, vals, 0.0)
    elif lay.store and lay.extent:  # vector stores
        addr, live = lane_addresses(step, lay, lane_idx)
        vals = _reg_block(regs, step[lay.ruse[0]])
        if live is None:
            bufs[step[lay.buf]][addr.ravel()] = vals.ravel()
        else:
            bufs[step[lay.buf]][addr[live]] = vals[live]
    elif kind == "fmadd":
        _, dsts, a, bb, c = step
        regs[dsts] = (
            _reg_block(regs, a) * _reg_block(regs, bb) + _reg_block(regs, c)
        )
    elif kind == "sfma":
        _, dsts, a, bb, c = step
        svals[dsts] = (
            _scal_vec(svals, a) * _scal_vec(svals, bb) + _scal_vec(svals, c)
        )
    elif kind == "sload":
        _, b, dsts, offs = step
        svals[dsts] = bufs[b][offs]
    elif kind == "sstore":
        _, b, offs, vals = step
        bufs[b][offs] = _scal_vec(svals, vals)
    elif kind == "reduce":
        _, dsts, src, base = step
        sums = np.sum(_reg_block(regs, src), axis=1)
        svals[dsts] = sums if base is None else _scal_vec(svals, base) + sums
    elif kind == "extract":
        _, dsts, src, lanes_arr = step
        block = _reg_block(regs, src)
        svals[dsts] = block[np.arange(block.shape[0]), lanes_arr]
    elif kind == "fmadd_mask":
        _, dsts, a, bb, c = step[:5]
        bits2d = step[5]
        cblk = _reg_block(regs, c)
        regs[dsts] = np.where(
            bits2d, _reg_block(regs, a) * _reg_block(regs, bb) + cblk, cblk
        )
    elif kind in ("mul", "add"):
        _, dsts, a, bb = step
        if kind == "mul":
            regs[dsts] = _reg_block(regs, a) * _reg_block(regs, bb)
        else:
            regs[dsts] = _reg_block(regs, a) + _reg_block(regs, bb)
    elif kind == "setzero":
        regs[step[1]] = 0.0
    elif kind == "set1":
        _, dsts, vals = step
        regs[dsts] = _scal_vec(svals, vals)[:, None]
    elif kind == "blend":
        _, dsts, src, bits2d = step
        regs[dsts] = np.where(bits2d, _reg_block(regs, src), 0.0)
    elif kind == "reduce_sel":
        _, dsts, src, sel = step
        block = _reg_block(regs, src)
        total = None
        for g in sel:
            part = np.sum(block[:, list(g)], axis=1)
            total = part if total is None else total + part
        svals[dsts] = total if total is not None else 0.0
    else:  # pragma: no cover
        raise TraceError(f"unknown replay step {kind!r}")
