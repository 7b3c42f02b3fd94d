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
from .trace_ir import flat_view, op_reads, op_writes


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


def record_kernel(recorder: TraceRecorder, kernel, *args) -> KernelTrace:
    """Run ``kernel(recorder, *args)`` and compile the captured trace."""
    kernel(recorder, *args)
    return compile_trace(recorder)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def _finalize_operand(kind: str, values) -> tuple:
    """Pack one register-operand column: ids to int array, consts stacked."""
    if kind == "r":
        return ("r", np.asarray(values, dtype=np.int64))
    return ("k", np.stack(values))


def compile_trace(recorder: TraceRecorder) -> KernelTrace:
    """Level-schedule and batch a recorded trace (see module docstring)."""
    ops = recorder.ops
    lanes = recorder.lanes
    nbuf = len(recorder.buffers)
    reg_lvl = [0] * max(recorder.nregs, 1)
    s_lvl = [0] * max(recorder.nscalars, 1)
    cell_w: list[dict[int, int]] = [dict() for _ in range(nbuf)]
    read_max = [0] * nbuf
    # (level, kind, ...) -> operand rows of one batched step.  Dicts keep
    # insertion order, which orders the steps of one level.
    groups: dict[tuple, list[tuple]] = {}

    def put(key: tuple, row: tuple) -> None:
        rows = groups.get(key)
        if rows is None:
            groups[key] = [row]
        else:
            rows.append(row)

    def rop_lvl(op) -> int:
        return reg_lvl[op[1]] if op[0] == "r" else 0

    def sop_lvl(op) -> int:
        return s_lvl[op[1]] if op is not None and op[0] == "s" else 0

    def read_lvl(op, b: int) -> int:
        """Level of a load from buffer ``b``: above the last store to its cells."""
        lvl = 1
        cw = cell_w[b]
        if cw:  # a buffer nothing has stored to has no hazard to decode
            ((_, cells),) = op_reads(op, lanes)
            lvl += max((cw.get(c, 0) for c in cells.tolist()), default=0)
        if lvl > read_max[b]:
            read_max[b] = lvl
        return lvl

    def write_lvl(op, b: int, base: int) -> int:
        """Level of a store: above every prior read of ``b`` and store to its cells."""
        ((_, cells),) = op_writes(op, lanes)
        cells = cells.tolist()
        cw = cell_w[b]
        lvl = max(base, read_max[b], *(cw.get(c, 0) for c in cells)) + 1
        for c in cells:
            cw[c] = lvl
        return lvl

    for op in ops:
        kind = op[0]
        if kind == "vload":
            _, dst, b, off = op
            lvl = reg_lvl[dst] = read_lvl(op, b)
            put((lvl, "vload", b), (dst, off))
        elif kind == "gather":
            _, dst, b, idx = op
            lvl = reg_lvl[dst] = read_lvl(op, b)
            put((lvl, "gather", b), (dst, idx))
        elif kind == "fmadd":
            _, dst, a, bb, c = op
            lvl = reg_lvl[dst] = max(rop_lvl(a), rop_lvl(bb), rop_lvl(c)) + 1
            put((lvl, "fmadd", a[0], bb[0], c[0]), (dst, a[1], bb[1], c[1]))
        elif kind == "vload_prefix":
            _, dst, b, off, active = op
            lvl = reg_lvl[dst] = read_lvl(op, b)
            put((lvl, "vload_prefix", b), (dst, off, active))
        elif kind == "gather_mask":
            _, dst, b, idx, bits = op
            lvl = reg_lvl[dst] = read_lvl(op, b)
            put((lvl, "gather_mask", b), (dst, idx, bits))
        elif kind == "fmadd_mask":
            _, dst, a, bb, c, bits = op
            lvl = reg_lvl[dst] = max(rop_lvl(a), rop_lvl(bb), rop_lvl(c)) + 1
            put(
                (lvl, "fmadd_mask", a[0], bb[0], c[0]),
                (dst, a[1], bb[1], c[1], bits),
            )
        elif kind in ("mul", "add"):
            _, dst, a, bb = op
            lvl = reg_lvl[dst] = max(rop_lvl(a), rop_lvl(bb)) + 1
            put((lvl, kind, a[0], bb[0]), (dst, a[1], bb[1]))
        elif kind == "sfma":
            _, dst, a, bb, c = op
            lvl = s_lvl[dst] = max(sop_lvl(a), sop_lvl(bb), sop_lvl(c)) + 1
            put((lvl, "sfma", a[0], bb[0], c[0]), (dst, a[1], bb[1], c[1]))
        elif kind == "sload":
            _, dst, b, off = op
            lvl = s_lvl[dst] = read_lvl(op, b)
            put((lvl, "sload", b), (dst, off))
        elif kind == "sstore":
            _, b, off, val = op
            lvl = write_lvl(op, b, sop_lvl(val))
            put((lvl, "sstore", b, val[0]), (off, val[1]))
        elif kind == "vstore":
            _, b, off, src = op
            lvl = write_lvl(op, b, rop_lvl(src))
            put((lvl, "vstore", b, src[0]), (off, src[1]))
        elif kind == "vstore_mask":
            _, b, off, src, bits = op
            lvl = write_lvl(op, b, rop_lvl(src))
            put((lvl, "vstore_mask", b, src[0]), (off, src[1], bits))
        elif kind == "reduce":
            _, dst, src, base = op
            lvl = s_lvl[dst] = max(rop_lvl(src), sop_lvl(base)) + 1
            if base is None:
                put((lvl, "reduce", src[0], "none"), (dst, src[1], None))
            else:
                put((lvl, "reduce", src[0], base[0]), (dst, src[1], base[1]))
        elif kind == "reduce_sel":
            _, dst, src, sel = op
            lvl = s_lvl[dst] = rop_lvl(src) + 1
            put((lvl, "reduce_sel", src[0], sel), (dst, src[1]))
        elif kind == "extract":
            _, dst, src, lane = op
            lvl = s_lvl[dst] = rop_lvl(src) + 1
            put((lvl, "extract", src[0]), (dst, src[1], lane))
        elif kind == "setzero":
            _, dst = op
            reg_lvl[dst] = 1
            put((1, "setzero"), (dst,))
        elif kind == "set1":
            _, dst, val = op
            lvl = reg_lvl[dst] = sop_lvl(val) + 1
            put((lvl, "set1", val[0]), (dst, val[1]))
        elif kind == "blend":
            _, dst, src, bits = op
            lvl = reg_lvl[dst] = rop_lvl(src) + 1
            put((lvl, "blend", src[0]), (dst, src[1], bits))
        elif kind == "lane_add":
            _, dst, src, lane, val = op
            lvl = reg_lvl[dst] = max(rop_lvl(src), sop_lvl(val)) + 1
            put((lvl, "lane_add", src[0], val[0]), (dst, src[1], lane, val[1]))
        elif kind == "scatter":
            _, b, idx, src, bits = op
            lvl = write_lvl(op, b, rop_lvl(src))
            if lvl > read_max[b]:  # scatter-add reads its cells too
                read_max[b] = lvl
            # Scatters stay one-per-step (the group count is a fresh
            # nonce): np.add.at resolves duplicate lanes in order, which
            # batching across ops could reorder.
            put((lvl, "scatter", b, src[0], len(groups)), (idx, src[1], bits))
        else:  # pragma: no cover - recorder and compiler move together
            raise TraceError(f"unknown trace op {kind!r}")

    return KernelTrace(
        lanes=lanes,
        nregs=recorder.nregs,
        nscalars=recorder.nscalars,
        steps=_finalize(groups),
        buffers=recorder.buffers,
        counters=recorder.counters.copy(),
        nops=len(ops),
    )


def _ids(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _finalize(groups: dict[tuple, list[tuple]]) -> list:
    """Pack accumulated groups into executable steps, level-ordered."""
    steps = []
    for key, rows in sorted(groups.items(), key=lambda kv: kv[0][0]):
        kind = key[1]
        k = key[1:]  # drop the level
        c = list(zip(*rows))  # operand columns
        if kind == "vload":
            steps.append(("vload", k[1], _ids(c[0]), _ids(c[1])))
        elif kind == "vload_prefix":
            steps.append(
                ("vload_prefix", k[1], _ids(c[0]), _ids(c[1]), _ids(c[2]))
            )
        elif kind == "gather":
            steps.append(("gather", k[1], _ids(c[0]), np.stack(c[1])))
        elif kind == "gather_mask":
            steps.append(
                ("gather_mask", k[1], _ids(c[0]), np.stack(c[1]), np.stack(c[2]))
            )
        elif kind == "fmadd":
            steps.append(
                (
                    "fmadd",
                    _ids(c[0]),
                    _finalize_operand(k[1], c[1]),
                    _finalize_operand(k[2], c[2]),
                    _finalize_operand(k[3], c[3]),
                )
            )
        elif kind == "fmadd_mask":
            steps.append(
                (
                    "fmadd_mask",
                    _ids(c[0]),
                    _finalize_operand(k[1], c[1]),
                    _finalize_operand(k[2], c[2]),
                    _finalize_operand(k[3], c[3]),
                    np.stack(c[4]),
                )
            )
        elif kind in ("mul", "add"):
            steps.append(
                (
                    kind,
                    _ids(c[0]),
                    _finalize_operand(k[1], c[1]),
                    _finalize_operand(k[2], c[2]),
                )
            )
        elif kind == "sfma":
            steps.append(
                (
                    "sfma",
                    _ids(c[0]),
                    _finalize_scalar(k[1], c[1]),
                    _finalize_scalar(k[2], c[2]),
                    _finalize_scalar(k[3], c[3]),
                )
            )
        elif kind == "sload":
            steps.append(("sload", k[1], _ids(c[0]), _ids(c[1])))
        elif kind == "sstore":
            steps.append(
                ("sstore", k[1], _ids(c[0]), _finalize_scalar(k[2], c[1]))
            )
        elif kind == "vstore":
            steps.append(
                ("vstore", k[1], _ids(c[0]), _finalize_operand(k[2], c[1]))
            )
        elif kind == "vstore_mask":
            steps.append(
                (
                    "vstore_mask",
                    k[1],
                    _ids(c[0]),
                    _finalize_operand(k[2], c[1]),
                    np.stack(c[2]),
                )
            )
        elif kind == "reduce":
            base_kind = k[2]
            base = (
                None
                if base_kind == "none"
                else _finalize_scalar(base_kind, c[2])
            )
            steps.append(
                ("reduce", _ids(c[0]), _finalize_operand(k[1], c[1]), base)
            )
        elif kind == "reduce_sel":
            steps.append(
                ("reduce_sel", _ids(c[0]), _finalize_operand(k[1], c[1]), k[2])
            )
        elif kind == "extract":
            steps.append(
                ("extract", _ids(c[0]), _finalize_operand(k[1], c[1]), _ids(c[2]))
            )
        elif kind == "setzero":
            steps.append(("setzero", _ids(c[0])))
        elif kind == "set1":
            steps.append(("set1", _ids(c[0]), _finalize_scalar(k[1], c[1])))
        elif kind == "blend":
            steps.append(
                ("blend", _ids(c[0]), _finalize_operand(k[1], c[1]), np.stack(c[2]))
            )
        elif kind == "lane_add":
            steps.append(
                (
                    "lane_add",
                    _ids(c[0]),
                    _finalize_operand(k[1], c[1]),
                    _ids(c[2]),
                    _finalize_scalar(k[2], c[3]),
                )
            )
        elif kind == "scatter":
            steps.append(
                ("scatter", k[1], c[0][0], _finalize_operand(k[2], c[1]), c[2][0])
            )
        else:  # pragma: no cover
            raise TraceError(f"unknown group kind {kind!r}")
    return steps


def _finalize_scalar(kind: str, values) -> tuple:
    if kind == "s":
        return ("s", _ids(values))
    return ("l", np.asarray(values, dtype=np.float64))


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
    """
    kind = step[0]
    if kind == "vload":
        _, b, dsts, offs = step
        regs[dsts] = bufs[b][offs[:, None] + lane_idx]
    elif kind == "gather":
        _, b, dsts, idx2d = step
        regs[dsts] = bufs[b][idx2d]
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
    elif kind == "vstore":
        _, b, offs, src = step
        flat = (offs[:, None] + lane_idx).ravel()
        bufs[b][flat] = _reg_block(regs, src).ravel()
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
    elif kind == "gather_mask":
        _, b, dsts, idx2d, bits2d = step
        safe = np.where(bits2d, idx2d, 0)
        regs[dsts] = np.where(bits2d, bufs[b][safe], 0.0)
    elif kind == "vload_prefix":
        _, b, dsts, offs, actives = step
        valid = lane_idx[None, :] < actives[:, None]
        safe = np.where(valid, offs[:, None] + lane_idx, offs[:, None])
        regs[dsts] = np.where(valid, bufs[b][safe], 0.0)
    elif kind == "vstore_mask":
        _, b, offs, src, bits2d = step
        flat = (offs[:, None] + lane_idx)[bits2d]
        bufs[b][flat] = _reg_block(regs, src)[bits2d]
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
    elif kind == "lane_add":
        _, dsts, src, lanes_arr, vals = step
        block = _reg_block(regs, src).copy()
        block[np.arange(block.shape[0]), lanes_arr] += _scal_vec(svals, vals)
        regs[dsts] = block
    elif kind == "reduce_sel":
        _, dsts, src, sel = step
        block = _reg_block(regs, src)
        total = None
        for g in sel:
            part = np.sum(block[:, list(g)], axis=1)
            total = part if total is None else total + part
        svals[dsts] = total if total is not None else 0.0
    elif kind == "scatter":
        _, b, idx, src, bits = step
        block = _reg_block(regs, src)[0]
        if bits is None:
            np.add.at(bufs[b], idx, block)
        else:
            np.add.at(bufs[b], idx[bits], block[bits])
    else:  # pragma: no cover
        raise TraceError(f"unknown replay step {kind!r}")
