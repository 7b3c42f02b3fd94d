"""Trace recording: capture one kernel execution as a replayable program.

The interpreted :class:`~repro.simd.engine.SimdEngine` pays one Python
method dispatch per simulated instruction — the honesty that makes the
instruction stream observable, and the reason a single ``measure()`` of a
512^2-class operator takes seconds.  The paper's own Section 7.1
observation rescues us: for a fixed sparsity structure the per-row
instruction mix never changes, so the stream only needs to be *recorded
once per structure* and can then be *replayed* against fresh value/input
arrays without re-interpreting the kernel.

:class:`TraceRecorder` is a drop-in engine (same instruction API, same
counters, same numerics — every op defers to :class:`SimdEngine` for the
validate/compute/count work) that additionally appends each instruction to
a linear trace.  The trace separates three kinds of data:

* **structure-derived values** — column indices, gather index registers,
  mask bit patterns, loop trip counts.  These are identical for every
  matrix sharing the sparsity signature, so they are baked into the trace
  *by value*; replay never recomputes an index load.
* **float dataflow** — matrix values, input/output vectors, accumulator
  registers, and scalar running totals.  These change between replays, so
  the trace records *provenance*: registers carry a register id
  (:class:`TracedRegister`), scalars carry a slot id (:class:`TracedFloat`,
  a ``float`` subclass that flows through kernel arithmetic untouched).
* **buffers** — arrays the kernel loads from / stores to.  Buffers bound
  by name before recording (matrix values, indices, ``x``, ``y``) are
  re-bound to fresh arrays at replay; any unbound *read-only* array the
  kernel touches is snapshotted into the trace as a constant (these are
  structure-derived temporaries, e.g. AIJPERM's float copy of the column
  indices).  Stores to unbound buffers, snapshotted ones included, are an
  error — a replay could not see them.  The recorder holds every array it
  has resolved until it is discarded, so a freed temporary's address is
  never reused within one recording.

The recorded linear trace is compiled into batched NumPy steps by
:mod:`repro.simd.tiling`; see there for the scheduling model, and
:mod:`repro.simd.replay` for the steps' semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import KernelCounters
from .engine import SimdEngine
from .isa import Isa
from .register import MaskRegister, VectorRegister
from .trace_ir import TraceError, flat_view


_UNBOUND_STORE = (
    "store to an unbound buffer; bind every output buffer before recording"
)


class TracedRegister(VectorRegister):
    """A float vector register with a trace id (its SSA name).

    Built only by the recorder, around lane data the engine produced and
    validated, so construction does not re-check it.
    """

    __slots__ = ("rid",)

    def __init__(self, data: np.ndarray, rid: int):
        self._data = data
        self.rid = rid


class TracedFloat(float):
    """A scalar with a trace slot id, flowing through kernels as a float."""

    __slots__ = ("sid",)

    def __new__(cls, value: float, sid: int) -> "TracedFloat":
        self = super().__new__(cls, value)
        self.sid = sid
        return self


@dataclass
class BufferSlot:
    """One array the traced kernel touched.

    ``name`` is set for buffers bound before recording (re-bound at
    replay); ``const`` holds a frozen, read-only snapshot for unbound
    read-only arrays (structure-derived temporaries).
    """

    index: int
    name: str | None
    nbytes: int
    dtype: str
    const: np.ndarray | None = None

    @property
    def is_named(self) -> bool:
        return self.name is not None


class TraceRecorder(SimdEngine):
    """An executing engine that also records a replayable trace.

    Run the kernel once through this engine (after :meth:`bind`-ing the
    kernel's named buffers), then hand the recorder to
    :func:`repro.simd.replay.compile_trace`.  Numerics and counters are
    exactly the interpreted engine's — every instruction defers to
    ``super()`` before recording.
    """

    def __init__(
        self,
        isa: Isa,
        counters: KernelCounters | None = None,
        strict_alignment: bool = False,
    ):
        super().__init__(isa, counters=counters, strict_alignment=strict_alignment)
        self.ops: list[tuple] = []
        self.buffers: list[BufferSlot] = []
        self._buf_index: dict[tuple[int, int, str], int] = {}
        # id(array) -> (array, slot).  Holding the array keeps its id and
        # its memory from being reused by a later temporary for as long
        # as the recorder lives, so an identity hit is always right.
        self._by_id: dict[int, tuple[np.ndarray, int]] = {}
        self.nregs = 0
        self.nscalars = 0
        # Side metadata for the static analyzer; replay ignores both.
        # ``aligned_ops``: indices of ops recorded through the aligned
        # load/store entry points (their offsets carry an alignment
        # contract).  ``emulated_ops``: indices of "gather" ops that came
        # from the scalar emulation rather than a hardware gather.
        self.aligned_ops: set[int] = set()
        self.emulated_ops: set[int] = set()

    # ------------------------------------------------------------------
    # buffer binding
    # ------------------------------------------------------------------
    def bind(self, name: str, buf: np.ndarray) -> None:
        """Register a named buffer replays will re-bind to fresh arrays.

        Buffers are addressed flat; a multi-dimensional array is accepted
        when its flat view shares storage (C-contiguous).  Fortran-order
        storage must be bound through its flat Fortran view, matching how
        the kernels address it.
        """
        buf = flat_view(buf, name)
        key = self._buf_key(buf)
        if key in self._buf_index:
            slot = self.buffers[self._buf_index[key]]
            if slot.name != name:
                raise TraceError(
                    f"buffer already bound as {slot.name!r}, rebinding as {name!r}"
                )
            return
        self._add_slot(key, buf, name, None)

    def bind_buffers(self, buffers: dict[str, np.ndarray]) -> None:
        """Bind several named buffers at once."""
        for name, buf in buffers.items():
            self.bind(name, buf)

    @staticmethod
    def _buf_key(buf: np.ndarray) -> tuple[int, int, str]:
        # Identity by (address, size, dtype) for an array not yet seen by
        # object identity: a full flat view of a bound buffer
        # (``val.reshape(-1)``) resolves to the same slot.
        return (buf.ctypes.data, buf.nbytes, buf.dtype.str)

    def _add_slot(
        self,
        key: tuple[int, int, str],
        buf: np.ndarray,
        name: str | None,
        const: np.ndarray | None,
    ) -> int:
        slot = BufferSlot(
            index=len(self.buffers),
            name=name,
            nbytes=buf.nbytes,
            dtype=buf.dtype.str,
            const=const,
        )
        self._buf_index[key] = slot.index
        self._by_id[id(buf)] = (buf, slot.index)
        self.buffers.append(slot)
        return slot.index

    def _buf(self, buf: np.ndarray, writing: bool = False) -> int:
        hit = self._by_id.get(id(buf))
        idx = hit[1] if hit is not None else self._resolve(buf, writing)
        # A snapshot replays as a constant: a store into one would land in
        # the cached program, not in any buffer a caller sees.
        if writing and self.buffers[idx].name is None:
            raise TraceError(_UNBOUND_STORE)
        return idx

    def _resolve(self, buf: np.ndarray, writing: bool) -> int:
        """The slot of an array not yet seen by identity."""
        key = self._buf_key(buf)
        idx = self._buf_index.get(key)
        if idx is not None:
            self._by_id[id(buf)] = (buf, idx)
            return idx
        if writing:
            raise TraceError(_UNBOUND_STORE)
        # Unbound read-only array: freeze a snapshot.  These arise only
        # from structure-derived temporaries, which are identical for
        # every matrix sharing the trace's sparsity signature.
        const = np.array(buf, copy=True)
        const.flags.writeable = False
        return self._add_slot(key, buf, None, const)

    # ------------------------------------------------------------------
    # provenance helpers
    # ------------------------------------------------------------------
    def _new_reg(self, reg: VectorRegister) -> TracedRegister:
        out = TracedRegister(reg._data, self.nregs)
        self.nregs += 1
        return out

    def _new_scalar(self, value: float) -> TracedFloat:
        out = TracedFloat(value, self.nscalars)
        self.nscalars += 1
        return out

    @staticmethod
    def _rop(reg: VectorRegister) -> tuple:
        """Register operand: traced id, or a frozen constant payload."""
        if isinstance(reg, TracedRegister):
            return ("r", reg.rid)
        return ("k", np.array(reg.data, dtype=np.float64, copy=True))

    @staticmethod
    def _sop(value: float) -> tuple:
        """Scalar operand: traced slot, or a literal."""
        if isinstance(value, TracedFloat):
            return ("s", value.sid)
        return ("l", float(value))

    @staticmethod
    def _idx_of(idx: VectorRegister) -> np.ndarray:
        """Gather indices are structure-derived: bake them by value."""
        return np.array(idx.data, dtype=np.int64, copy=True)

    # ------------------------------------------------------------------
    # register creation
    # ------------------------------------------------------------------
    def setzero(self) -> VectorRegister:
        reg = self._new_reg(super().setzero())
        self.ops.append(("setzero", reg.rid))
        return reg

    def set1(self, value: float) -> VectorRegister:
        reg = self._new_reg(super().set1(float(value)))
        self.ops.append(("set1", reg.rid, self._sop(value)))
        return reg

    # ------------------------------------------------------------------
    # memory: loads and stores
    # ------------------------------------------------------------------
    def load(self, buf: np.ndarray, offset: int) -> VectorRegister:
        reg = self._new_reg(super().load(buf, offset))
        self.ops.append(("vload", reg.rid, self._buf(buf), int(offset)))
        return reg

    # gather_auto/fmadd_auto/mul_add dispatch through the overridden
    # primitives, so they need no overrides here.  load_aligned and
    # store_aligned also dispatch through load/store; they are wrapped
    # only to tag the recorded ops with the alignment contract.

    def load_aligned(self, buf: np.ndarray, offset: int) -> VectorRegister:
        start = len(self.ops)
        reg = super().load_aligned(buf, offset)
        self.aligned_ops.update(range(start, len(self.ops)))
        return reg

    def store_aligned(self, buf: np.ndarray, offset: int, reg: VectorRegister) -> None:
        start = len(self.ops)
        super().store_aligned(buf, offset, reg)
        self.aligned_ops.update(range(start, len(self.ops)))

    def load_index(self, buf: np.ndarray, offset: int) -> VectorRegister:
        # Index contents are structure-derived; the consuming gather bakes
        # them by value, so the load itself needs no replay op.
        return super().load_index(buf, offset)

    def store(self, buf: np.ndarray, offset: int, reg: VectorRegister) -> None:
        super().store(buf, offset, reg)
        self.ops.append(("vstore", self._buf(buf, writing=True), int(offset), self._rop(reg)))

    # Masked (AVX-512) and predicated (SVE) memory ops share their
    # ``_lanemasked_*`` implementation in the engine; recording hooks
    # that shared level, so a predicated kernel emits exactly the trace
    # ops a masked kernel would — replay, fusion, and the analyzers need
    # no SVE-specific cases.  The recorded mask/predicate bit patterns
    # are structure-derived, baked by value like gather indices.
    #
    # An all-true mask/predicate is canonicalized to the *unmasked* op
    # kind: the semantics are identical (every lane live), and the
    # canonical form is what downstream structure miners understand —
    # the megakernel fuser keeps its lockstep layout (slab views, store
    # absorption) for unmasked ``fmadd`` chains only, so a
    # ``whilelt``-predicated SVE kernel whose full strips kept their
    # all-true predicates would fall back to the slower ragged layout
    # with a ``where=`` mask on every level.  Partial masks are recorded
    # faithfully; the interpreted execution (via ``super()``) is
    # untouched either way.

    def _all_lanes(self, mask: MaskRegister) -> bool:
        return mask.popcount == self.lanes

    def _lanemasked_load(
        self, buf: np.ndarray, offset: int, mask: MaskRegister
    ) -> VectorRegister:
        reg = self._new_reg(super()._lanemasked_load(buf, offset, mask))
        if self._all_lanes(mask):
            self.ops.append(("vload", reg.rid, self._buf(buf), int(offset)))
        else:
            self.ops.append(
                ("vload_prefix", reg.rid, self._buf(buf), int(offset), mask.popcount)
            )
        return reg

    # _lanemasked_load_index needs no override: index contents are
    # structure-derived, so like load_index the op is counted but not
    # recorded (the consuming gather bakes the indices by value).

    def _lanemasked_store(
        self, buf: np.ndarray, offset: int, reg: VectorRegister, mask: MaskRegister
    ) -> None:
        super()._lanemasked_store(buf, offset, reg, mask)
        if self._all_lanes(mask):
            self.ops.append(
                ("vstore", self._buf(buf, writing=True), int(offset), self._rop(reg))
            )
        else:
            self.ops.append(
                (
                    "vstore_mask",
                    self._buf(buf, writing=True),
                    int(offset),
                    self._rop(reg),
                    mask.bits,
                )
            )

    # ------------------------------------------------------------------
    # gathers
    # ------------------------------------------------------------------
    def gather(self, x: np.ndarray, idx: VectorRegister) -> VectorRegister:
        reg = self._new_reg(super().gather(x, idx))
        self.ops.append(("gather", reg.rid, self._buf(x), self._idx_of(idx)))
        return reg

    def emulated_gather(self, x: np.ndarray, idx: VectorRegister) -> VectorRegister:
        reg = self._new_reg(super().emulated_gather(x, idx))
        self.ops.append(("gather", reg.rid, self._buf(x), self._idx_of(idx)))
        self.emulated_ops.add(len(self.ops) - 1)
        return reg

    def _lanemasked_gather(
        self, x: np.ndarray, idx: VectorRegister, mask: MaskRegister
    ) -> VectorRegister:
        reg = self._new_reg(super()._lanemasked_gather(x, idx, mask))
        if self._all_lanes(mask):
            self.ops.append(("gather", reg.rid, self._buf(x), self._idx_of(idx)))
        else:
            self.ops.append(
                ("gather_mask", reg.rid, self._buf(x), self._idx_of(idx), mask.bits)
            )
        return reg

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def fmadd(
        self, a: VectorRegister, b: VectorRegister, c: VectorRegister
    ) -> VectorRegister:
        reg = self._new_reg(super().fmadd(a, b, c))
        self.ops.append(
            ("fmadd", reg.rid, self._rop(a), self._rop(b), self._rop(c))
        )
        return reg

    def _lanemasked_fmadd(
        self,
        a: VectorRegister,
        b: VectorRegister,
        c: VectorRegister,
        mask: MaskRegister,
    ) -> VectorRegister:
        reg = self._new_reg(super()._lanemasked_fmadd(a, b, c, mask))
        if self._all_lanes(mask):
            self.ops.append(
                ("fmadd", reg.rid, self._rop(a), self._rop(b), self._rop(c))
            )
        else:
            self.ops.append(
                (
                    "fmadd_mask",
                    reg.rid,
                    self._rop(a),
                    self._rop(b),
                    self._rop(c),
                    mask.bits,
                )
            )
        return reg

    def mul(self, a: VectorRegister, b: VectorRegister) -> VectorRegister:
        reg = self._new_reg(super().mul(a, b))
        self.ops.append(("mul", reg.rid, self._rop(a), self._rop(b)))
        return reg

    def add(self, a: VectorRegister, b: VectorRegister) -> VectorRegister:
        reg = self._new_reg(super().add(a, b))
        self.ops.append(("add", reg.rid, self._rop(a), self._rop(b)))
        return reg

    def reduce_add(self, reg: VectorRegister, base: float = 0.0) -> float:
        if type(base) is float and base == 0.0:
            base_op = None
            result = super().reduce_add(reg)
        else:
            base_op = self._sop(base)
            result = super().reduce_add(reg, base)
        out = self._new_scalar(result)
        self.ops.append(("reduce", out.sid, self._rop(reg), base_op))
        return out

    def extract_lane(self, reg: VectorRegister, lane: int) -> float:
        out = self._new_scalar(super().extract_lane(reg, lane))
        self.ops.append(("extract", out.sid, self._rop(reg), int(lane)))
        return out

    def blend_zero(self, reg: VectorRegister, mask: MaskRegister) -> VectorRegister:
        out = self._new_reg(super().blend_zero(reg, mask))
        self.ops.append(("blend", out.rid, self._rop(reg), mask.bits))
        return out

    def reduce_select(
        self, reg: VectorRegister, groups: tuple[tuple[int, ...], ...]
    ) -> float:
        out = self._new_scalar(super().reduce_select(reg, groups))
        self.ops.append(
            ("reduce_sel", out.sid, self._rop(reg), tuple(tuple(g) for g in groups))
        )
        return out

    # ------------------------------------------------------------------
    # scalar ops
    # ------------------------------------------------------------------
    def scalar_load(self, buf: np.ndarray, offset: int) -> float:
        value = super().scalar_load(buf, offset)
        if buf.dtype.kind != "f":
            # Integer loads (column indices, COO coordinates, mask bytes)
            # are structure-derived control flow: baked, not replayed.
            return value
        out = self._new_scalar(float(value))
        self.ops.append(("sload", out.sid, self._buf(buf), int(offset)))
        return out

    def scalar_load_indep(self, buf: np.ndarray, offset: int) -> float:
        value = super().scalar_load_indep(buf, offset)
        if buf.dtype.kind != "f":
            return value
        out = self._new_scalar(float(value))
        self.ops.append(("sload", out.sid, self._buf(buf), int(offset)))
        return out

    def scalar_store(self, buf: np.ndarray, offset: int, value: float) -> None:
        super().scalar_store(buf, offset, value)
        self.ops.append(
            ("sstore", self._buf(buf, writing=True), int(offset), self._sop(value))
        )

    def scalar_fma(self, a: float, b: float, c: float) -> float:
        out = self._new_scalar(super().scalar_fma(a, b, c))
        self.ops.append(
            ("sfma", out.sid, self._sop(a), self._sop(b), self._sop(c))
        )
        return out

    def scalar_fma_indep(self, a: float, b: float, c: float) -> float:
        out = self._new_scalar(super().scalar_fma_indep(a, b, c))
        self.ops.append(
            ("sfma", out.sid, self._sop(a), self._sop(b), self._sop(c))
        )
        return out
