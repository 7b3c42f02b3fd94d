"""The executing SIMD engine: issues instructions, computes, and counts.

Kernels in :mod:`repro.core` are written against this engine the way the
paper's kernels are written against Intel intrinsics: explicit loads,
gathers, FMAs, and stores on vector registers.  Every instruction does three
things:

1. **validates** — the ISA must define the instruction (AVX has no gather,
   only AVX-512 has masks), lane widths must agree, and aligned accesses
   must actually be aligned when strict checking is on;
2. **computes** — the lane arithmetic is performed with NumPy, so kernel
   results are numerically real, not symbolic;
3. **counts** — the shared :class:`~repro.simd.counters.KernelCounters`
   records the instruction class and memory traffic, which the machine model
   later prices into cycles and seconds.

The engine is deliberately *not* fast — it exists to make the instruction
stream of Algorithms 1 and 2 observable.  Solvers use
:meth:`repro.mat.base.Mat.multiply`, one SciPy path for every format;
tests assert the two paths agree.
"""

from __future__ import annotations

import numpy as np

from .alignment import AlignmentFault, pointer_is_aligned
from .counters import KernelCounters
from .isa import Isa
from .register import MaskRegister, VectorRegister, check_lanes

_F8 = 8  # bytes per double
_I4 = 4  # bytes per 32-bit index


def _address_of(buf: np.ndarray, offset: int) -> int:
    """Byte address of element ``offset`` of ``buf``."""
    return buf.ctypes.data + offset * buf.itemsize


class SimdEngine:
    """Executes the simulated instruction stream for one ISA.

    Parameters
    ----------
    isa:
        The instruction set to enforce; see :mod:`repro.simd.isa`.
    counters:
        Counter block to accumulate into.  A fresh one is created when
        omitted; it is exposed as :attr:`counters`.
    strict_alignment:
        When true, ``load_aligned``/``store_aligned`` raise
        :class:`~repro.simd.alignment.AlignmentFault` on misaligned
        addresses — modeling the 16-byte-alignment hang from Section 3.1.
        When false, misaligned aligned-ops degrade to unaligned ones (extra
        cost is attributed by the cost model via the counters).
    """

    def __init__(
        self,
        isa: Isa,
        counters: KernelCounters | None = None,
        strict_alignment: bool = False,
    ):
        self.isa = isa
        self.counters = counters if counters is not None else KernelCounters()
        self.strict_alignment = strict_alignment

    # ------------------------------------------------------------------
    # register creation
    # ------------------------------------------------------------------
    @property
    def lanes(self) -> int:
        """Double-precision lanes per register for this ISA."""
        return self.isa.lanes(_F8)

    def setzero(self) -> VectorRegister:
        """``vxorpd zmm, zmm, zmm`` — a zeroed accumulator."""
        self.counters.vector_set += 1
        return VectorRegister(np.zeros(self.lanes, dtype=np.float64))

    def set1(self, value: float) -> VectorRegister:
        """Broadcast a scalar into every lane."""
        self.counters.vector_set += 1
        return VectorRegister(np.full(self.lanes, value, dtype=np.float64))

    # ------------------------------------------------------------------
    # memory: contiguous loads and stores
    # ------------------------------------------------------------------
    def load(self, buf: np.ndarray, offset: int) -> VectorRegister:
        """Unaligned contiguous load of one register of doubles."""
        lanes = self.lanes
        data = np.array(buf[offset : offset + lanes], dtype=np.float64)
        if data.shape[0] != lanes:
            raise IndexError(
                f"vector load of {lanes} lanes at offset {offset} overruns "
                f"buffer of length {buf.shape[0]}"
            )
        self.counters.vector_load += 1
        self.counters.bytes_loaded += lanes * _F8
        return VectorRegister(data)

    def load_aligned(self, buf: np.ndarray, offset: int) -> VectorRegister:
        """Aligned contiguous load; faults or degrades when misaligned."""
        addr = _address_of(buf, offset)
        if not pointer_is_aligned(addr, self.isa.vector_bytes):
            if self.strict_alignment:
                raise AlignmentFault(
                    f"aligned {self.isa.vector_bits}-bit load at address "
                    f"0x{addr:x} (offset {offset})"
                )
            return self.load(buf, offset)
        reg = self.load(buf, offset)
        self.counters.vector_load_aligned += 1
        return reg

    def load_index(self, buf: np.ndarray, offset: int) -> VectorRegister:
        """Load one register's worth of 32-bit column indices.

        Eight (or four) int32 values occupy only half a register, matching
        ``vmovdqu`` of a 256-bit (or 128-bit) block in the real kernels.
        """
        lanes = self.lanes
        data = np.array(buf[offset : offset + lanes], dtype=np.int64)
        if data.shape[0] != lanes:
            raise IndexError(
                f"index load of {lanes} lanes at offset {offset} overruns "
                f"buffer of length {buf.shape[0]}"
            )
        self.counters.vector_load += 1
        self.counters.bytes_loaded += lanes * _I4
        return VectorRegister(data)

    def store(self, buf: np.ndarray, offset: int, reg: VectorRegister) -> None:
        """Unaligned contiguous store of one register."""
        if reg.lanes != self.lanes:
            raise ValueError("store width does not match engine lane count")
        if offset + reg.lanes > buf.shape[0]:
            raise IndexError("vector store overruns buffer")
        buf[offset : offset + reg.lanes] = reg.data
        self.counters.vector_store += 1
        self.counters.bytes_stored += reg.lanes * _F8

    def store_aligned(self, buf: np.ndarray, offset: int, reg: VectorRegister) -> None:
        """Aligned store; faults or degrades like :meth:`load_aligned`."""
        addr = _address_of(buf, offset)
        if self.strict_alignment and not pointer_is_aligned(
            addr, self.isa.vector_bytes
        ):
            raise AlignmentFault(
                f"aligned {self.isa.vector_bits}-bit store at address "
                f"0x{addr:x} (offset {offset})"
            )
        self.store(buf, offset, reg)

    def prefetch(self, buf: np.ndarray, offset: int) -> None:
        """Software prefetch hint; counted, otherwise a no-op."""
        del buf, offset
        self.counters.prefetch += 1

    # ------------------------------------------------------------------
    # memory: gathers
    # ------------------------------------------------------------------
    def gather(self, x: np.ndarray, idx: VectorRegister) -> VectorRegister:
        """``vgatherdpd`` — indexed load of one double per lane.

        Requires AVX2 or AVX-512.  Charged per lane: hardware gathers on
        every modeled microarchitecture issue one cache access per element.
        """
        self.isa.require("gather")
        lanes = check_lanes(idx)
        if lanes != self.lanes:
            raise ValueError("gather index width does not match engine lanes")
        data = x[idx.data]
        self.counters.vector_gather += 1
        self.counters.gather_lanes += lanes
        self.counters.bytes_loaded += lanes * _F8
        return VectorRegister(np.array(data, dtype=np.float64))

    def emulated_gather(self, x: np.ndarray, idx: VectorRegister) -> VectorRegister:
        """AVX-era gather emulation: scalar loads merged with inserts.

        Paper Section 5.5: "We use two SSE2 load instructions to load two
        64-bit floating point values into a packed vector and then insert
        two packed 128-bit vectors to form a 256-bit AVX vector."  For a
        4-lane register that is 4 scalar loads, 2 unpack/merge steps, and
        1 ``vinsertf128``; we count the loads as scalar loads and the merges
        as insert instructions.
        """
        lanes = check_lanes(idx)
        if lanes != self.lanes:
            raise ValueError("gather index width does not match engine lanes")
        data = np.array(x[idx.data], dtype=np.float64)
        # The emulation's scalar loads are mutually independent (unlike the
        # load-use chains of a truly scalar kernel), so they are counted —
        # and priced — separately from scalar_load.
        self.counters.emulated_gather_lanes += lanes
        self.counters.bytes_loaded += lanes * _F8
        # lanes/2 pairwise merges plus lanes/4 cross-128-bit inserts.
        self.counters.vector_insert += lanes // 2 + lanes // 4
        return VectorRegister(data)

    def gather_auto(self, x: np.ndarray, idx: VectorRegister) -> VectorRegister:
        """Use the hardware gather when the ISA has one, else the emulation."""
        if self.isa.has_gather:
            return self.gather(x, idx)
        return self.emulated_gather(x, idx)

    # ------------------------------------------------------------------
    # masks (AVX-512) and predicates (SVE)
    #
    # Both ISAs govern per-lane memory and arithmetic with a lane-mask
    # register; the execution semantics are identical, so the public
    # ``masked_*`` (AVX-512) and ``predicated_*`` (SVE) entry points
    # share one ``_lanemasked_*`` implementation and differ only in the
    # ISA feature they require.  Trace recording hooks the shared
    # implementation, which is how predicated kernels replay through the
    # existing masked trace ops unchanged.
    # ------------------------------------------------------------------
    def make_mask(self, active: int) -> MaskRegister:
        """Materialize a mask with the first ``active`` lanes set."""
        self.isa.require("masks")
        return self._prefix_mask(active)

    def whilelt(self, index: int, bound: int) -> MaskRegister:
        """``whilelt`` — SVE loop-predicate generation.

        Returns a predicate whose lane *i* is set iff ``index + i <
        bound``; the canonical SVE loop ``for (i = 0; i < n; i += VL)``
        computes its governing predicate this way each iteration, so the
        final partial vector needs no separate remainder loop.  Priced as
        one mask-setup op, the same slot AVX-512's ``kmov`` occupies in
        the cost tables.
        """
        self.isa.require("predicates")
        return self._prefix_mask(max(0, min(self.lanes, bound - index)))

    def _prefix_mask(self, active: int) -> MaskRegister:
        if not 0 <= active <= self.lanes:
            raise ValueError(f"mask population {active} out of range")
        self.counters.mask_setup += 1
        bits = np.zeros(self.lanes, dtype=bool)
        bits[:active] = True
        return MaskRegister(bits)

    def masked_load(
        self, buf: np.ndarray, offset: int, mask: MaskRegister
    ) -> VectorRegister:
        """Masked contiguous load; inactive lanes read as zero."""
        self.isa.require("masks")
        return self._lanemasked_load(buf, offset, mask)

    def predicated_load(
        self, buf: np.ndarray, offset: int, mask: MaskRegister
    ) -> VectorRegister:
        """Predicated contiguous load (``ld1d``); inactive lanes zero."""
        self.isa.require("predicates")
        return self._lanemasked_load(buf, offset, mask)

    def _lanemasked_load(
        self, buf: np.ndarray, offset: int, mask: MaskRegister
    ) -> VectorRegister:
        active = mask.popcount
        data = np.zeros(self.lanes, dtype=np.float64)
        data[: active] = buf[offset : offset + active]
        self.counters.vector_load += 1
        self.counters.masked_ops += 1
        self.counters.bytes_loaded += active * _F8
        return VectorRegister(data)

    def masked_load_index(
        self, buf: np.ndarray, offset: int, mask: MaskRegister
    ) -> VectorRegister:
        """Masked load of 32-bit indices; inactive lanes read as zero."""
        self.isa.require("masks")
        return self._lanemasked_load_index(buf, offset, mask)

    def predicated_load_index(
        self, buf: np.ndarray, offset: int, mask: MaskRegister
    ) -> VectorRegister:
        """Predicated load of 32-bit indices (``ld1w`` + unpack)."""
        self.isa.require("predicates")
        return self._lanemasked_load_index(buf, offset, mask)

    def _lanemasked_load_index(
        self, buf: np.ndarray, offset: int, mask: MaskRegister
    ) -> VectorRegister:
        active = mask.popcount
        data = np.zeros(self.lanes, dtype=np.int64)
        data[: active] = buf[offset : offset + active]
        self.counters.vector_load += 1
        self.counters.masked_ops += 1
        self.counters.bytes_loaded += active * _I4
        return VectorRegister(data)

    def masked_gather(
        self, x: np.ndarray, idx: VectorRegister, mask: MaskRegister
    ) -> VectorRegister:
        """Masked ``vgatherdpd``; inactive lanes produce zero."""
        self.isa.require("masks")
        return self._lanemasked_gather(x, idx, mask)

    def predicated_gather(
        self, x: np.ndarray, idx: VectorRegister, mask: MaskRegister
    ) -> VectorRegister:
        """Predicated gather (``ld1d`` with a vector base); zeros inactive."""
        self.isa.require("predicates")
        return self._lanemasked_gather(x, idx, mask)

    def _lanemasked_gather(
        self, x: np.ndarray, idx: VectorRegister, mask: MaskRegister
    ) -> VectorRegister:
        lanes = check_lanes(idx)
        if lanes != self.lanes:
            raise ValueError("gather index width does not match engine lanes")
        data = np.zeros(lanes, dtype=np.float64)
        bits = mask.bits
        data[bits] = x[idx.data[bits]]
        active = mask.popcount
        self.counters.vector_gather += 1
        self.counters.masked_ops += 1
        self.counters.gather_lanes += active
        self.counters.bytes_loaded += active * _F8
        return VectorRegister(data)

    def masked_store(
        self, buf: np.ndarray, offset: int, reg: VectorRegister, mask: MaskRegister
    ) -> None:
        """Masked store; only active lanes reach memory."""
        self.isa.require("masks")
        self._lanemasked_store(buf, offset, reg, mask)

    def predicated_store(
        self, buf: np.ndarray, offset: int, reg: VectorRegister, mask: MaskRegister
    ) -> None:
        """Predicated store (``st1d``); only active lanes reach memory."""
        self.isa.require("predicates")
        self._lanemasked_store(buf, offset, reg, mask)

    def _lanemasked_store(
        self, buf: np.ndarray, offset: int, reg: VectorRegister, mask: MaskRegister
    ) -> None:
        bits = mask.bits
        active = mask.popcount
        lane_index = np.nonzero(bits)[0]
        buf[offset + lane_index] = reg.data[bits]
        self.counters.vector_store += 1
        self.counters.masked_ops += 1
        self.counters.bytes_stored += active * _F8

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def fmadd(
        self, a: VectorRegister, b: VectorRegister, c: VectorRegister
    ) -> VectorRegister:
        """``vfmadd231pd`` — returns ``a*b + c``.  Requires FMA."""
        self.isa.require("fma")
        lanes = check_lanes(a, b, c)
        self.counters.vector_fmadd += 1
        self.counters.flops += 2 * lanes
        return VectorRegister(a.data * b.data + c.data)

    def masked_fmadd(
        self,
        a: VectorRegister,
        b: VectorRegister,
        c: VectorRegister,
        mask: MaskRegister,
    ) -> VectorRegister:
        """Masked FMA: inactive lanes pass ``c`` through unchanged."""
        self.isa.require("masks")
        return self._lanemasked_fmadd(a, b, c, mask)

    def predicated_fmadd(
        self,
        a: VectorRegister,
        b: VectorRegister,
        c: VectorRegister,
        mask: MaskRegister,
    ) -> VectorRegister:
        """Predicated FMA (``fmla`` under a governing predicate)."""
        self.isa.require("predicates")
        return self._lanemasked_fmadd(a, b, c, mask)

    def _lanemasked_fmadd(
        self,
        a: VectorRegister,
        b: VectorRegister,
        c: VectorRegister,
        mask: MaskRegister,
    ) -> VectorRegister:
        lanes = check_lanes(a, b, c)
        out = c.data.copy()
        bits = mask.bits
        out[bits] = a.data[bits] * b.data[bits] + c.data[bits]
        self.counters.vector_fmadd += 1
        self.counters.masked_ops += 1
        self.counters.flops += 2 * mask.popcount
        del lanes
        return VectorRegister(out)

    def mul(self, a: VectorRegister, b: VectorRegister) -> VectorRegister:
        """``vmulpd`` — elementwise product."""
        lanes = check_lanes(a, b)
        self.counters.vector_mul += 1
        self.counters.flops += lanes
        return VectorRegister(a.data * b.data)

    def add(self, a: VectorRegister, b: VectorRegister) -> VectorRegister:
        """``vaddpd`` — elementwise sum."""
        lanes = check_lanes(a, b)
        self.counters.vector_add += 1
        self.counters.flops += lanes
        return VectorRegister(a.data + b.data)

    def mul_add(
        self, a: VectorRegister, b: VectorRegister, c: VectorRegister
    ) -> VectorRegister:
        """Separate multiply + add, the AVX substitute for FMA.

        Paper Section 7.2 speculates this separation helps on KNL because
        the multiply of iteration *i* does not wait on the add of *i-1*;
        the cost model implements that through shorter dependency chains.
        """
        return self.add(self.mul(a, b), c)

    def fmadd_auto(
        self, a: VectorRegister, b: VectorRegister, c: VectorRegister
    ) -> VectorRegister:
        """FMA when available, else multiply + add."""
        if self.isa.has_fma:
            return self.fmadd(a, b, c)
        return self.mul_add(a, b, c)

    def reduce_add(self, reg: VectorRegister, base: float = 0.0) -> float:
        """Horizontal sum of all lanes (log2(lanes) shuffle+add steps).

        The lanes-1 adds are charged to ``reduction_flops``, not ``flops``:
        they are auxiliary arithmetic the kernel structure imposes, not
        useful SpMV work (PETSc's flop logging counts 2 per nonzero only).

        ``base`` folds a running scalar total into the result (the
        ``total += reduce`` idiom of the CSR remainder paths); passing it
        through the instruction keeps the scalar dataflow visible to the
        trace recorder.  A literal 0.0 base reproduces the plain sum
        bit-for-bit.
        """
        self.counters.vector_reduce += 1
        self.counters.reduction_flops += max(reg.lanes - 1, 0)
        s = float(np.sum(reg.data))
        if type(base) is float and base == 0.0:
            return s
        return base + s

    def extract_lane(self, reg: VectorRegister, lane: int) -> float:
        """Read one lane of a register into a scalar (``vpextrq``-style).

        Free in the counter model, as the raw ``reg.data[lane]`` access it
        replaces was; it exists so lane extraction stays inside the
        instruction stream for the trace recorder.
        """
        return float(reg.data[lane])

    def blend_zero(self, reg: VectorRegister, mask: MaskRegister) -> VectorRegister:
        """Zero the inactive lanes of a register (a vblend against zero).

        Counted nowhere, matching the register-manipulation idiom it
        replaces; the surrounding kernel charges its own mask overhead.
        """
        return VectorRegister(np.where(mask.bits, reg.data, 0.0))

    def lane_add(
        self, reg: VectorRegister, lane: int, value: float
    ) -> VectorRegister:
        """Accumulate a scalar into one lane, returning a new register.

        The in-register merge of a scalar remainder contribution (the BAIJ
        odd-block tail); free in the counter model like the data copy it
        replaces.
        """
        data = reg.data.copy()
        data[lane] += value
        return VectorRegister(data)

    def reduce_select(
        self, reg: VectorRegister, groups: tuple[tuple[int, ...], ...]
    ) -> float:
        """Sum selected lane groups: ``sum_g(sum(reg[g]))`` in group order.

        The pairwise horizontal reduction of the BAIJ kernel expressed as
        one instruction-stream op.  Each group is summed with NumPy's
        reduction and the group sums are added left to right, reproducing
        ``data[0::4].sum() + data[1::4].sum()`` exactly.  Counted nowhere;
        callers charge the shuffle/add sequence themselves as before.
        """
        total: float | None = None
        for g in groups:
            part = float(np.sum(reg.data[list(g)]))
            total = part if total is None else total + part
        return float(total) if total is not None else 0.0

    # ------------------------------------------------------------------
    # scalar fallback (remainder loops, novec builds)
    # ------------------------------------------------------------------
    def scalar_load(self, buf: np.ndarray, offset: int) -> float:
        """Scalar ``movsd`` load."""
        self.counters.scalar_load += 1
        self.counters.bytes_loaded += buf.itemsize
        return buf[offset]

    def scalar_store(self, buf: np.ndarray, offset: int, value: float) -> None:
        """Scalar ``movsd`` store."""
        buf[offset] = value
        self.counters.scalar_store += 1
        self.counters.bytes_stored += buf.itemsize

    def scalar_fma(self, a: float, b: float, c: float) -> float:
        """Scalar multiply-accumulate; two flops."""
        self.counters.scalar_fma += 1
        self.counters.flops += 2
        return a * b + c

    # -- independent scalar ops (vectorized-kernel remainder tails) -----
    def scalar_load_indep(self, buf: np.ndarray, offset: int) -> float:
        """Scalar load issued in a short tail between vector bodies.

        Same data movement as :meth:`scalar_load`, but counted separately:
        these loads are not part of a loop-carried dependency chain, so a
        cost table for an out-of-order core can price them below the fully
        serialized loads of the novec kernel (in-order KNL stalls on both;
        see the calibrated tables in :mod:`repro.machine.perf_model`).
        """
        self.counters.scalar_load_indep += 1
        self.counters.bytes_loaded += buf.itemsize
        return buf[offset]

    def scalar_fma_indep(self, a: float, b: float, c: float) -> float:
        """Scalar multiply-accumulate in a short independent tail."""
        self.counters.scalar_fma_indep += 1
        self.counters.flops += 2
        return a * b + c

    # ------------------------------------------------------------------
    # scatters (AVX-512 only; used by the transpose SpMV kernels)
    # ------------------------------------------------------------------
    def scatter_add(
        self, buf: np.ndarray, idx: "VectorRegister", reg: "VectorRegister"
    ) -> None:
        """``vscatterdpd`` with accumulate: buf[idx] += reg, per lane.

        AVX-512 introduced hardware scatter (Section 2.6 lists "more
        efficient scatter-gather" among its additions); like the gather,
        it decomposes into per-lane cache accesses.  Duplicate indices
        within one register accumulate in lane order, matching how a
        real kernel would have to resolve the conflict (AVX-512 CD's
        vpconflictd loop).
        """
        self.isa.require("masks")  # scatter arrived with AVX-512
        lanes = check_lanes(idx, reg)
        if lanes != self.lanes:
            raise ValueError("scatter width does not match engine lanes")
        np.add.at(buf, idx.data, reg.data)
        self.counters.vector_scatter += 1
        self.counters.scatter_lanes += lanes
        self.counters.bytes_stored += lanes * _F8

    def masked_scatter_add(
        self,
        buf: np.ndarray,
        idx: "VectorRegister",
        reg: "VectorRegister",
        mask: "MaskRegister",
    ) -> None:
        """Masked scatter-accumulate: only active lanes reach memory."""
        self.isa.require("masks")
        lanes = check_lanes(idx, reg)
        if lanes != self.lanes:
            raise ValueError("scatter width does not match engine lanes")
        bits = mask.bits
        np.add.at(buf, idx.data[bits], reg.data[bits])
        active = mask.popcount
        self.counters.vector_scatter += 1
        self.counters.masked_ops += 1
        self.counters.scatter_lanes += active
        self.counters.bytes_stored += active * _F8
