"""Pricing of simulated instruction streams into core cycles.

The engine (:mod:`repro.simd.engine`) records *what* a kernel executed; this
module prices *how long* that stream keeps one core busy.  A
:class:`CostTable` assigns an effective reciprocal-throughput cost, in core
cycles, to each counter class.  Machine models
(:mod:`repro.machine.perf_model`) own the calibrated tables per
microarchitecture and ISA; this module only defines the pricing rule and a
neutral default used by unit tests.

Two cost entries deserve explanation because they carry the paper's two most
interesting observations:

``gather_lane``
    Hardware gathers on KNL (and, less severely, on the Xeons) decompose
    into one cache access per lane, so their cost scales with the lane
    count.  This is why doubling the vector width does *not* halve SpMV
    time: the gather of the input vector is charged per element regardless.

``emulated_gather_lane`` vs ``gather_lane``
    The AVX kernels have no hardware gather and emulate it with scalar
    loads merged by inserts (paper Section 5.5).  On KNL the hardware
    gather is microcoded at roughly one lane per cycle, while the
    emulation's independent scalar loads dual-issue on the two load ports
    — which is why the calibrated KNL table prices emulated lanes *below*
    hardware-gather lanes, reproducing the paper's observation that the
    AVX kernels keep pace with (CSR: outperform) their AVX2 counterparts.

``sload`` / ``sfma`` and their ``_indep`` variants
    Scalar memory operations stall KNL's in-order pipeline for several
    cycles whether or not they sit on a loop-carried chain; both families
    calibrate to 5-8 cycles there.  They exist as separate counters so the
    out-of-order Xeon table can distinguish them (an OOO core hides
    independent tail scalars under the vector body).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .counters import KernelCounters


@dataclass(frozen=True)
class CostTable:
    """Effective per-instruction costs in core cycles.

    All values are effective reciprocal throughputs for the instruction
    *class* as it appears in the SpMV kernels — i.e. they already fold in
    typical dependency and port-pressure effects for that class, which is
    why a single number per class is adequate for shape-level reproduction.
    """

    vload: float = 1.0            #: full-width vector load
    vload_aligned_discount: float = 0.0  #: subtracted again for aligned loads
    vstore: float = 1.0
    gather_base: float = 2.0      #: fixed gather issue cost
    gather_lane: float = 1.0      #: per-lane gather cost
    emulated_gather_lane: float = 1.0  #: per-lane cost of the AVX emulation
    # Price the kept (always 0) scatter counters; see KernelCounters.
    scatter_base: float = 2.0     #: fixed scatter issue cost (AVX-512)
    scatter_lane: float = 1.0     #: per-lane scatter cost
    fma: float = 1.0
    mul: float = 0.5
    add: float = 0.5
    insert: float = 1.0
    vset: float = 0.5
    reduce: float = 3.0           #: horizontal add (shuffle chain)
    mask_setup: float = 2.0       #: k-register materialization
    mask_penalty: float = 1.0     #: extra cost per masked instruction
    prefetch: float = 0.25
    sload: float = 1.0
    sstore: float = 1.0
    sfma: float = 2.0             #: scalar multiply + add pair
    sload_indep: float = 1.0      #: tail scalar load (no carried chain)
    sfma_indep: float = 1.0       #: tail scalar multiply-accumulate
    peel: float = 2.0             #: per peel-loop iteration
    remainder: float = 2.0        #: per remainder-loop iteration overhead
    loop_overhead: float = 1.0    #: per vector-body iteration (bookkeeping)

    def scaled(self, factor: float) -> "CostTable":
        """Uniformly scale every entry — used for narrow-ALU machines."""
        kwargs = {
            name: getattr(self, name) * factor
            for name in self.__dataclass_fields__
        }
        return CostTable(**kwargs)

    def with_overrides(self, **kwargs: float) -> "CostTable":
        """Return a copy with selected entries replaced."""
        return replace(self, **kwargs)


#: Neutral table used by tests and as the base for machine calibration.
DEFAULT_COSTS = CostTable()


def cycles(counters: KernelCounters, costs: CostTable = DEFAULT_COSTS) -> float:
    """Price a counter block into core cycles under ``costs``.

    The result is the busy time of a *single core* executing the whole
    stream; callers divide work across ranks before pricing, or divide the
    result, whichever matches how the counters were gathered.
    """
    c = counters
    t = costs
    total = 0.0
    total += c.vector_load * t.vload
    total -= c.vector_load_aligned * t.vload_aligned_discount
    total += c.vector_store * t.vstore
    total += c.vector_gather * t.gather_base
    total += c.gather_lanes * t.gather_lane
    total += c.emulated_gather_lanes * t.emulated_gather_lane
    total += c.vector_scatter * t.scatter_base
    total += c.scatter_lanes * t.scatter_lane
    total += c.vector_fmadd * t.fma
    total += c.vector_mul * t.mul
    total += c.vector_add * t.add
    total += c.vector_insert * t.insert
    total += c.vector_set * t.vset
    total += c.vector_reduce * t.reduce
    total += c.mask_setup * t.mask_setup
    total += c.masked_ops * t.mask_penalty
    total += c.prefetch * t.prefetch
    total += c.scalar_load * t.sload
    total += c.scalar_store * t.sstore
    total += c.scalar_fma * t.sfma
    total += c.scalar_load_indep * t.sload_indep
    total += c.scalar_fma_indep * t.sfma_indep
    total += c.peel_iterations * t.peel
    total += c.remainder_iterations * t.remainder
    total += c.body_iterations * t.loop_overhead
    return max(total, 0.0)
