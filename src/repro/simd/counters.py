"""Instruction and memory-traffic counters for the simulated SIMD machine.

The performance claims in the paper (Figures 7-11) all derive from two
quantities per kernel invocation: how many instructions of each class were
issued, and how many bytes crossed the memory interface.  The
:class:`KernelCounters` object is threaded through every instruction the
:class:`~repro.simd.engine.SimdEngine` executes and accumulates both.

Counter semantics
-----------------

``vector_*`` counters count *instructions*, not lanes: one AVX-512 ``vfmadd``
over 8 doubles increments ``vector_fmadd`` by one and ``flops`` by 16.
``gather_lanes`` additionally counts the individual lanes gathered because on
every Intel microarchitecture modeled here a gather decomposes into per-lane
cache accesses; the cost model charges gathers per lane.

Bytes are charged where the paper's Section 6 traffic model charges them:
``bytes_loaded`` for matrix values, indices, and input-vector reads,
``bytes_stored`` for output-vector writes.  Redundant loads of the input
vector (the same ``x[j]`` gathered by many rows) are counted as issued; the
analytic *minimum* traffic model in :mod:`repro.core.traffic` is separate and
deliberately excludes them, exactly as the paper's estimate does.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class KernelCounters:
    """Accumulated instruction counts and memory traffic for one kernel run.

    Every field is a plain integer so instances can be summed, diffed, and
    serialized trivially.  The engine mutates a single instance in place for
    the duration of a kernel; benchmarks snapshot it afterwards.
    """

    # -- vector instruction classes -------------------------------------
    vector_load: int = 0          #: full-width vector loads from memory
    vector_load_aligned: int = 0  #: subset of vector_load on aligned addresses
    vector_store: int = 0         #: full-width vector stores
    vector_gather: int = 0        #: gather instructions issued
    gather_lanes: int = 0         #: individual lanes touched by gathers
    emulated_gather_lanes: int = 0  #: lanes loaded by the AVX gather emulation
    # No shipped kernel scatters, so the two scatter fields stay 0; they
    # are kept because the golden trace digests hash every field by name.
    vector_scatter: int = 0       #: scatter instructions issued (AVX-512)
    scatter_lanes: int = 0        #: individual lanes written by scatters
    vector_fmadd: int = 0         #: fused multiply-add instructions
    vector_mul: int = 0           #: separate vector multiplies
    vector_add: int = 0           #: separate vector adds
    vector_insert: int = 0        #: 128->256 bit insert ops (AVX gather emulation)
    vector_set: int = 0           #: broadcasts / zero-idioms
    vector_reduce: int = 0        #: horizontal reductions
    mask_setup: int = 0           #: mask register materializations
    masked_ops: int = 0           #: instructions executed under a mask
    prefetch: int = 0             #: software prefetch hints

    # -- scalar fallback ------------------------------------------------
    scalar_load: int = 0
    scalar_store: int = 0
    scalar_fma: int = 0           #: scalar multiply-accumulate pairs
    # Remainder tails issued between vector bodies sit on shorter
    # dependency chains than a pure scalar loop's, so they are counted
    # separately and priced per microarchitecture: an out-of-order Xeon
    # hides them under the vector body, while in-order KNL stalls on them
    # almost like the novec kernel (the fitted values in
    # machine/perf_model.py; discussion in EXPERIMENTS.md).
    scalar_load_indep: int = 0
    scalar_fma_indep: int = 0

    # -- loop structure (for remainder-penalty analysis, paper Sec 3.3) --
    peel_iterations: int = 0
    body_iterations: int = 0
    remainder_iterations: int = 0

    # -- memory traffic ---------------------------------------------------
    bytes_loaded: int = 0
    bytes_stored: int = 0

    # -- arithmetic work --------------------------------------------------
    flops: int = 0                #: double-precision flops of the SpMV products
    padded_flops: int = 0         #: flops spent on SELL padding zeros
    # Horizontal-reduction arithmetic (the log2(lanes) shuffle+add steps of
    # a ``reduce_add``) is real work the core performs but not useful SpMV
    # arithmetic in PETSc's flop-logging sense; it is accounted separately
    # so ``flops - padded_flops`` is exactly the useful 2*nnz quantity.
    reduction_flops: int = 0      #: flops spent in horizontal reductions

    # Every field is an int and the instance dict holds exactly the
    # fields, so the arithmetic runs over the dict, not over ``fields()``.
    def __add__(self, other: "KernelCounters") -> "KernelCounters":
        if not isinstance(other, KernelCounters):
            return NotImplemented
        o = other.__dict__
        return _with({k: v + o[k] for k, v in self.__dict__.items()})

    def __sub__(self, other: "KernelCounters") -> "KernelCounters":
        if not isinstance(other, KernelCounters):
            return NotImplemented
        o = other.__dict__
        return _with({k: v - o[k] for k, v in self.__dict__.items()})

    def __iadd__(self, other: "KernelCounters") -> "KernelCounters":
        o = other.__dict__
        self.__dict__.update({k: v + o[k] for k, v in self.__dict__.items()})
        return self

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(self):
            setattr(self, f.name, 0)

    @property
    def total_bytes(self) -> int:
        """Total memory traffic, loads plus stores."""
        return self.bytes_loaded + self.bytes_stored

    @property
    def total_vector_instructions(self) -> int:
        """All vector-unit instructions, the quantity the cost model prices."""
        return (
            self.vector_load
            + self.vector_store
            + self.vector_gather
            + self.vector_fmadd
            + self.vector_mul
            + self.vector_add
            + self.vector_insert
            + self.vector_set
            + self.vector_reduce
            + self.mask_setup
        )

    @property
    def arithmetic_intensity(self) -> float:
        """Useful flops per byte of traffic (the roofline x-coordinate)."""
        if self.total_bytes == 0:
            return 0.0
        return self.flops / self.total_bytes

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot, suitable for benchmark reports."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def as_metrics(self, prefix: str = "simd") -> dict[str, int]:
        """Dotted-name snapshot for the observability metrics registry.

        Keys are ``<prefix>.<counter>`` (``simd.flops``,
        ``simd.bytes_loaded``, ...), the namespace
        :meth:`repro.obs.metrics.MetricsRegistry.record_kernel_counters`
        folds measurements into.
        """
        return {f"{prefix}.{f.name}": getattr(self, f.name) for f in fields(self)}

    def copy(self) -> "KernelCounters":
        # A copy of the instance dict is a full copy, at a fifth of the
        # cost of ``copy.copy``.
        return _with(self.__dict__.copy())

    def scaled(self, factor: float) -> "KernelCounters":
        """Counters for ``factor`` copies of the measured instruction stream.

        The per-row instruction mix of the SpMV kernels is independent of
        the matrix dimension for a fixed sparsity pattern (Section 7.1 of
        the paper makes the same observation about the Gray-Scott matrices),
        so engine measurements on a small grid extrapolate linearly to the
        paper-scale grids.  Fractional results are rounded to the nearest
        integer count.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return _with({k: round(v * factor) for k, v in self.__dict__.items()})


def _with(values: dict[str, int]) -> KernelCounters:
    """Counters holding ``values`` (every field, by name), built without ``__init__``."""
    out = object.__new__(KernelCounters)
    out.__dict__ = values
    return out
