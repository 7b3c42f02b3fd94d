"""ExecutionContext: one object owning how kernels run and are priced.

The paper's experiments are parameterized by a small bundle of execution
state — which processor and memory mode (Table 1, Figure 4), how many
ranks, which ISA the kernels were built for, whether alignment is strictly
enforced (Section 3.1), and the SELL ``C``/``sigma`` knobs (Sections 5.1
and 5.4).  Before this module that bundle was hand-threaded through every
``measure()``/``predict()`` call; the :class:`ExecutionContext` carries it
once and becomes the object callers hand around:

* ``ctx.measure(variant, csr)`` — run a kernel under the context's policy,
  memoized per (variant, configuration, matrix);
* ``ctx.predict(meas)`` — price a measurement on the context's machine;
* ``ctx.sweep(csr)`` — price every admissible (variant, C, sigma, block
  shape) point: the one tuning sweep;
* ``ctx.best_plan(csr)`` / ``ctx.best_variant(csr)`` — inspector-executor
  style format selection and parameter tuning, the sweep's first maximum,
  memoized per sparsity signature (:func:`repro.mat.sparsity.signature`),
  so repeated solves on the same stencil never re-sweep;
* ``ctx.reformat(csr)`` — convert an assembled operator to the context's
  chosen format (MatConvert).  The solver stack (``ksp``) does not call
  it: solvers multiply the CSR they are given, and every format's
  product runs on that CSR's handle, so format choice lives here, in
  ``measure``/``best_plan``/``reformat``.

Contexts are cheap to derive (:meth:`with_nprocs`, :meth:`with_model`)
and derived contexts share the measurement cache — engine measurements
depend only on the kernel and the matrix, never on the machine model.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..faults.abft import AbftChecker, SdcDetected, corrupt_product
from ..faults.events import emit as emit_fault_event
from ..faults.plan import CORRUPTION_KINDS
from ..faults.plan import fire as fire_fault
from ..machine.perf_model import (
    KernelPerformance,
    MemoryMode,
    PerfModel,
    make_model,
)
from ..machine.specs import KNL_7230, ProcessorSpec
from ..mat.aij import AijMat
from ..mat.base import BLOCK_SHAPE_FORMATS, SLICE_FORMATS, Mat
from ..obs.observer import active_observer, obs_counter, obs_event
from ..simd.engine import AlignmentFault, SimdEngine
from ..simd.isa import Isa, get_isa
from ..simd.counters import KernelCounters
from ..simd.trace import TraceError
from .dispatch import ALL_VARIANTS, KernelVariant, get_variant
from .registry import SignatureRegistry
from .spmv import SpmvMeasurement
from .spmv import default_x as spmv_default_x
from .traffic import traffic_for

#: Preference order when picking the widest ISA a machine supports.  SVE
#: sits beside AVX-512 (no modeled machine offers both, so the relative
#: order between them is never exercised); a spec naming "SVE" builds for
#: the predicate-register backend the way an x86 spec builds for masks.
_ISA_PREFERENCE = ("AVX512", "SVE", "AVX2", "AVX", "SSE2", "novec")


def _widest_isa(spec: ProcessorSpec) -> Isa:
    """The widest ISA in the spec's supported set (Table 1's build target)."""
    for name in _ISA_PREFERENCE:
        if name in spec.isa_names:
            return get_isa(name)
    raise ValueError(f"{spec.name} supports none of the modeled ISAs")


@dataclass(frozen=True)
class FormatPlan:
    """A priced execution plan: one variant plus its knobs.

    :meth:`ExecutionContext.sweep` returns one per admissible point,
    :meth:`ExecutionContext.best_plan` the winner, which
    :meth:`ExecutionContext.reformat` consumes.  Once the search space
    spans slice heights, sorting scopes and block shapes, the variant
    alone is not a complete decision, so the plan carries every knob its
    measurement was taken at.  ``block_shape`` is ``None`` for formats
    outside :data:`repro.mat.base.BLOCK_SHAPE_FORMATS`.
    """

    variant: KernelVariant
    slice_height: int
    sigma: int
    block_shape: tuple[int, int] | None
    gflops: float


@dataclass
class ExecutionContext:
    """Execution policy + machine model + memoized tuning decisions.

    Parameters
    ----------
    model:
        The machine to price kernels on (processor spec + memory mode +
        overlap rule).  Defaults to the paper's primary platform: KNL 7230
        in flat-MCDRAM mode.
    nprocs:
        MPI ranks sharing the node.  Defaults to every core of the model's
        processor (the full-node configuration of Figures 8/9/11).
    strict_alignment:
        When true, engines fault on misaligned aligned-ops
        (Section 3.1's behavior) instead of degrading them.
    slice_height / sigma:
        Default SELL ``C`` and sorting window for format conversions and
        measurements made through this context.
    block_shape:
        Default β(r,c) block dimensions for conversions to block-masked
        formats (:data:`repro.mat.base.BLOCK_SHAPE_FORMATS`).  Ignored —
        and normalized to ``None`` in every cache key — for all other
        formats, so SELL/CSR-family keys are unaffected by the knob.
    default_variant:
        When set (a variant or legend name), :meth:`reformat` uses it
        unconditionally; when ``None`` the autotuned
        :meth:`best_variant` decides.
    use_traces:
        When true (the default), each (variant, structure) pair records
        its instruction stream once, compiles it into one fused program
        (:mod:`repro.simd.megakernel`: whole-matrix sweeps where the
        trace has FMA chains, batched steps elsewhere) and
        replays that for subsequent measurements — bit-identical results
        and counters, 1-2 orders of magnitude faster (see
        ``docs/performance.md``).  Set false to force full interpreted
        execution on every call.
    abft:
        When true, every product run through the context is
        ABFT-verified (checksum cross-check, :mod:`repro.faults.abft`)
        and a detected corruption degrades down the recovery ladder:
        traced replay → interpreted kernel → scalar CSR reference.  Off
        by default — results are then bit-identical to a context without
        the feature.  Solvers attached to the context also inherit the
        toggle (their operators are wrapped in
        :class:`~repro.faults.abft.AbftOperator`).
    audit_interval:
        When positive, every ``audit_interval``-th replay of a cached
        trace (the first being the one that answers the measurement
        which built it) is cross-checked bit-exactly against a fresh
        interpreted execution; a mismatch invalidates the cached trace
        and returns the interpreted result.  Zero (default) disables
        auditing.
    """

    model: PerfModel = field(default_factory=lambda: make_model(KNL_7230))
    nprocs: int | None = None
    strict_alignment: bool = False
    slice_height: int = 8
    sigma: int = 1
    block_shape: tuple[int, int] = (2, 4)
    default_variant: KernelVariant | str | None = None
    use_traces: bool = True
    abft: bool = False
    audit_interval: int = 0

    #: Autotune sweeps actually executed (cache misses); tests assert this
    #: stays at one per sparsity signature across repeated solves.
    autotune_sweeps: int = field(default=0, repr=False, compare=False)

    #: The memoization store: every cache the context historically owned
    #: (measure/best memos, the structure-keyed trace cache, prepared
    #: formats, default inputs, rounding certificates) lives in this shared,
    #: concurrency-safe :class:`~repro.core.registry.SignatureRegistry`.
    #: A fresh context makes its own private registry (identical per-call
    #: behavior to the historical dicts); pass one registry to many
    #: contexts — or derive views with :meth:`view` — to share every
    #: recorded trace and tuning decision across them.
    registry: SignatureRegistry | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.registry is None:
            self.registry = SignatureRegistry()
        if self.nprocs is None:
            self.nprocs = self.model.spec.cores
        if not 1 <= self.nprocs <= self.model.spec.cores:
            raise ValueError(
                f"nprocs {self.nprocs} out of range for "
                f"{self.model.spec.name} ({self.model.spec.cores} cores)"
            )
        if isinstance(self.default_variant, str):
            self.default_variant = get_variant(self.default_variant)

    # -- derived state -------------------------------------------------
    @property
    def spec(self) -> ProcessorSpec:
        """The processor being modeled."""
        return self.model.spec

    @property
    def isa(self) -> Isa:
        """The widest ISA the processor supports — the ``-march`` flag of
        the paper's builds."""
        return _widest_isa(self.spec)

    @property
    def compiler_tier(self) -> str:
        """The deepest compiler tier this context dispatches through.

        Either ``"interpret"`` (traces off) or ``"megakernel"`` (one fused
        program per structure, compiled in memory).
        """
        return "megakernel" if self.use_traces else "interpret"

    @property
    def memory_mode(self) -> MemoryMode:
        """The node memory configuration (flat-MCDRAM, cache, DDR, ...)."""
        return self.model.mode

    def supports(self, variant: KernelVariant) -> bool:
        """Whether this machine can run a kernel built for the variant's ISA."""
        return variant.isa.name in self.spec.isa_names

    def supported_variants(self) -> tuple[KernelVariant, ...]:
        """Registered variants this machine can run, in name order."""
        return tuple(
            ALL_VARIANTS[name]
            for name in sorted(ALL_VARIANTS)
            if self.supports(ALL_VARIANTS[name])
        )

    # -- engines and measurement ---------------------------------------
    def engine(self, isa: Isa) -> SimdEngine:
        """A fresh ``isa`` engine under this context's alignment policy."""
        return SimdEngine(isa, strict_alignment=self.strict_alignment)

    def _block_shape_for(
        self,
        variant: KernelVariant,
        block_shape: tuple[int, int] | None = None,
    ) -> tuple[int, int] | None:
        """The effective β block shape for a variant (``None`` off-format).

        Normalizing to ``None`` for formats without the knob keeps every
        SELL/CSR-family cache key identical to what it was before the
        knob existed.
        """
        if variant.fmt not in BLOCK_SHAPE_FORMATS:
            return None
        return self.block_shape if block_shape is None else block_shape

    def measure(
        self,
        variant: KernelVariant | str,
        csr: AijMat,
        x: np.ndarray | None = None,
        slice_height: int | None = None,
        sigma: int | None = None,
        block_shape: tuple[int, int] | None = None,
    ) -> SpmvMeasurement:
        """Run one variant's kernel on one matrix under this context.

        ``slice_height``/``sigma``/``block_shape`` default to the
        context's.  Calls with the default input vector are memoized —
        keyed by the variant, the configuration, and a value-inclusive
        matrix signature — so figure harnesses and repeated tuner sweeps
        share one engine execution.
        """
        if isinstance(variant, str):
            variant = get_variant(variant)
        c = self.slice_height if slice_height is None else slice_height
        s = self.sigma if sigma is None else sigma
        bs = self._block_shape_for(variant, block_shape)
        if x is not None:
            return self._measure_once(variant, csr, x, c, s, bs)
        key = SignatureRegistry.measure_key(
            variant.name, c, s, self.strict_alignment, csr, block_shape=bs
        )
        ran = []

        def factory() -> SpmvMeasurement:
            ran.append(True)
            return self._measure_once(variant, csr, None, c, s, bs)

        hit = self.registry.get_or_compute("measure", key, factory)
        if not ran:
            obs_counter("context.measure_cache_hits")
        return hit

    def _measure_once(
        self,
        variant: KernelVariant,
        csr: AijMat,
        x: np.ndarray | None,
        slice_height: int,
        sigma: int,
        block_shape: tuple[int, int] | None = None,
    ) -> SpmvMeasurement:
        mat = self._prepared(variant, csr, slice_height, sigma, block_shape)
        if x is None:
            x = self._default_x(csr.shape[1])
        with obs_event(f"Measure:{variant.name}"):
            y, counters = self._execute(
                variant, csr, mat, x, slice_height, sigma, block_shape
            )
        obs = active_observer()
        if obs is not None:
            obs.metrics.record_kernel_counters(counters, variant.name)
            obs.metrics.counter("context.measurements").inc()
        return SpmvMeasurement(
            variant=variant,
            mat=mat,
            y=y,
            counters=counters,
            traffic=traffic_for(mat),
        )

    def _prepared(
        self,
        variant: KernelVariant,
        csr: AijMat,
        slice_height: int,
        sigma: int,
        block_shape: tuple[int, int] | None = None,
    ) -> Mat:
        """Format conversion through the registry's structure-keyed plans.

        Repeated measurements of one operator — tuner sweeps, figure
        harnesses iterating variants of one format — share a single
        conversion, and a reassembled operator on the same structure
        costs one refill of the plan.
        """
        return variant.prepare(
            csr, slice_height=slice_height, sigma=sigma,
            registry=self.registry, block_shape=block_shape,
        )

    def _default_x(self, n: int) -> np.ndarray:
        """The reproducible default input vector, built once per size."""
        return self.registry.get_or_compute(
            "default_x",
            SignatureRegistry.default_x_key(n),
            lambda: spmv_default_x(n),
        )

    def _execute(
        self,
        variant: KernelVariant,
        csr: AijMat,
        mat: Mat,
        x: np.ndarray,
        slice_height: int,
        sigma: int,
        block_shape: tuple[int, int] | None = None,
    ) -> tuple[np.ndarray, "KernelCounters"]:
        """Run one kernel down the graceful-degradation ladder.

        Rung 1 is the normal path (traced replay, or interpreted when
        traces are off); its output passes through the ``engine.output``
        fault-injection site and, with :attr:`abft` on, the checksum
        verification.  A detected corruption invalidates any cached trace
        and retries on rung 2 (fresh interpreted execution); if that also
        fails verification — or faults on alignment — rung 3 runs the
        trusted scalar CSR reference kernel, which is never injected.
        With ABFT off the ladder collapses to rung 1 exactly as before.
        """
        checker = AbftChecker(mat) if self.abft else None
        landed = 0  # non-benign corruptions injected into this product
        try:
            if self.use_traces:
                y, counters, landed = self._traced_run(
                    variant, csr, mat, x, slice_height, sigma, block_shape
                )
            else:
                y, counters = self._interpreted_run(variant, mat, x)
            spec = fire_fault("engine.output")
            if spec is not None and spec.kind in CORRUPTION_KINDS:
                landed += corrupt_product(
                    spec, y, x, checker, site="engine.output"
                )
            if checker is not None:
                checker.verify(x, y, site="engine.output")
            return y, counters
        except SdcDetected:
            if landed > 1:
                # The one rejection caught the corrupt cached trace too.
                emit_fault_event(
                    "detected", "trace.replay", "abft", detail=variant.name
                )
            self._invalidate_trace(
                variant, csr, slice_height, sigma, block_shape
            )
        emit_fault_event(
            "degraded", "dispatch", "interpreted", detail=variant.name
        )
        with contextlib.suppress(SdcDetected, AlignmentFault):
            y, counters = self._interpreted_run(variant, mat, x)
            if checker is not None:
                checker.verify(x, y, site="engine.output")
            emit_fault_event(
                "recovered", "dispatch", "interpreted", detail=variant.name
            )
            return y, counters
        emit_fault_event(
            "degraded", "dispatch", "reference", detail=variant.name
        )
        reference = get_variant("CSR using novec")
        y, counters = reference.run(
            csr,
            x,
            strict_alignment=False,
            engine=SimdEngine(reference.isa, strict_alignment=False),
        )
        emit_fault_event(
            "recovered", "dispatch", "reference", detail=variant.name
        )
        return y, counters

    def _interpreted_run(
        self, variant: KernelVariant, mat: Mat, x: np.ndarray
    ) -> tuple[np.ndarray, "KernelCounters"]:
        return variant.run(
            mat,
            x,
            strict_alignment=self.strict_alignment,
            engine=self.engine(variant.isa),
        )

    def _trace_key(
        self,
        variant: KernelVariant,
        csr: AijMat,
        slice_height: int,
        sigma: int,
        block_shape: tuple[int, int] | None = None,
    ) -> tuple:
        return SignatureRegistry.trace_key(
            variant.name, slice_height, sigma, self.strict_alignment, csr,
            block_shape=block_shape,
        )

    def _invalidate_trace(
        self,
        variant: KernelVariant,
        csr: AijMat,
        slice_height: int,
        sigma: int,
        block_shape: tuple[int, int] | None = None,
    ) -> None:
        """Drop a cached program that failed verification."""
        key = self._trace_key(variant, csr, slice_height, sigma, block_shape)
        if self.registry.invalidate("trace", key):
            self.registry.clear_replay(key)
            emit_fault_event(
                "recovered", "trace.cache", "invalidated", detail=variant.name
            )

    def _traced_run(
        self,
        variant: KernelVariant,
        csr: AijMat,
        mat: Mat,
        x: np.ndarray,
        slice_height: int,
        sigma: int,
        block_shape: tuple[int, int] | None = None,
    ) -> tuple[np.ndarray, "KernelCounters", int]:
        """Record-once/replay-many execution of one variant on one structure.

        The trace cache is keyed by the *structural* signature: the
        instruction stream is value-independent, so a reassembled operator
        (same stencil, new coefficients) replays the existing fused
        program.  A kernel the trace layer cannot represent falls back to
        interpreted execution, under a ``Fallback:<variant>`` event and
        the ``context.trace_fallbacks`` counter.

        A cache hit is the ``trace.replay`` fault-injection site (a stale
        or corrupted cached trace); with :attr:`audit_interval` set, every
        Nth replay — counting the fill's replay of a freshly built
        program as the first — is additionally cross-checked bit-exactly
        against a fresh interpreted run, and a mismatch invalidates the
        trace and returns the interpreted result.  The third value is 1
        when an injected corruption landed in the returned product, else 0.
        """
        from .traced import acquire_trace

        key = self._trace_key(variant, csr, slice_height, sigma, block_shape)
        try:
            program, recorded = acquire_trace(
                variant, self.registry, key, mat, x,
                strict_alignment=self.strict_alignment,
            )
        except TraceError:
            obs_counter("context.trace_fallbacks", labels={"variant": variant.name})
            with obs_event(f"Fallback:{variant.name}"):
                return (*self._interpreted_run(variant, mat, x), 0)
        landed = 0
        if recorded is not None:
            # This call was the single-flight leader: the fill already
            # replayed the new program on x, and that is replay #1.
            y, counters = recorded
        else:
            y, counters = variant.replay(program, mat, x)
            spec = fire_fault("trace.replay")
            if spec is not None and spec.kind in CORRUPTION_KINDS:
                checker = AbftChecker(csr) if self.abft else None
                landed = corrupt_product(
                    spec, y, x, checker, site="trace.replay"
                )
        if self.audit_interval > 0:
            count = self.registry.bump_replay(key)
            if count % self.audit_interval == 0:
                audited, audited_counters = self._interpreted_run(
                    variant, mat, x
                )
                # Bytes, not values: NaN != NaN, and a NaN's sign and
                # payload are part of the answer.
                if y.tobytes() != audited.tobytes():
                    emit_fault_event(
                        "detected", "trace.audit", "mismatch",
                        detail=variant.name,
                    )
                    self._invalidate_trace(
                        variant, csr, slice_height, sigma, block_shape
                    )
                    return audited, audited_counters, 0
        return y, counters, landed

    def predict(
        self,
        measurement: SpmvMeasurement,
        scale: float = 1.0,
        working_set: int | None = None,
    ) -> KernelPerformance:
        """Price a measurement on this context's machine and rank count.

        ``scale`` linearly extrapolates both the instruction stream and
        the traffic to ``scale`` copies of the measured matrix (valid
        because the per-row instruction mix is size-independent for a
        fixed stencil — Section 7.1's observation), which is how the
        benchmarks reach the paper's 2048^2 and 16384^2 grids without
        instantiating them.  ``working_set`` feeds the cache-mode blend;
        when omitted it defaults to the scaled matrix footprint plus
        vectors.

        The Gflop/s numerator comes from the *measured* counters
        (``counters.flops - counters.padded_flops``), so formats whose
        padding accounting differs from the analytic traffic model (ESB
        executes no padded arithmetic, SELL executes all of it)
        report exactly what :attr:`SpmvMeasurement.useful_flops` reports.
        """
        counters = (
            measurement.counters
            if scale == 1.0
            else measurement.counters.scaled(scale)
        )
        if working_set is None:
            m, n = measurement.mat.shape
            working_set = round(
                (measurement.mat.memory_bytes() + 8 * (m + n)) * scale
            )
        return self.model.predict(
            counters,
            measurement.variant.isa,
            self.nprocs,
            traffic_bytes=round(measurement.traffic.total_bytes * scale),
            working_set=working_set,
            efficiency=measurement.variant.efficiency,
            useful_flops=round(measurement.useful_flops * scale),
        )

    # -- rounding certificates (the analyzer hook) ---------------------
    def certify_variant(self, variant: KernelVariant | str, csr: AijMat):
        """The variant's rounding certificate on ``csr``'s structure.

        A :class:`repro.analysis.numlint.NumericalCertificate`: the
        per-row accumulation terms and the analytic worst-case rounding
        bound the kernel's recorded instruction stream implies.  Replay
        and megakernel tiers execute the recorded accumulation order
        bit-identically (the record/replay equivalence contract), so one
        certificate covers every compiler tier.  Memoized under the
        structure-only signature, like the trace it derives from.
        """
        from ..analysis.kernel import certify_variant

        if isinstance(variant, str):
            variant = get_variant(variant)
        bs = self._block_shape_for(variant)
        key = SignatureRegistry.certificate_key(
            variant.name, csr, self.slice_height, self.sigma,
            self.strict_alignment, block_shape=bs,
        )
        return self.registry.get_or_compute(
            "numcert",
            key,
            lambda: certify_variant(
                variant,
                csr,
                slice_height=self.slice_height,
                sigma=self.sigma,
                strict_alignment=self.strict_alignment,
                block_shape=bs,
            ),
        )

    # -- tuning (the inspector step, memoized) -------------------------
    def _search_space(
        self,
        candidates: tuple[KernelVariant, ...] | None,
        slice_heights: tuple[int, ...] | None,
        sigmas: tuple[int, ...] | None,
        block_shapes: tuple[tuple[int, int], ...] | None,
    ) -> tuple[tuple[KernelVariant, ...], tuple]:
        """The variant pool and the (C, sigma, block shape) knob sets.

        Each knob set defaults to the context's single configured value;
        an explicitly empty set is an error, not an empty sweep.
        """
        pool = self.supported_variants() if candidates is None else candidates
        axes = {
            "slice_heights": (slice_heights, self.slice_height),
            "sigmas": (sigmas, self.sigma),
            "block_shapes": (block_shapes, self.block_shape),
        }
        knobs = []
        for name, (axis, default) in axes.items():
            axis = (default,) if axis is None else tuple(axis)
            if not axis:
                raise ValueError(f"empty {name} axis: nothing to sweep")
            knobs.append(axis)
        return tuple(pool), tuple(knobs)

    def sweep(
        self,
        csr: AijMat,
        candidates: tuple[KernelVariant, ...] | None = None,
        scale: float = 1.0,
        slice_heights: tuple[int, ...] | None = None,
        sigmas: tuple[int, ...] | None = None,
        block_shapes: tuple[tuple[int, int], ...] | None = None,
    ) -> tuple[FormatPlan, ...]:
        """Price every admissible (variant, C, sigma, block shape) point.

        Every supported registered variant (or ``candidates``), in order,
        crossed with the knobs its format consumes: the slice heights and
        sorting scopes for :data:`repro.mat.base.SLICE_FORMATS`, the block
        shapes for :data:`repro.mat.base.BLOCK_SHAPE_FORMATS`.  Every
        other format is measured once, at the first slice height and the
        first sigma.  Each knob set defaults to the context's configured
        value.  Points whose conversion rejects the matrix (BAIJ on odd
        dimensions, a sigma that is not a multiple of C) are skipped;
        each skip ticks ``context.sweep_skips{variant, reason="rejected"}``.
        Measurements go through the :meth:`measure` memo, so sweeping the
        same points again costs no kernel execution.
        """
        pool, (c_set, sigma_set, shape_set) = self._search_space(
            candidates, slice_heights, sigmas, block_shapes
        )
        plans: list[FormatPlan] = []
        for variant in pool:
            sliced = variant.fmt in SLICE_FORMATS
            points = itertools.product(
                c_set if sliced else c_set[:1],
                sigma_set if sliced else sigma_set[:1],
                shape_set if variant.fmt in BLOCK_SHAPE_FORMATS else (None,),
            )
            for c, sigma, shape in points:
                try:
                    meas = self.measure(
                        variant, csr, slice_height=c, sigma=sigma,
                        block_shape=shape,
                    )
                except (ValueError, NotImplementedError):
                    # Format constraint (block size, masks, sigma).
                    obs_counter("context.sweep_skips", labels={
                        "variant": variant.name, "reason": "rejected"})
                    continue
                plans.append(FormatPlan(
                    variant=variant,
                    slice_height=c,
                    sigma=sigma,
                    block_shape=self._block_shape_for(variant, shape),
                    gflops=self.predict(meas, scale=scale).gflops,
                ))
        return tuple(plans)

    def best_plan(
        self,
        csr: AijMat,
        candidates: tuple[KernelVariant, ...] | None = None,
        scale: float = 1.0,
        slice_heights: tuple[int, ...] | None = None,
        sigmas: tuple[int, ...] | None = None,
        block_shapes: tuple[tuple[int, int], ...] | None = None,
    ) -> FormatPlan:
        """The fastest (variant, C, sigma, block shape) plan for this matrix.

        The first maximum of :meth:`sweep` over the same arguments (ties
        go to the earliest point, iterating variant, then C, then sigma,
        then block shape).  With the default knob sets this is exactly
        the per-variant sweep of :meth:`best_variant`.  The winning
        :class:`FormatPlan` is cached per sparsity signature *and* per
        knob space (the ``knobs`` leg of
        :meth:`~repro.core.registry.SignatureRegistry.best_key`), so a
        wider search never reuses a narrower search's verdict.
        """
        pool, knobs = self._search_space(
            candidates, slice_heights, sigmas, block_shapes
        )
        key = SignatureRegistry.best_key(
            csr, tuple(v.name for v in pool), scale, self._policy_key(),
            knobs=knobs,
        )
        ran = []

        def first_max() -> FormatPlan:
            ran.append(True)
            self.autotune_sweeps += 1
            obs_counter("context.autotune_sweeps")
            plans = self.sweep(csr, pool, scale, *knobs)
            if not plans:
                raise ValueError("no registered variant accepts this matrix")
            return max(plans, key=lambda plan: plan.gflops)

        plan = self.registry.get_or_compute("best", key, first_max)
        if not ran:
            obs_counter("context.autotune_cache_hits")
        return plan

    def best_variant(
        self,
        csr: AijMat,
        candidates: tuple[KernelVariant, ...] | None = None,
        scale: float = 1.0,
    ) -> KernelVariant:
        """The fastest registered variant for this matrix on this machine.

        A thin wrapper over :meth:`best_plan` at the context's own knobs
        — the historical entry point, returning just the winning variant.
        The memoization keeps repeated solver iterations from ever
        re-running the sweep.
        """
        return self.best_plan(csr, candidates=candidates, scale=scale).variant

    # -- format conversion (the executor step) -------------------------
    def resolve_variant(self, csr: AijMat) -> KernelVariant:
        """The variant :meth:`reformat` would use: default or autotuned."""
        if self.default_variant is not None:
            return self.default_variant  # type: ignore[return-value]
        return self.best_variant(csr)

    def reformat(self, csr: AijMat) -> Mat:
        """Convert an assembled CSR operator to this context's format.

        With a :attr:`default_variant` set, its converter runs with the
        context's ``C``/``sigma``/``block_shape``; with none, both the
        variant *and* the knobs come from the memoized
        :meth:`best_plan`.  The conversion runs through the registry's
        ``prepare`` namespace, keyed by structure: repeated conversions
        of an unchanged operator share one converted matrix, and a
        reassembly on the same stencil costs one refill.
        """
        if self.default_variant is not None:
            variant = self.default_variant
            return self._prepared(
                variant, csr, self.slice_height, self.sigma,
                self._block_shape_for(variant),  # type: ignore[arg-type]
            )
        plan = self.best_plan(csr)
        return self._prepared(
            plan.variant, csr, plan.slice_height, plan.sigma,
            plan.block_shape,
        )

    # -- serving (multi-vector products over the shared registry) -------
    def spmm(self, csr: AijMat, xs: np.ndarray) -> np.ndarray:
        """One multi-vector product pass ``Y = A @ [x1 ... xk]``.

        The serving path of :mod:`repro.serve`: resolves the operator's
        variant through the registry-memoized tuning decision, reuses the
        memoized format conversion, and runs a *single* SpMM pass over
        the prepared operator (:meth:`repro.mat.base.Mat.multiply_multi`).
        Column ``j`` of the result is bit-identical whether the request
        was served alone or batched with any other same-operator
        requests — the batch-size-invariance the request batcher relies
        on.  ``xs`` is ``(n, k)``; a 1-D input is treated as ``k = 1``.
        The pass is not checksum-verified: with :attr:`abft` on, its
        ``k`` products count in ``abft.unverified_products``.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim == 1:
            xs = xs[:, None]
        if self.abft:
            obs_counter("abft.unverified_products", xs.shape[1])
        variant = self.resolve_variant(csr)
        prepared = self._prepared(
            variant, csr, self.slice_height, self.sigma,
            self._block_shape_for(variant),
        )
        with obs_event(f"SpMM:{variant.name}"):
            return prepared.multiply_multi(xs)

    def spmv(self, csr: AijMat, x: np.ndarray) -> np.ndarray:
        """One serving-path product ``y = A @ x`` (a width-1 :meth:`spmm`)."""
        return self.spmm(csr, x)[:, 0]

    # -- observability -------------------------------------------------
    @contextlib.contextmanager
    def observe(self, observer=None):
        """Install an observer for the block; measure/best_plan record into it.

        Yields the active :class:`~repro.obs.observer.Observer` (a fresh
        one unless passed in).  While installed, every measurement made
        through this context snapshots its kernel counters into the
        observer's metrics registry (``simd.*`` labeled by variant),
        cache hits and autotune sweeps tick ``context.*`` counters, and
        kernel executions appear as ``Measure:<variant>`` events in the
        staged log and trace — all passively, with zero effect on the
        measured results::

            with ctx.observe() as obs:
                ctx.measure(variant, csr)
            print(obs.log().render())
        """
        from ..obs.observer import observing

        with observing(observer) as obs:
            yield obs

    # -- derivation ----------------------------------------------------
    def _policy_key(self) -> tuple:
        """What distinguishes this context's *pricing* in shared caches.

        Engine measurements, traces, and prepared formats depend only on
        the kernel and the matrix; autotune winners also
        depend on the machine being priced.  Their registry keys carry
        this tuple so context views at different rank counts or on
        different machines coexist in one shared registry.
        """
        return (self.spec.name, self.memory_mode.value, self.nprocs)

    def view(self) -> "ExecutionContext":
        """A cheap same-policy view sharing this context's registry.

        Views are what a multi-tenant server hands each shard: identical
        execution policy, every cache shared, but independent
        :attr:`autotune_sweeps` accounting.
        """
        return self._derive(model=self.model, nprocs=self.nprocs)

    def with_nprocs(self, nprocs: int) -> "ExecutionContext":
        """Same machine and policy at a different rank count.

        Shares the registry; machine-independent entries (measurements,
        traces, prepared formats) are reused directly, while best
        entries are policy-keyed, so the re-priced rank count sweeps
        fresh without disturbing the original's decisions.
        """
        return self._derive(model=self.model, nprocs=nprocs)

    def with_model(
        self, model: PerfModel, nprocs: int | None = None
    ) -> "ExecutionContext":
        """Same policy on a different machine (ISA re-derived from it)."""
        return self._derive(model=model, nprocs=nprocs)

    def _derive(
        self, model: PerfModel, nprocs: int | None
    ) -> "ExecutionContext":
        # Shared by design: the registry's machine-independent namespaces
        # (measure/trace/prepare/default_x) serve every view, and the
        # policy-keyed namespace (best) partitions by machine+ranks.
        return ExecutionContext(
            model=model,
            nprocs=nprocs,
            strict_alignment=self.strict_alignment,
            slice_height=self.slice_height,
            sigma=self.sigma,
            block_shape=self.block_shape,
            default_variant=self.default_variant,
            use_traces=self.use_traces,
            abft=self.abft,
            audit_interval=self.audit_interval,
            registry=self.registry,
        )
