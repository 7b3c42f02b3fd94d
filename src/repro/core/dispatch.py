"""Kernel variant registry: the legend entries of Figures 8, 9, and 11.

A :class:`KernelVariant` bundles everything one series of the paper's
plots needs: the matrix format conversion, the instruction-level kernel,
the ISA it targets, and any library-efficiency factor (MKL).  The figure
harnesses iterate these lists instead of hand-wiring format/ISA/kernel
triples, so every figure names its series exactly as the paper does.

Variants live in an open registry: :func:`register_variant` adds one
(every built-in series below registers itself this way), the format
conversion is dispatched through the :func:`~repro.mat.base.register_format`
converter table, and :func:`get_variant` resolves legend names — so a new
format/kernel pair is one ``register_format`` converter plus one
``register_variant`` call, and it immediately shows up in shootouts,
autotuning, and the registry-driven correctness tests.
"""

from __future__ import annotations

import difflib
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..mat.aij import AijMat
from ..mat.base import BLOCK_SHAPE_FORMATS, Mat, converter_for, plan_for
from ..obs.observer import obs_event
from ..simd.counters import KernelCounters
from ..simd.engine import SimdEngine
from ..simd.isa import AVX, AVX2, AVX512, SCALAR, SVE, Isa
from .kernels_csr import (
    spmv_csr_compiler,
    spmv_csr_perm,
    spmv_csr_scalar,
    spmv_csr_vectorized,
)
from .kernels_baij import spmv_baij
from .kernels_beta import spmv_beta
from .kernels_mkl import MKL_EFFICIENCY, spmv_csr_mkl
from .kernels_sell import spmv_sell, spmv_sell_esb
from .kernels_sve import spmv_sell_sve
from .traffic import TrafficEstimate, traffic_for

# Imported for their format-converter registrations (ESB registers "ESB",
# BETA rides in through kernels_beta; the SELL registration rides in
# through the kernels' own imports).
from . import esb as _esb  # noqa: F401


class ConversionPlan:
    """The ``prepare`` entry of one (format, knobs, sparsity structure).

    A format registered with a structure plan (SELL's
    :class:`~repro.core.sell.SellPlan`) converts by refilling that plan,
    built once from the first matrix; any other format converts from
    scratch.  Each CSR object remembers what this plan converted it to
    (``csr._conversions``), so converting one operator object again
    returns the same matrix, while a reassembled operator (same
    structure, new values) costs one refill.  The memo lives and dies
    with the CSR object; converted SELL matrices refer back to their
    source only weakly, so the two never form a reference cycle.  Each
    conversion (a memo miss) is one ``Convert:<format>`` event; the
    first one also builds the plan.
    """

    def __init__(self, fmt: str, kwargs: dict):
        self._plan = plan_for(fmt)
        self._converter = converter_for(fmt)
        self._kwargs = kwargs
        self._refill = None  # the built plan's refill, after the first miss
        # CSR's own converter is the identity: nothing to time or memo.
        self._identity = self._converter is converter_for("CSR")
        self._event = f"Convert:{fmt}"
        self._lock = threading.Lock()

    def _convert(self, csr: AijMat) -> Mat:
        if self._plan is None:
            return self._converter(csr, **self._kwargs)
        if self._refill is None:
            self._refill = self._plan(csr, **self._kwargs).refill
        return self._refill(csr)

    def convert(self, csr: AijMat) -> Mat:
        """``csr`` in the plan's format (``csr`` must have its structure)."""
        if self._identity:
            return csr
        with self._lock:
            converted = getattr(csr, "_conversions", {}).get(self)
            if converted is None:
                with obs_event(self._event):
                    converted = self._convert(csr)
                csr.__dict__.setdefault("_conversions", {})[self] = converted
            return converted


@dataclass(frozen=True)
class KernelVariant:
    """One plotted series: format + kernel + ISA + efficiency."""

    name: str
    fmt: str                      #: a registered format name ("CSR", "SELL", ...)
    isa: Isa
    kernel: Callable[[SimdEngine, Mat, np.ndarray, np.ndarray], None]
    efficiency: float = 1.0       #: time multiplier 1/efficiency at predict

    def prepare(
        self, csr: AijMat, slice_height: int = 8, sigma: int = 1,
        registry=None, block_shape: tuple[int, int] | None = None,
    ) -> Mat:
        """Convert the assembled CSR operator to this variant's format.

        Dispatches through the format-converter registry
        (:func:`repro.mat.base.register_format`); formats without the
        SELL tuning knobs ignore them, and ``block_shape`` is forwarded
        only to formats registered with the knob
        (:data:`repro.mat.base.BLOCK_SHAPE_FORMATS`) — ``None`` selects
        the format's own default.  Passing a
        :class:`~repro.core.registry.SignatureRegistry` keeps one
        :class:`ConversionPlan` per (format, knobs, sparsity structure),
        built with single-flight semantics: a reassembled operator on the
        same stencil refills the plan, and converting one operator object
        again returns the same converted matrix.
        """
        kwargs: dict = {"slice_height": slice_height, "sigma": sigma}
        if block_shape is not None and self.fmt in BLOCK_SHAPE_FORMATS:
            kwargs["block_shape"] = block_shape
        if registry is None:
            return converter_for(self.fmt)(csr, **kwargs)
        key = registry.prepare_key(
            self.fmt, slice_height, sigma, csr,
            block_shape=kwargs.get("block_shape"),
        )
        plan = registry.get_or_compute(
            "prepare", key, lambda: ConversionPlan(self.fmt, kwargs)
        )
        return plan.convert(csr)

    def run(
        self,
        mat: Mat,
        x: np.ndarray,
        strict_alignment: bool = False,
        engine: SimdEngine | None = None,
    ) -> tuple[np.ndarray, KernelCounters]:
        """Execute the instruction-level kernel; return (y, counters).

        ``engine`` lets an :class:`~repro.core.context.ExecutionContext`
        supply its own (policy-carrying) engine; by default a fresh one is
        built for this variant's ISA.  :meth:`replay` runs a recorded
        trace instead — bit-identical y and counters, 1-2 orders of
        magnitude faster.
        """
        from ..memory.spaces import aligned_alloc

        if engine is None:
            engine = SimdEngine(self.isa, strict_alignment=strict_alignment)
        # The output vector must sit on a cache-line boundary like every
        # PETSc Vec (Section 3.1); the SELL kernel stores to it aligned.
        y = aligned_alloc(mat.shape[0], np.float64, 64)
        with obs_event(f"Kernel:{self.name}"):
            self.kernel(engine, mat, x, y)
        return y, engine.counters

    def record(self, mat: Mat, x: np.ndarray, strict_alignment: bool = False):
        """Compile the traced program for ``mat``'s structure: (trace, y, counters).

        ``y`` and ``counters`` are the program's replay on ``x``; the
        trace replays for any same-structure matrix.
        """
        from .traced import record_trace, replay_trace

        trace = record_trace(self, mat, strict_alignment=strict_alignment)
        y, counters = replay_trace(self, trace, mat, x)
        return trace, y, counters

    def replay(
        self, trace, mat: Mat, x: np.ndarray
    ) -> tuple[np.ndarray, KernelCounters]:
        """Replay a compiled trace (plain or fused) against this prepared matrix and x."""
        from .traced import replay_trace

        return replay_trace(self, trace, mat, x)

    def traffic(self, mat: Mat) -> TrafficEstimate:
        """The Section 6 minimum-traffic estimate for this variant."""
        return traffic_for(mat)


# ---------------------------------------------------------------------------
# The registry.  ALL_VARIANTS is the live dict behind it, kept under its
# historical name so existing callers (and figure legends) iterate it.
# ---------------------------------------------------------------------------

ALL_VARIANTS: dict[str, KernelVariant] = {}


def register_variant(variant: KernelVariant) -> KernelVariant:
    """Add a variant to the registry under its legend name.

    Returns the variant so registration composes with assignment::

        MINE = register_variant(KernelVariant("mine", "SELL", AVX512, my_kernel))

    Re-registering the same object is a no-op; a *different* variant under
    an existing name is an error (legend names are identities).
    """
    existing = ALL_VARIANTS.get(variant.name)
    if existing is not None and existing != variant:
        raise ValueError(f"variant {variant.name!r} is already registered")
    ALL_VARIANTS[variant.name] = variant
    return variant


def registered_variants() -> tuple[KernelVariant, ...]:
    """Every registered variant, in name order."""
    return tuple(ALL_VARIANTS[name] for name in sorted(ALL_VARIANTS))


def get_variant(name: str) -> KernelVariant:
    """Look up a series by its legend name."""
    if name not in ALL_VARIANTS:
        close = difflib.get_close_matches(name, ALL_VARIANTS, n=1, cutoff=0.4)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise KeyError(
            f"unknown variant {name!r}{hint} known: {sorted(ALL_VARIANTS)}"
        )
    return ALL_VARIANTS[name]


# ---------------------------------------------------------------------------
# The named series, exactly as the paper's legends spell them.
# ---------------------------------------------------------------------------

SELL_AVX512 = register_variant(
    KernelVariant("SELL using AVX512", "SELL", AVX512, spmv_sell)
)
SELL_AVX2 = register_variant(
    KernelVariant("SELL using AVX2", "SELL", AVX2, spmv_sell)
)
SELL_AVX = register_variant(KernelVariant("SELL using AVX", "SELL", AVX, spmv_sell))
SELL_NOVEC = register_variant(
    KernelVariant("SELL using novec", "SELL", SCALAR, spmv_sell)
)
CSR_AVX512 = register_variant(
    KernelVariant("CSR using AVX512", "CSR", AVX512, spmv_csr_vectorized)
)
CSR_AVX2 = register_variant(
    KernelVariant("CSR using AVX2", "CSR", AVX2, spmv_csr_vectorized)
)
CSR_AVX = register_variant(
    KernelVariant("CSR using AVX", "CSR", AVX, spmv_csr_vectorized)
)
CSR_NOVEC = register_variant(
    KernelVariant("CSR using novec", "CSR", SCALAR, spmv_csr_scalar)
)
CSR_PERM = register_variant(
    KernelVariant("CSRPerm", "CSRPerm", AVX512, spmv_csr_perm)
)
CSR_BASELINE = register_variant(
    KernelVariant("CSR baseline", "CSR", AVX512, spmv_csr_compiler)
)
MKL_CSR = register_variant(
    KernelVariant("MKL CSR", "MKL", AVX512, spmv_csr_mkl, efficiency=MKL_EFFICIENCY)
)
ESB_AVX512 = register_variant(
    KernelVariant("ESB using AVX512", "ESB", AVX512, spmv_sell_esb)
)
#: Register blocking on wide registers (Section 3.2's cautionary tale);
#: not a paper figure series, but the ablation compares it against SELL.
BAIJ_AVX512 = register_variant(
    KernelVariant("BAIJ using AVX512", "BAIJ", AVX512, spmv_baij)
)
#: The format/ISA frontier (ROADMAP item 3): the vector-length-agnostic
#: SVE port of the SELL kernel and the β(r,c) no-padding block kernels
#: of Bramas & Kus, on both lane-masked ISAs.
SELL_SVE = register_variant(
    KernelVariant("SELL using SVE", "SELL", SVE, spmv_sell_sve)
)
BETA_AVX512 = register_variant(
    KernelVariant("BETA using AVX512", "BETA", AVX512, spmv_beta)
)
BETA_SVE = register_variant(
    KernelVariant("BETA using SVE", "BETA", SVE, spmv_beta)
)

#: Figure 8's nine series, in the paper's legend order.
FIGURE8_VARIANTS: tuple[KernelVariant, ...] = (
    SELL_AVX512,
    SELL_AVX2,
    SELL_AVX,
    CSR_AVX512,
    CSR_AVX2,
    CSR_AVX,
    CSR_PERM,
    CSR_BASELINE,
    MKL_CSR,
)

#: Figure 11's nine series, in the paper's legend order.
FIGURE11_VARIANTS: tuple[KernelVariant, ...] = (
    MKL_CSR,
    CSR_NOVEC,
    SELL_NOVEC,
    CSR_AVX,
    SELL_AVX,
    CSR_AVX2,
    SELL_AVX2,
    CSR_AVX512,
    SELL_AVX512,
)
