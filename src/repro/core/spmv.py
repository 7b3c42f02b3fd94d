"""Public SpMV API: measure and predict.

Ties the layers together for users and for the figure harnesses (the
product itself is :meth:`repro.mat.base.Mat.multiply`, one SciPy path for
every format):

* :func:`measure` — run one named variant's instruction-level kernel on a
  concrete matrix, returning the result vector, the instruction counters,
  and the Section 6 traffic estimate;
* :func:`predict` — price a measurement on a machine model, optionally
  *scaling* the measured instruction stream to a larger matrix with the
  same per-row structure (how the benchmarks reach the paper's 2048^2 and
  16384^2 grids without instantiating them — see
  :meth:`repro.simd.counters.KernelCounters.scaled`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.perf_model import KernelPerformance, PerfModel
from ..mat.aij import AijMat
from ..mat.base import Mat
from ..simd.counters import KernelCounters
from ..simd.engine import SimdEngine
from .dispatch import KernelVariant, get_variant
from .traffic import TrafficEstimate, traffic_for


@dataclass(frozen=True)
class SpmvMeasurement:
    """One instruction-level kernel execution, fully accounted."""

    variant: KernelVariant
    mat: Mat
    y: np.ndarray
    counters: KernelCounters
    traffic: TrafficEstimate

    @property
    def useful_flops(self) -> int:
        """Flops excluding SELL padding work."""
        return self.counters.flops - self.counters.padded_flops


def default_x(n: int) -> np.ndarray:
    """The reproducible default input vector of :func:`measure`."""
    return np.random.default_rng(12345).standard_normal(n)


def measure(
    variant: KernelVariant | str,
    csr: AijMat,
    x: np.ndarray | None = None,
    slice_height: int = 8,
    sigma: int = 1,
    strict_alignment: bool = False,
    engine: "SimdEngine | None" = None,
    mat: Mat | None = None,
    trace=None,
) -> SpmvMeasurement:
    """Convert, execute, and account one kernel variant on one matrix.

    ``x`` defaults to a reproducible random vector.  The returned ``y`` is
    exact (the engine performs real arithmetic), so callers can verify it
    against ``csr.multiply(x)`` — the measurement doubles as a test.
    ``engine`` lets an :class:`~repro.core.context.ExecutionContext` supply
    a policy-carrying engine instead of the default per-call one.

    ``mat`` supplies an already-prepared format (skipping the conversion),
    and ``trace`` a recorded :class:`~repro.simd.replay.KernelTrace` to
    replay instead of interpreting — both are how the context's caches
    avoid redundant work on repeated measurements of one structure.
    """
    if isinstance(variant, str):
        variant = get_variant(variant)
    if x is None:
        x = default_x(csr.shape[1])
    if mat is None:
        mat = variant.prepare(csr, slice_height=slice_height, sigma=sigma)
    y, counters = variant.run(
        mat, x, strict_alignment=strict_alignment, engine=engine, trace=trace
    )
    return SpmvMeasurement(
        variant=variant,
        mat=mat,
        y=y,
        counters=counters,
        traffic=traffic_for(mat),
    )


def predict(
    measurement: SpmvMeasurement,
    model: PerfModel,
    nprocs: int,
    scale: float = 1.0,
    working_set: int | None = None,
) -> KernelPerformance:
    """Price a measurement on a machine model.

    ``scale`` linearly extrapolates both the instruction stream and the
    traffic to ``scale`` copies of the measured matrix (valid because the
    per-row instruction mix is size-independent for a fixed stencil —
    Section 7.1's observation).  ``working_set`` feeds the cache-mode
    blend; when omitted it defaults to the scaled matrix footprint plus
    vectors.

    The Gflop/s numerator comes from the *measured* counters
    (``counters.flops - counters.padded_flops``), so formats whose padding
    accounting differs from the analytic traffic model (ESB executes no
    padded arithmetic, plain ELLPACK executes all of it) report exactly
    what :attr:`SpmvMeasurement.useful_flops` reports.
    """
    counters = (
        measurement.counters if scale == 1.0 else measurement.counters.scaled(scale)
    )
    traffic_bytes = round(measurement.traffic.total_bytes * scale)
    if working_set is None:
        m, n = measurement.mat.shape
        working_set = round(
            (measurement.mat.memory_bytes() + 8 * (m + n)) * scale
        )
    return model.predict(
        counters,
        measurement.variant.isa,
        nprocs,
        traffic_bytes=traffic_bytes,
        working_set=working_set,
        efficiency=measurement.variant.efficiency,
        useful_flops=round(measurement.useful_flops * scale),
    )
