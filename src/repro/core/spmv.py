"""The SpMV measurement record and its reproducible default input.

:meth:`repro.core.context.ExecutionContext.measure` runs one variant's
instruction-level kernel on a concrete matrix and returns a
:class:`SpmvMeasurement` — the result vector, the instruction counters,
and the Section 6 traffic estimate — which
:meth:`~repro.core.context.ExecutionContext.predict` prices on the
context's machine.  The product itself is
:meth:`repro.mat.base.Mat.multiply`, one SciPy path for every format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mat.base import Mat
from ..simd.counters import KernelCounters
from .dispatch import KernelVariant
from .traffic import TrafficEstimate


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
    """The reproducible default input vector of a measurement."""
    return np.random.default_rng(12345).standard_normal(n)
