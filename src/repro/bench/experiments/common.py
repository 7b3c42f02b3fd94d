"""Shared plumbing for the figure harnesses.

All single-node figures derive from the same primitive: run each kernel
variant's instruction-level kernel once on a **reference** Gray-Scott
operator (32x32 grid, identical per-row structure to the paper's
2048x2048), then scale the measured instruction stream and the analytic
traffic linearly to the paper's grid (Section 7.1 observes exactly this
size-independence).

Every figure builds one :class:`~repro.core.context.ExecutionContext` per
machine configuration through the factories here — :func:`knl_context`
for the Theta-node memory-mode variations, :func:`machine_context` for
the Figure 11 processor sweep — and prices its data points through it.
The factories are cached, and contexts memoize their measurements, so the
whole figure suite still executes each engine kernel once.
"""

from __future__ import annotations

import os
from functools import lru_cache

from ...core.context import ExecutionContext
from ...core.dispatch import KernelVariant, get_variant
from ...core.spmv import SpmvMeasurement
from ...machine.perf_model import (
    KNL_OVERLAP,
    KernelPerformance,
    MemoryMode,
    PerfModel,
    make_model,
)
from ...machine.specs import KNL_7230, ProcessorSpec
from ...pde.problems import gray_scott_jacobian

#: Edge length of the reference grid the engine kernels actually execute.
#: The default keeps the published fixture values bit-identical; with the
#: record/replay engine (docs/performance.md) larger reference grids are
#: tractable — set ``REPRO_REFERENCE_GRID`` to raise it and shrink the
#: counter-extrapolation distance to the paper's 2048^2 runs.
REFERENCE_GRID = int(os.environ.get("REPRO_REFERENCE_GRID", "32"))

#: Single-node experiment grid (Figures 8, 9, 11): 2048^2, ~8.4M unknowns.
SINGLE_NODE_GRID = 2048

#: Multinode experiment grid (Figure 10).
MULTINODE_GRID = 16384


@lru_cache(maxsize=None)
def reference_matrix():
    """The reference Gray-Scott Crank-Nicolson operator (cached)."""
    return gray_scott_jacobian(REFERENCE_GRID)


@lru_cache(maxsize=None)
def knl_context(
    mode: MemoryMode = MemoryMode.FLAT_MCDRAM,
    nprocs: int | None = None,
) -> ExecutionContext:
    """The Theta-node context: KNL 7230 in one of its memory modes.

    Cached per (mode, nprocs) so every figure pricing the same node
    configuration shares one context — and one measurement cache.
    """
    model = PerfModel(spec=KNL_7230, mode=mode, overlap=KNL_OVERLAP)
    return ExecutionContext(model=model, nprocs=nprocs)


@lru_cache(maxsize=None)
def machine_context(
    spec: ProcessorSpec, nprocs: int | None = None
) -> ExecutionContext:
    """A full-node context for one Table 1 processor (Figure 11)."""
    return ExecutionContext(model=make_model(spec), nprocs=nprocs)


@lru_cache(maxsize=None)
def reference_measurement(variant_name: str) -> SpmvMeasurement:
    """One engine execution of a variant on the reference operator."""
    return knl_context().measure(get_variant(variant_name), reference_matrix())


def grid_scale(grid: int) -> float:
    """Linear scale factor from the reference operator to a grid^2 problem."""
    if grid < 1:
        raise ValueError("grid must be positive")
    return (grid / REFERENCE_GRID) ** 2


def working_set_bytes(grid: int, variant: KernelVariant | str | None = None) -> int:
    """Resident bytes of the simulation at one grid size.

    Matrix storage plus the handful of solver vectors — the working set
    the cache-mode blend prices.
    """
    name = (
        variant.name
        if isinstance(variant, KernelVariant)
        else (variant or "CSR baseline")
    )
    meas = reference_measurement(name)
    scale = grid_scale(grid)
    m, n = meas.mat.shape
    vectors = 8 * (m + n) * 6  # solution, rhs, residual, Krylov workspace
    return round((meas.mat.memory_bytes() + vectors) * scale)


def predict_variant(
    variant_name: str,
    ctx: ExecutionContext,
    grid: int = SINGLE_NODE_GRID,
    nprocs: int | None = None,
) -> KernelPerformance:
    """Predicted SpMV performance of one variant under one context.

    ``nprocs`` overrides the context's rank count without rebuilding it
    (the derivation shares the measurement cache, so the rank sweeps of
    Figures 7 and 8 execute each kernel once).
    """
    if nprocs is not None and nprocs != ctx.nprocs:
        ctx = ctx.with_nprocs(nprocs)
    meas = ctx.measure(variant_name, reference_matrix())
    return ctx.predict(
        meas,
        scale=grid_scale(grid),
        working_set=working_set_bytes(grid, variant_name),
    )
