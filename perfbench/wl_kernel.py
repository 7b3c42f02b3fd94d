"""Workload ``kernel_panel``: the reproduction's instruction-level kernels.

``ExecutionContext.measure`` with fresh input vectors on the five structure
families of the format shootout, each at 0.5-1.2k rows, under SELL, CSR
and BETA built for AVX-512 and SELL built for SVE: 20 (family, variant)
cells.  One op is one sweep over the 20 cells.

The structures are fixed; the seed draws the matrix values and a bank of
:data:`BANK` input vectors per family.  Set-up measures every cell twice:
the first measurement records and compiles the trace, the second fuses
the megakernel where the trace allows it.  Timed sweeps then replay
through the deepest tier each cell reaches.
"""

from __future__ import annotations

import numpy as np

from harness import Result, Speed, clock, median, peak_rss_mb, quiesce, repeat_set_up, thaw
from layers import registry_hit_rates, span_metrics, targets
from spans import Instrumentation, SpanRecorder

VARIANTS = (
    "SELL using AVX512",
    "CSR using AVX512",
    "BETA using AVX512",
    "SELL using SVE",
)
#: Input vectors drawn per family; sweep ``i`` uses vector ``i // 2 % BANK``
#: so that a traced sweep and its untraced neighbour share one input.
BANK = 16
#: Allowed error against the SciPy product, relative to ``|A| |x|``.
RTOL = 1.0e-12


def structures() -> dict:
    """The five structure families (fixed; values are replaced per seed)."""
    from repro.bench.format_shootout import _block_structured, _near_empty_rows
    from repro.pde.problems import gray_scott_jacobian, irregular_rows, tridiagonal

    return {
        "stencil": gray_scott_jacobian(24),
        "banded": tridiagonal(1024),
        "long-tail": irregular_rows(768, min_len=2, max_len=40, alpha=1.1, seed=3),
        "block": _block_structured(nb=160, bs=4, seed=5),
        "near-empty": _near_empty_rows(n=1024, seed=9),
    }


def inputs(seed: int) -> list[tuple]:
    """Per family: (name, matrix, input bank, reference products, |A||x|)."""
    import scipy.sparse as sp

    from repro.mat.aij import AijMat

    rng = np.random.default_rng(seed)
    out = []
    for name, base in structures().items():
        mat = AijMat(
            base.shape,
            base.rowptr.copy(),
            base.colidx.copy(),
            rng.standard_normal(base.nnz),
            check=False,
        )
        handle = sp.csr_matrix((mat.val, mat.colidx, mat.rowptr), shape=mat.shape)
        xs = rng.standard_normal((BANK, mat.shape[1]))
        refs = [handle @ x for x in xs]
        scale = [abs(handle) @ np.abs(x) for x in xs]
        out.append((name, mat, xs, refs, scale))
    return out


#: Set-ups from a fresh interpreter whose median is ``setup_s``.
COLD_SET_UPS = 3


def set_up(seed: int, seconds: float):
    """Inputs, then the first two measurements of every cell.

    ``seconds`` is not used: the set-up does not depend on the length of
    the run.
    """
    from repro.core.context import ExecutionContext

    families = inputs(seed)
    ctx = ExecutionContext()
    recorded = {}
    for name, mat, xs, refs, scale in families:
        for variant in VARIANTS:
            first = ctx.measure(variant, mat, x=xs[0])
            ctx.measure(variant, mat, x=xs[1])
            recorded[name, variant] = first
    return ctx, families, recorded


def discard(out) -> None:
    """Nothing to release: the set-up holds no threads or loops."""


def sweep(ctx, families, k: int, speed: Speed) -> tuple[list, float, float]:
    """One op: every cell measured on input ``k`` of its family's bank.

    Returns (measurements, wall-clock seconds, seconds at reference
    speed).  Each family is scaled by the probes around it, so a change
    of machine speed in the middle of a sweep is tracked.
    """
    results, raw, scaled = [], 0.0, 0.0
    for _, mat, xs, _, _ in families:
        t0 = clock()
        results.extend(ctx.measure(variant, mat, x=xs[k]) for variant in VARIANTS)
        elapsed = clock() - t0
        raw += elapsed
        scaled += speed.scale(elapsed)
    return results, raw, scaled


def run(seed: int, seconds: float, trace: bool, setup_repeats: int = 1) -> Result:
    res = Result()
    recorder = SpanRecorder()
    instr = Instrumentation(recorder, targets()) if trace else None
    ctx, families, recorded = repeat_set_up(
        res,
        lambda: set_up(seed, seconds),
        setup_repeats,
        lambda a, b: _same_recordings(a[2], b[2]),
        instr,
    )
    speed = Speed()
    cells = [(name, variant) for name, *_ in families for variant in VARIANTS]

    # -- timed sweeps ------------------------------------------------------
    times: list[float] = []
    traced_times: list[float] = []
    traced_ops: list[int] = []
    wrong = 0
    untraced_ys: dict[int, list] = {}
    stats_before = ctx.registry.stats()
    quiesce()
    speed.restart()
    deadline = clock() + seconds
    op = 0
    while clock() < deadline or not times:
        k = op // 2 % BANK
        traced = trace and op % 2 == 1
        if traced:
            recorder.op = op
            instr.install()
        results, raw, scaled = sweep(ctx, families, k, speed)
        if traced:
            instr.remove()
            traced_times.append(scaled)
            traced_ops.append(op)
            if any(
                not np.array_equal(m.y, y) for m, y in zip(results, untraced_ys[op - 1])
            ):
                res.fail(f"sweep {op}: traced products differ from untraced ones")
        else:
            times.append(res.record_op(raw, scaled))
            if trace:
                untraced_ys = {op: [m.y for m in results]}
        wrong += _check_sweep(res, results, cells, families, recorded, k)
        op += 1
    stats_after = ctx.registry.stats()
    thaw()

    res.attempted = op * len(cells)
    res.failed += wrong
    flops = sum(recorded[c].counters.flops for c in cells)
    moved = sum(recorded[c].traffic.total_bytes for c in cells)
    res.notes.append(
        f"{op} sweeps of {len(cells)} cells; {flops} flops and {moved} bytes "
        "(computed) per sweep"
    )
    if trace:
        metrics = span_metrics(recorder, traced_ops, setup_op="setup")
        res.per_layer.update(metrics)
        res.per_layer.update(registry_hit_rates(stats_before, stats_after))
        res.per_layer["core.registry_entries"] = ctx.registry.size()
        res.per_layer["simd.flops"] = flops
        res.per_layer["simd.bytes"] = moved
        replay_ms = metrics["simd.replay_ms"] + metrics["simd.mega_replay_ms"]
        res.per_layer["simd.py_gflops"] = (
            flops / (replay_ms * 1.0e6) if replay_ms else 0.0
        )
        res.per_layer["bench.trace_overhead"] = median(traced_times) / median(times) - 1.0
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    return res


def _check_sweep(res, results, cells, families, recorded, k) -> int:
    """Failed cells of one sweep: wrong ``y`` or counters unlike the recording."""
    wrong = 0
    per_family = {name: (refs[k], scale[k]) for name, _, _, refs, scale in families}
    for meas, cell in zip(results, cells):
        ref, scale = per_family[cell[0]]
        ok = np.all(np.abs(meas.y - ref) <= RTOL * scale + 1e-300)
        if not ok or meas.counters != recorded[cell].counters:
            wrong += 1
            if len(res.problems) < 10:
                res.problems.append(f"cell {cell} input {k}: wrong product or counters")
    return wrong


def _same_recordings(first: dict, again: dict) -> bool:
    """Whether two set-ups recorded identical products and counters."""
    return all(
        np.array_equal(meas.y, again[cell].y) and meas.counters == again[cell].counters
        for cell, meas in first.items()
    )

