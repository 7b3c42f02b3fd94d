"""Closed-loop traffic generator and acceptance gates for ``repro.serve``.

``python -m repro serve --smoke`` (or ``python -m repro.bench.serve_traffic``)
drives the :class:`~repro.serve.server.SolveService` with a synthetic but
adversarially shaped workload:

* **closed-loop tenants** — each of ``tenants`` clients keeps exactly one
  request outstanding, submitting, waiting, thinking, and resubmitting
  (the classic closed-loop model, so offered load tracks service
  capacity instead of overrunning it);
* **heavy-tailed think times** — Pareto-distributed pauses between a
  tenant's requests, so arrivals come in the bursts that make batch
  windows earn their keep;
* **hot-key signature skew** — operators are drawn from a pool by a
  Zipf-like law, so a few structures dominate (the regime where
  signature batching and the shared registry pay off) while the tail
  keeps the caches honest.

The same traffic runs twice: once against the batching service and once
against a ``max_batch=1`` / zero-window baseline that serves strictly
one product per pass.  The report (``BENCH_serve.json``) carries
latency percentiles, throughput, batch occupancy, and registry
statistics for both, and the job **fails** unless:

* batched throughput beats one-at-a-time by ``MIN_BATCH_SPEEDUP``;
* the registry's hit rate stays above ``MIN_HIT_RATE`` (the pool is far
  smaller than the request count, so misses should be one-per-structure);
* single-flight held: each distinct operator was prepared exactly once;
* batched p95 latency stays under ``MAX_P95_MS`` (an absolute ceiling so
  a batching-induced latency collapse cannot hide behind the ratio).

Every client verifies a sample of its answers against the reference
CSR matvec, so the gate also re-checks end-to-end serving correctness.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from ..core.registry import SignatureRegistry
from ..pde.problems import gray_scott_jacobian
from ..serve import (
    AdmissionController,
    RequestKind,
    SolveRequest,
    SolveService,
)

#: Batched-vs-serial throughput floor (the ISSUE's >= 3x criterion).
MIN_BATCH_SPEEDUP = 3.0

#: Registry hit-rate floor for the batched run.
MIN_HIT_RATE = 0.80

#: Absolute p95 ceiling (ms) for the batched run.
MAX_P95_MS = 250.0

#: Output file CI uploads.
REPORT_PATH = "BENCH_serve.json"


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of one load run (the smoke defaults are CI-sized)."""

    tenants: int = 64
    requests_per_tenant: int = 20
    #: (grid, seed) pairs defining the operator pool: distinct seeds on
    #: one grid are distinct *contents* on one *structure*.  Sized for
    #: the serving regime the batcher targets — operators whose single
    #: product is small next to the fixed per-pass dispatch cost (the
    #: SPMD world launch + queue/executor round trip), so coalescing k
    #: requests into one pass amortizes that fixed cost k ways.
    pool: tuple[tuple[int, int], ...] = (
        (32, 1), (32, 2), (24, 1), (24, 2),
    )
    #: Zipf-like skew: pool entry ``i`` (rank order) has weight
    #: ``1 / (i + 1) ** zipf_s``.
    zipf_s: float = 2.0
    #: Pareto tail index of the think-time distribution (heavier < 2).
    pareto_alpha: float = 1.5
    #: Mean think time in seconds (scaled Pareto).
    think_mean: float = 1.0e-4
    #: Every Nth answer a tenant verifies against the reference matvec.
    verify_every: int = 8
    #: Pre-generated (payload, reference) pairs per pool operator; built
    #: untimed so the measured loop is pure serving, not RNG + reference
    #: products on the client thread.
    payload_bank: int = 4
    max_batch: int = 48
    #: 0 = pure backpressure batching: a pass coalesces whatever queued
    #: while the previous pass ran, with no timer.  The baseline then
    #: differs in exactly one knob — ``max_batch`` — so the speedup is
    #: attributable to coalescing alone.
    batch_window: float = 0.0
    shards: int = 1
    #: Simulated SPMD ranks per SpMM pass, so every pass pays the
    #: world-launch cost a distributed deployment pays per collective
    #: operation — the per-pass fixed cost that batching exists to
    #: amortize (the serial baseline pays it once per request).
    world_size: int = 8
    queue_cap: int = 512
    seed: int = 2018
    #: Alternating batched/serial repetitions; the gate compares
    #: *median* throughputs so one noisy run (thread-spawn jitter, a
    #: busy machine) cannot flip the verdict either way.
    repeats: int = 5


SMOKE = TrafficConfig()

#: The serial baseline: the same traffic, one product per pass.
def serial_baseline(cfg: TrafficConfig) -> TrafficConfig:
    """The unbatched control: ``max_batch=1`` and no coalescing window."""
    return replace(cfg, max_batch=1, batch_window=0.0)


def build_pool(cfg: TrafficConfig):
    """The operator pool, Zipf-ranked weights, and payload banks.

    Payloads and their reference products are generated here, before the
    clock starts: the measured loop then exercises the *service*, not
    client-side RNG or reference matvecs.
    """
    mats = [
        gray_scott_jacobian(grid, seed=seed) for grid, seed in cfg.pool
    ]
    ranks = np.arange(1, len(mats) + 1, dtype=np.float64)
    weights = ranks ** (-cfg.zipf_s)
    weights /= weights.sum()
    rng = np.random.default_rng(cfg.seed)
    banks = []
    for mat in mats:
        pairs = []
        for _ in range(cfg.payload_bank):
            x = rng.standard_normal(mat.shape[1])
            pairs.append((x, mat.multiply(x)))
        banks.append(pairs)
    return mats, weights, banks


def tenant_schedule(cfg: TrafficConfig, tenant_id: int, pool_size: int, weights):
    """One tenant's full itinerary, drawn up front.

    Returns ``(idxs, picks, thinks)``: the Zipf-weighted pool choice, the
    payload-bank pick, and the Pareto think time for each of the tenant's
    requests.  Drawing these before the clock starts keeps RNG work out
    of the measured loop (and identical between the batched and serial
    runs, which replay the same seeds).
    """
    rng = np.random.default_rng(cfg.seed * 1000 + tenant_id)
    idxs = rng.choice(pool_size, size=cfg.requests_per_tenant, p=weights)
    picks = rng.integers(cfg.payload_bank, size=cfg.requests_per_tenant)
    thinks = (rng.pareto(cfg.pareto_alpha, size=cfg.requests_per_tenant) + 1.0) * (
        cfg.think_mean * (cfg.pareto_alpha - 1.0) / cfg.pareto_alpha
    )
    return idxs, picks, thinks


async def _tenant(
    service: SolveService,
    cfg: TrafficConfig,
    tenant_id: int,
    pool,
    schedule,
    banks,
    latencies: list[float],
    failures: list[str],
) -> None:
    """One closed-loop client: submit, await, verify sample, think."""
    idxs, picks, thinks = schedule
    loop = asyncio.get_running_loop()
    for i in range(cfg.requests_per_tenant):
        idx = int(idxs[i])
        x, reference = banks[idx][int(picks[i])]
        request = SolveRequest(
            tenant=f"tenant-{tenant_id}",
            mat=pool[idx],
            payload=x,
            kind=RequestKind.SPMV,
            priority=tenant_id % 3,
        )
        t0 = loop.time()
        response = await service.submit(request)
        latencies.append(loop.time() - t0)
        if not response.ok:
            failures.append(f"{response.status.value}: {response.detail}")
            continue
        if i % cfg.verify_every == 0:
            if not np.allclose(response.result, reference, atol=1e-10):
                failures.append(f"wrong answer for pool entry {idx}")
        # Sub-half-millisecond thinks are below the event loop's timer
        # granularity (~1ms here); sleep(0) yields without a timer, so
        # the Pareto *tail* pauses for real and the bulk resubmits
        # immediately — exactly the bursty arrivals heavy tails produce.
        think = float(thinks[i])
        await asyncio.sleep(think if think >= 5.0e-4 else 0)


async def _drive(cfg: TrafficConfig) -> dict:
    service = SolveService(
        shards=cfg.shards,
        world_size=cfg.world_size,
        batch_window=cfg.batch_window,
        max_batch=cfg.max_batch,
        admission=AdmissionController(queue_cap=cfg.queue_cap),
    )
    pool, weights, banks = build_pool(cfg)
    schedules = [
        tenant_schedule(cfg, t, len(pool), weights)
        for t in range(cfg.tenants)
    ]
    latencies: list[float] = []
    failures: list[str] = []
    async with service:
        # Warm-up, untimed: touch every pool operator once so lazy
        # one-time costs (the SciPy import, format conversions, traces)
        # land before the clock starts — both runs get the same warm-up,
        # and the single-flight gate still sees every prepare.
        for idx, mat in enumerate(pool):
            await service.submit(
                SolveRequest(
                    tenant="warmup",
                    mat=mat,
                    payload=banks[idx][0][0],
                    kind=RequestKind.SPMV,
                )
            )
        t0 = time.perf_counter()
        await asyncio.gather(
            *(
                _tenant(
                    service, cfg, t, pool, schedules[t], banks,
                    latencies, failures,
                )
                for t in range(cfg.tenants)
            )
        )
        wall = time.perf_counter() - t0
    lat_ms = np.asarray(latencies) * 1000.0
    return {
        "requests": len(latencies),
        "failures": failures,
        "wall_s": wall,
        "throughput_rps": len(latencies) / wall if wall else 0.0,
        "p50_ms": float(np.percentile(lat_ms, 50)) if latencies else 0.0,
        "p95_ms": float(np.percentile(lat_ms, 95)) if latencies else 0.0,
        "p99_ms": float(np.percentile(lat_ms, 99)) if latencies else 0.0,
        "pool_size": len(pool),
        "pool_structures": len({SignatureRegistry.structure_key(m) for m in pool}),
        "service": service.stats(),
    }


def run_traffic(cfg: TrafficConfig) -> dict:
    """Run one configuration to completion (its own event loop)."""
    return asyncio.run(_drive(cfg))


def _median_run(runs: list[dict]) -> dict:
    """The run whose throughput is the median of its repetitions."""
    ordered = sorted(runs, key=lambda r: r["throughput_rps"])
    pick = dict(ordered[len(ordered) // 2])
    pick["throughput_runs"] = [r["throughput_rps"] for r in runs]
    return pick


def run_comparison(cfg: TrafficConfig = SMOKE) -> dict:
    """Batched service vs one-at-a-time baseline on identical traffic.

    Runs the two configurations ``cfg.repeats`` times each, alternating
    so slow drift hits both sides equally, and gates on the *median*
    throughputs.
    """
    batched_runs, serial_runs = [], []
    for _ in range(max(1, cfg.repeats)):
        batched_runs.append(run_traffic(cfg))
        serial_runs.append(run_traffic(serial_baseline(cfg)))
    batched = _median_run(batched_runs)
    serial = _median_run(serial_runs)
    speedup = (
        batched["throughput_rps"] / serial["throughput_rps"]
        if serial["throughput_rps"]
        else 0.0
    )
    registry = batched["service"]["registry"]
    prepare_misses = registry["misses"].get("prepare", 0)
    # Single-flight means one prepare per cached artifact however many
    # requests raced: one conversion plan per sparsity structure on the
    # sequential path, one per (operator, rank) row block when serving
    # across an SPMD world.
    if cfg.world_size > 1:
        expected_prepares = batched["pool_size"] * cfg.world_size
    else:
        expected_prepares = batched["pool_structures"]
    single_flight_ok = prepare_misses == expected_prepares
    gates = {
        "speedup_ok": speedup >= MIN_BATCH_SPEEDUP,
        "hit_rate_ok": registry["hit_rate"] >= MIN_HIT_RATE,
        "single_flight_ok": single_flight_ok,
        "p95_ok": batched["p95_ms"] <= MAX_P95_MS,
        "correct": not any(
            r["failures"] for r in batched_runs + serial_runs
        ),
    }
    return {
        "config": {
            "tenants": cfg.tenants,
            "requests_per_tenant": cfg.requests_per_tenant,
            "pool": list(map(list, cfg.pool)),
            "zipf_s": cfg.zipf_s,
            "pareto_alpha": cfg.pareto_alpha,
            "max_batch": cfg.max_batch,
            "batch_window_s": cfg.batch_window,
            "shards": cfg.shards,
            "world_size": cfg.world_size,
        },
        "batched": batched,
        "serial": serial,
        "batch_speedup": speedup,
        "batch_occupancy": batched["service"]["occupancy"],
        "cache_hit_rate": registry["hit_rate"],
        "compiler_tier": batched["service"]["compiler_tier"],
        "prepare_misses": prepare_misses,
        "expected_prepares": expected_prepares,
        "thresholds": {
            "min_batch_speedup": MIN_BATCH_SPEEDUP,
            "min_hit_rate": MIN_HIT_RATE,
            "max_p95_ms": MAX_P95_MS,
        },
        "gates": gates,
        "passed": all(gates.values()),
    }


def render(report: dict) -> str:
    """Human-readable summary of one comparison report."""
    b, s = report["batched"], report["serial"]
    lines = [
        "serve traffic smoke — batched service vs one-at-a-time baseline",
        f"  requests        : {b['requests']} per run "
        f"({report['config']['tenants']} closed-loop tenants, "
        f"pool of {b['pool_size']} operators)",
        f"  batched         : {b['throughput_rps']:8.1f} req/s   "
        f"p50 {b['p50_ms']:6.2f} ms  p95 {b['p95_ms']:6.2f} ms  "
        f"p99 {b['p99_ms']:6.2f} ms",
        f"  serial          : {s['throughput_rps']:8.1f} req/s   "
        f"p50 {s['p50_ms']:6.2f} ms  p95 {s['p95_ms']:6.2f} ms  "
        f"p99 {s['p99_ms']:6.2f} ms",
        f"  batch speedup   : {report['batch_speedup']:.2f}x "
        f"(gate >= {MIN_BATCH_SPEEDUP}x)",
        f"  batch occupancy : {report['batch_occupancy']:.2f} "
        f"requests per SpMM pass",
        f"  cache hit rate  : {report['cache_hit_rate']:.3f} "
        f"(gate >= {MIN_HIT_RATE})",
        f"  compiler tier   : {report['compiler_tier']}",
        f"  single-flight   : "
        f"{'ok' if report['gates']['single_flight_ok'] else 'VIOLATED'} "
        f"({report['prepare_misses']} prepares, expected "
        f"{report['expected_prepares']})",
        f"  verdict         : {'PASS' if report['passed'] else 'FAIL'} "
        f"({', '.join(k for k, v in report['gates'].items() if not v) or 'all gates green'})",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run the comparison, write ``BENCH_serve.json``, gate the build."""
    args = list(sys.argv[1:] if argv is None else argv)
    out = REPORT_PATH
    if "--json" in args:
        out = args[args.index("--json") + 1]
    report = run_comparison(SMOKE)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(render(report))
    print(f"report written to {out}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
