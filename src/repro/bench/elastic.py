"""Elastic chaos campaign and acceptance gates for ``repro.elastic``.

``python -m repro.bench.elastic`` drives the elastic stack through a
seeded sweep of chaos scenarios and writes ``BENCH_elastic.json``:

* **solve scenarios** — :class:`~repro.elastic.ElasticGMRES` runs with
  scripted rank kills and grows at seeded iterations over seeded world
  sizes and checkpoint cadences.  Every recovered answer is compared
  *bit for bit* against the uninterrupted sequential GMRES solve of the
  same system, and every repartition must pass both the static
  vector-clock schedule check and the runtime schedule-log audit;
* **serve scenarios** — a sharded :class:`~repro.serve.SolveService`
  takes a ``serve.shard@N`` kill mid-traffic: the shard's SPMD world
  shrinks under live requests, routing steers new traffic to healthy
  shards, and :meth:`~repro.serve.SolveService.resize_shard` restores
  it — with every answer, before, during, and after, bit-identical to
  the sequential reference product;
* **reproducibility** — the entire sweep runs twice and the per-scenario
  records (including an answer digest) must match exactly, so the chaos
  campaign itself is a pure function of its seeds;
* **checkpoint overhead** — a long fixed-iteration GMRES run is timed
  bare and with cadence-``OVERHEAD_CADENCE`` checkpointing (median of
  the ratios of interleaved pairs); the gated ratio must stay under
  ``MAX_CKPT_OVERHEAD``.

The job **fails** unless every gate holds: the bit-identical fraction
is at least ``MIN_BIT_IDENTICAL``, no migration schedule was flagged,
both sweeps agree, and the checkpoint overhead is within budget.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import sys
import tempfile
import time
from functools import lru_cache

import numpy as np

from ..elastic import ElasticEvent, ElasticGMRES
from ..faults.plan import FaultInjector, FaultPlan, FaultSpec, inject
from ..ksp import Checkpointer, CheckpointStore, GMRES, JacobiPC
from ..pde.problems import gray_scott_jacobian, laplacian_2d
from ..serve import RequestKind, SolveRequest, SolveService
from ..serve.request import ResponseStatus

#: Fraction of scenarios that must recover bit-identically (the ISSUE's
#: >= 95% criterion; the sweep is expected to score 1.0).
MIN_BIT_IDENTICAL = 0.95

#: Ceiling on checkpointed-vs-bare solve time for the gated cadence.
MAX_CKPT_OVERHEAD = 1.10

#: Output file CI uploads.
REPORT_PATH = "BENCH_elastic.json"

#: Seeded ElasticGMRES chaos scenarios (kills, grows, chains).
N_SOLVE_SCENARIOS = 36

#: Seeded serve-layer shard-kill scenarios.
N_SERVE_SCENARIOS = 8

#: First scenario seed (scenario i uses SEED0 + i).
SEED0 = 2018

#: Interleaved bare/checkpointed pairs of the overhead measurement.  The
#: gated ratio is the median of the per-pair ratios: on a busy host a
#: ratio of two minima, each side's best run from a different moment,
#: does not settle.
OVERHEAD_REPEATS = 25

#: Checkpoint cadence (iterations) of the gated overhead configuration.
OVERHEAD_CADENCE = 75

#: Iterations of the fixed-length overhead solve.
OVERHEAD_ITERATIONS = 300

#: (grid, matrix seed) pool the solve scenarios draw operators from.
POOL = ((8, 1), (8, 2), (10, 1), (12, 3))


@lru_cache(maxsize=None)
def _system(pool_idx: int):
    """Operator and right-hand side for one pool entry (cached)."""
    grid, mseed = POOL[pool_idx]
    csr = gray_scott_jacobian(grid, seed=mseed)
    b = np.random.default_rng(1000 + pool_idx).standard_normal(csr.shape[0])
    return csr, b


@lru_cache(maxsize=None)
def _baseline(pool_idx: int):
    """The uninterrupted sequential solve every recovery must reproduce."""
    csr, b = _system(pool_idx)
    return GMRES(
        restart=20, pc=JacobiPC(), rtol=1e-10, max_it=400
    ).solve(csr, b)


def draw_scenario(seed: int):
    """One seeded chaos script: pool entry, world size, cadence, events."""
    rng = np.random.default_rng(seed)
    pool_idx = int(rng.integers(len(POOL)))
    size = int(rng.integers(3, 6))
    cadence = int(rng.integers(2, 4))
    events = []
    at = 0
    for _ in range(int(rng.integers(1, 3))):
        at += int(rng.integers(2, 5))
        if rng.random() < 0.6:
            events.append(
                ElasticEvent(
                    "kill", at_iteration=at, rank=int(rng.integers(1, size))
                )
            )
        else:
            events.append(
                ElasticEvent(
                    "grow", at_iteration=at, add=int(rng.integers(1, 3))
                )
            )
    return pool_idx, size, cadence, tuple(events)


def run_solve_scenario(seed: int) -> dict:
    """Run one elastic solve under its seeded chaos script."""
    pool_idx, size, cadence, events = draw_scenario(seed)
    csr, b = _system(pool_idx)
    base = _baseline(pool_idx)
    with tempfile.TemporaryDirectory() as root:
        result = ElasticGMRES(
            restart=20, rtol=1e-10, max_it=400,
            cadence=cadence, retry_seed=seed,
        ).solve(
            csr, b,
            CheckpointStore(root, job=f"scenario{seed}"),
            size=size,
            events=events,
        )
    identical = (
        result.reason.converged
        and np.array_equal(result.x, base.x)
        and result.residual_norms == base.residual_norms
    )
    return {
        "kind": "solve",
        "seed": seed,
        "pool": list(POOL[pool_idx]),
        "world": size,
        "cadence": cadence,
        "events": [
            f"{e.kind}@{e.at_iteration}"
            + (f":rank{e.rank}" if e.kind == "kill" else f":+{e.add}")
            for e in events
        ],
        "epochs": [rec.end for rec in result.epochs],
        "resizes": len(result.resizes),
        "iterations": result.iterations,
        "bit_identical": bool(identical),
        "schedule_ok": bool(result.schedule_ok),
        "digest": hashlib.sha256(result.x.tobytes()).hexdigest()[:16],
    }


async def _serve_chaos(seed: int) -> dict:
    """One serve scenario: shard kill mid-traffic, reroute, recover."""
    rng = np.random.default_rng(10_000 + seed)
    csr = gray_scott_jacobian(
        int(rng.integers(8, 13)), seed=int(rng.integers(1, 4))
    )
    payloads = rng.standard_normal((csr.shape[0], 6))
    world_size = int(rng.integers(2, 5))
    kill_call = int(rng.integers(0, 3))
    tenant = f"tenant-{seed}"
    service = SolveService(shards=2, world_size=world_size, batch_window=0.0)
    home = service.shard_of(tenant)
    plan = FaultPlan([FaultSpec(f"serve.shard@{home}", kill_call, "kill")])
    identical = True
    digest = hashlib.sha256()
    with inject(FaultInjector(plan)):
        async with service:
            for j in range(payloads.shape[1]):
                x = payloads[:, j]
                reference = csr.multiply_multi(x[:, None])[:, 0]
                response = await service.submit(
                    SolveRequest(
                        tenant=tenant, mat=csr, payload=x,
                        kind=RequestKind.SPMV,
                    )
                )
                ok = (
                    response.status is ResponseStatus.OK
                    and np.array_equal(response.result, reference)
                )
                identical = identical and ok
                if ok:
                    digest.update(response.result.tobytes())
                if j == 3:
                    # Operator intervention: restore the killed shard.
                    service.resize_shard(home, world_size)
    stats = service.stats()
    return {
        "kind": "serve",
        "seed": seed,
        "world": world_size,
        "kill_call": kill_call,
        "home_shard": home,
        "rerouted": stats["rerouted"],
        "shard_kills": sum(h["kills"] for h in stats["shard_health"]),
        "bit_identical": bool(identical),
        "schedule_ok": True,  # no migration schedule on the serve path
        "digest": digest.hexdigest()[:16],
    }


def run_serve_scenario(seed: int) -> dict:
    """Run one serve chaos scenario in its own event loop."""
    return asyncio.run(_serve_chaos(seed))


def run_sweep() -> list[dict]:
    """All seeded scenarios, solve then serve, in seed order."""
    records = [
        run_solve_scenario(SEED0 + i) for i in range(N_SOLVE_SCENARIOS)
    ]
    records += [
        run_serve_scenario(SEED0 + i) for i in range(N_SERVE_SCENARIOS)
    ]
    return records


def measure_overhead() -> dict:
    """Checkpoint overhead on a fixed-iteration solve, median of pairs.

    Each repeat times one bare and one checkpointed solve back to back,
    alternating which runs first, so machine drift and warm-up hit both
    equally; the overhead is the median of the per-pair ratios, and the
    gate applies at the documented cadence.
    """
    csr = laplacian_2d(40)
    b = np.random.default_rng(7).standard_normal(csr.shape[0])

    def run(checkpointer=None) -> float:
        t0 = time.perf_counter()
        GMRES(
            restart=20, pc=JacobiPC(), rtol=1e-12, max_it=OVERHEAD_ITERATIONS
        ).solve(csr, b, checkpointer=checkpointer)
        return time.perf_counter() - t0

    plain, sync = [], []
    for i in range(OVERHEAD_REPEATS):
        with tempfile.TemporaryDirectory() as root:
            checkpointer = Checkpointer(CheckpointStore(root), OVERHEAD_CADENCE)
            if i % 2:
                plain.append(run())
                sync.append(run(checkpointer))
            else:
                sync.append(run(checkpointer))
                plain.append(run())
    return {
        "iterations": OVERHEAD_ITERATIONS,
        "cadence": OVERHEAD_CADENCE,
        "repeats": OVERHEAD_REPEATS,
        "plain_ms": float(np.median(plain)) * 1000.0,
        "checkpointed_ms": float(np.median(sync)) * 1000.0,
        "overhead": float(np.median(np.divide(sync, plain))),
    }


def run_bench() -> dict:
    """The full elastic acceptance run: sweep twice, time the overhead."""
    first = run_sweep()
    second = run_sweep()
    identical = sum(1 for r in first if r["bit_identical"])
    rate = identical / len(first)
    overhead = measure_overhead()
    gates = {
        "bit_identical_ok": rate >= MIN_BIT_IDENTICAL,
        "schedules_ok": all(r["schedule_ok"] for r in first),
        "reproducible_ok": first == second,
        "overhead_ok": overhead["overhead"] <= MAX_CKPT_OVERHEAD,
    }
    return {
        "scenarios": first,
        "scenario_count": len(first),
        "bit_identical": identical,
        "bit_identical_rate": rate,
        "wrong_answers": [
            f"{r['kind']} seed {r['seed']}"
            for r in first
            if not r["bit_identical"]
        ],
        "flagged_schedules": [
            f"{r['kind']} seed {r['seed']}"
            for r in first
            if not r["schedule_ok"]
        ],
        "checkpoint_overhead": overhead,
        "thresholds": {
            "min_bit_identical": MIN_BIT_IDENTICAL,
            "max_ckpt_overhead": MAX_CKPT_OVERHEAD,
        },
        "gates": gates,
        "passed": all(gates.values()),
    }


def render(report: dict) -> str:
    """Human-readable summary of one elastic acceptance run."""
    oh = report["checkpoint_overhead"]
    gates = report["gates"]
    solve = sum(
        1 for r in report["scenarios"] if r["kind"] == "solve"
    )
    resizes = sum(r.get("resizes", 0) for r in report["scenarios"])
    lines = [
        "elastic chaos campaign — kills, grows, shard loss, resume",
        f"  scenarios       : {report['scenario_count']} "
        f"({solve} solve, {report['scenario_count'] - solve} serve; "
        f"{resizes} world resizes executed)",
        f"  bit-identical   : {report['bit_identical']}"
        f"/{report['scenario_count']} "
        f"({report['bit_identical_rate']:.3f}, "
        f"gate >= {MIN_BIT_IDENTICAL})",
        f"  schedules       : "
        f"{'all clean' if gates['schedules_ok'] else 'FLAGGED: ' + ', '.join(report['flagged_schedules'])}",
        f"  reproducible    : "
        f"{'bitwise, both sweeps' if gates['reproducible_ok'] else 'DIVERGED between sweeps'}",
        f"  ckpt overhead   : {oh['overhead']:.3f}x at cadence "
        f"{oh['cadence']} ({oh['checkpointed_ms']:.1f} ms vs "
        f"{oh['plain_ms']:.1f} ms bare, gate <= {MAX_CKPT_OVERHEAD}x)",
        f"  verdict         : {'PASS' if report['passed'] else 'FAIL'} "
        f"({', '.join(k for k, v in gates.items() if not v) or 'all gates green'})",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run the campaign, write ``BENCH_elastic.json``, gate the build."""
    args = list(sys.argv[1:] if argv is None else argv)
    out = REPORT_PATH
    if "--json" in args:
        out = args[args.index("--json") + 1]
    report = run_bench()
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(render(report))
    print(f"report written to {out}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
