"""The ``python -m repro profile`` command.

Runs a named experiment under a fresh :class:`~repro.obs.observer.Observer`
and writes three artifacts: the staged ``-log_view`` summary (stdout), the
metrics snapshot (``metrics.json``), and the Chrome trace
(``trace.json``, loadable in ``chrome://tracing`` or https://ui.perfetto.dev).

Experiments:

``grayscott``
    Sequential Gray-Scott GMRES solve under ``MatAssembly`` / ``KSPSolve``
    stages (the default).
``gmres``
    The same system distributed over ``--ranks`` simulated MPI ranks with
    block-Jacobi preconditioning; the summary adds PETSc's per-rank
    max/ratio/avg load-imbalance columns and the trace has one timeline
    track per rank.
``campaign``
    The seeded fault campaign (``repro.faults.campaign``) — the trace
    shows comm-retry gaps and straggler markers from the injected faults.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from .observer import Observer, observing, obs_stage
from .parallel import merge_rank_logs


def _run_grayscott(obs: Observer, grid: int, seed: int) -> dict:
    import numpy as np

    from ..core.context import ExecutionContext
    from ..ksp import GMRES, JacobiPC
    from ..pde.problems import gray_scott_jacobian

    ctx = ExecutionContext(default_variant="SELL using AVX512")
    with obs.stage("MatAssembly"):
        csr = gray_scott_jacobian(grid)
        # One engine measurement so the SIMD instruction/traffic counters
        # land in the metrics snapshot (the solve itself runs the fast
        # NumPy kernels, which the engine does not count).
        ctx.measure("SELL using AVX512", csr)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(csr.shape[0])
    solver = GMRES(pc=JacobiPC(), rtol=1e-8, max_it=2000, context=ctx)
    with obs.stage("KSPSolve"):
        result = solver.solve(csr, b)
    obs.metrics.gauge("ksp.iterations").set(result.iterations)
    obs.metrics.gauge("ksp.final_residual").set(result.final_residual)
    return {
        "experiment": "grayscott",
        "grid": grid,
        "iterations": result.iterations,
        "converged": result.reason.converged,
        "compiler_tier": ctx.compiler_tier,
    }


def _run_gmres(obs: Observer, grid: int, seed: int, ranks: int) -> dict:
    import numpy as np

    from ..comm.communicator import World
    from ..comm.spmd import run_spmd
    from ..ksp import GMRES, ParallelBlockJacobiPC
    from ..mat.mpi_aij import MPIAij
    from ..pde.problems import gray_scott_jacobian
    from ..vec.mpi_vec import MPIVec

    csr = gray_scott_jacobian(grid)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(csr.shape[0])

    def _prog(comm):
        with obs_stage("KSPSolve"):
            a = MPIAij.from_global_csr(comm, csr)
            bv = MPIVec.from_global(comm, a.layout, b)
            res = GMRES(
                pc=ParallelBlockJacobiPC(), rtol=1e-8, max_it=2000
            ).solve(a, bv)
        return res.reason.converged, res.iterations

    world = World(ranks)
    results = run_spmd(ranks, _prog, world=world)
    obs.metrics.gauge("ksp.iterations").set(results[0][1])
    return {
        "experiment": "gmres",
        "grid": grid,
        "ranks": ranks,
        "iterations": results[0][1],
        "converged": all(c for c, _ in results),
    }


def _run_campaign(obs: Observer, seed: int, grid: int) -> dict:
    from ..faults.campaign import run_campaign

    result = run_campaign(seed, grid=grid)
    for action, count in result.counts.items():
        obs.metrics.counter(f"faults.{action}").inc(count)
    obs.metrics.gauge("campaign.success_rate").set(result.success_rate)
    return {
        "experiment": "campaign",
        "seed": seed,
        "runs": result.runs,
        "correct_runs": result.correct_runs,
        "accounted": result.accounted(),
        "pending_after": result.pending_after,
    }


def main(argv: list[str] | None = None) -> int:
    """Run one observed experiment; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="run a named experiment under the observability layer",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="grayscott",
        choices=("grayscott", "gmres", "campaign"),
        help="which experiment to observe (default: grayscott)",
    )
    parser.add_argument("--grid", type=int, default=16, help="Gray-Scott grid size")
    parser.add_argument("--ranks", type=int, default=4, help="SPMD ranks (gmres)")
    parser.add_argument("--seed", type=int, default=0, help="RNG / campaign seed")
    parser.add_argument(
        "--outdir",
        type=Path,
        default=Path("."),
        help="directory for metrics.json and trace.json (default: cwd)",
    )
    args = parser.parse_args(argv)

    obs = Observer()
    with observing(obs):
        if args.experiment == "grayscott":
            info = _run_grayscott(obs, args.grid, args.seed)
        elif args.experiment == "gmres":
            info = _run_gmres(obs, args.grid, args.seed, args.ranks)
        else:
            info = _run_campaign(obs, args.seed, args.grid)

    for key, value in info.items():
        print(f"{key}: {value}")
    print()
    rank_logs = obs.rank_logs
    if len(rank_logs) > 1:
        print(merge_rank_logs(rank_logs).render())
    elif rank_logs:
        print(next(iter(rank_logs.values())).render())

    args.outdir.mkdir(parents=True, exist_ok=True)
    metrics_path = args.outdir / "metrics.json"
    trace_path = args.outdir / "trace.json"
    obs.metrics.write_json(metrics_path)
    obs.trace.write_json(trace_path)
    print(f"\nwrote {metrics_path} ({len(obs.metrics)} metrics)")
    print(f"wrote {trace_path} ({len(obs.trace)} trace events)")
    return 0
