#!/usr/bin/env python
"""Profiling tour: observe a Gray-Scott solve end to end.

The walkthrough of the observability layer (`docs/observability.md`):

1. run an observed sequential Gray-Scott GMRES solve under PETSc-style
   log stages (MatAssembly / KSPSolve), with the solver's MatMult /
   PCApply events attributed per stage;
2. print the staged ``-log_view`` summary and check the stage-tiling
   invariant (stage self times sum to the wall clock);
3. run the same system distributed over four simulated MPI ranks and
   print the per-rank load-imbalance report (max / max-min ratio / avg —
   PETSc's parallel ``-log_view`` columns);
4. export ``metrics.json`` (the labeled counter/gauge namespace) and
   ``trace.json`` — open the latter in https://ui.perfetto.dev or
   ``chrome://tracing`` to see one timeline track per rank.

Run:  python examples/profiling_tour.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from repro import ExecutionContext, gray_scott_jacobian
from repro.comm.communicator import World
from repro.comm.spmd import run_spmd
from repro.ksp import GMRES, JacobiPC, ParallelBlockJacobiPC
from repro.mat.mpi_aij import MPIAij
from repro.obs import Observer, merge_rank_logs, observing, validate_trace
from repro.obs.observer import obs_stage
from repro.vec.mpi_vec import MPIVec

GRID = 16
RANKS = 4


def sequential_solve(obs: Observer) -> None:
    """One observed sequential solve under MatAssembly/KSPSolve stages."""
    ctx = ExecutionContext(default_variant="SELL using AVX512")
    with obs.stage("MatAssembly"):
        csr = gray_scott_jacobian(GRID)
        ctx.measure("SELL using AVX512", csr)   # SIMD counters -> metrics
    b = np.random.default_rng(0).standard_normal(csr.shape[0])
    with obs.stage("KSPSolve"):
        result = GMRES(pc=JacobiPC(), rtol=1e-8, context=ctx).solve(csr, b)
    obs.metrics.gauge("ksp.iterations").set(result.iterations)

    # The staged -log_view table: events grouped under their stage.
    print(obs.log().render())

    # The invariant the docs promise: stage self times tile the wall clock.
    log = obs.log()
    stages = log.stage_summary()
    tiled = sum(s.self_seconds for s in stages)
    print(f"stage self times {tiled:.4f}s == wall {stages[0].total_seconds:.4f}s\n")


def parallel_solve(obs: Observer) -> None:
    """The same system over four simulated ranks: the imbalance report."""
    csr = gray_scott_jacobian(GRID)
    b = np.random.default_rng(0).standard_normal(csr.shape[0])

    def _prog(comm):
        with obs_stage("KSPSolve"):
            a = MPIAij.from_global_csr(comm, csr)
            bv = MPIVec.from_global(comm, a.layout, b)
            res = GMRES(pc=ParallelBlockJacobiPC(), rtol=1e-8).solve(a, bv)
        return res.reason.converged

    world = World(RANKS)
    assert all(run_spmd(RANKS, _prog, world=world))
    print(merge_rank_logs(obs.rank_logs).render())
    ratio = merge_rank_logs(obs.rank_logs).event("MatMult", stage="KSPSolve").ratio
    print(f"MatMult load imbalance (max/min over {RANKS} ranks): {ratio:.2f}\n")


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")

    print("=== 1. sequential solve, staged -log_view ===\n")
    seq = Observer()
    with observing(seq):
        sequential_solve(seq)

    print("=== 2. four-rank solve, per-rank imbalance report ===\n")
    par = Observer()
    with observing(par):
        parallel_solve(par)

    print("=== 3. export ===\n")
    outdir.mkdir(parents=True, exist_ok=True)
    # The sequential run has the richer metrics (simd.*, context.*, ksp.*);
    # the parallel run has the multi-track timeline.
    seq.metrics.write_json(outdir / "metrics.json")
    par.trace.write_json(outdir / "trace.json")
    problems = validate_trace({"traceEvents": par.trace.events})
    assert problems == [], problems
    print(f"wrote {outdir / 'metrics.json'} ({len(seq.metrics)} metrics)")
    print(f"wrote {outdir / 'trace.json'} ({len(par.trace)} events, "
          f"schema-valid) — load it in https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
