"""Same-pattern reassembly: one context stepping Gray-Scott stays flat.

Every Newton iteration assembles a new Jacobian on the same stencil, and
the solver builds a 3-level multigrid on it, multiplying the CSR it was
given on every level (no conversion).  Structure-keyed plans make that
loop reuse one assembly plan and one Galerkin plan, so after spin-up the
registry stops growing and no step leaves memory behind.  The benchmark's
epochs each start a fresh context, so only a long run on one context can
show a per-step leak.
"""

import gc
import tracemalloc

from repro.core.context import ExecutionContext
from repro.ksp import GMRES, MGPC, ThetaMethod
from repro.pde import Grid2D, GrayScottProblem

STEPS = 200
SPIN_UP = 20
#: Allowed net growth of traced memory from step SPIN_UP to step STEPS.  One
#: Newton iteration's three CSR level operators take ~100 kB at this grid
#: size, so a memo keeping each step's (two iterations) passes it in 3 steps.
MAX_GROWTH_BYTES = 512 * 1024


def test_one_context_stays_flat_over_200_steps():
    grid = Grid2D(16, 16, dof=2)
    problem = GrayScottProblem(grid)
    ctx = ExecutionContext(default_variant="SELL using AVX512")
    grids = grid.hierarchy(3)
    ts = ThetaMethod(
        rhs=problem.rhs,
        jacobian=problem.jacobian,
        ksp_factory=lambda: GMRES(
            pc=MGPC(grids=grids, context=ctx), rtol=1e-8, restart=30, context=ctx
        ),
        theta=0.5,
        dt=1.0,
    )
    w = problem.initial_state(seed=3)
    newton = 0
    try:
        for step in range(1, STEPS + 1):
            w, snes = ts.step(w)
            newton += snes.iterations
            if step == SPIN_UP:
                entries = ctx.registry.size()
                gc.collect()
                tracemalloc.start()
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()

    stats = ctx.registry.stats()
    assert ctx.registry.size() == entries <= 5
    # The solve loop converts nothing: no conversion plan is ever made,
    # and every Newton iteration's MG set-up reuses the one Galerkin plan.
    assert "prepare" not in stats["misses"]
    assert "prepare" not in stats["hits"]
    assert (stats["misses"]["galerkin"], stats["hits"]["galerkin"]) == (1, newton - 1)
    assert growth < MAX_GROWTH_BYTES, f"{growth / 1024:.0f} kB kept over {STEPS - SPIN_UP} steps"
