"""Workload ``grayscott_sell``: Crank-Nicolson Gray-Scott time steps on SELL.

The paper's application.  A 32x32 periodic grid (2,048 unknowns), dt = 1,
Newton with a Jacobian rebuilt at every iteration, GMRES(30) with a
3-level multigrid preconditioner, and the operator converted to
``SELL using AVX512`` through ``ExecutionContext(default_variant=...)``.
One op is one time step.

Set-up builds the inputs and runs the trajectory past its transient.  The
timed loop then runs *epochs*: each epoch starts from the spun-up state on
a fresh context and takes :data:`EPOCH_STEPS` steps, so every step does the
same work (a constant Newton and Krylov count) on Jacobian values no
earlier step of its context converted, and the registry holds the same
number of entries at the end of every epoch.
"""

from __future__ import annotations

import numpy as np

from harness import Result, Speed, clock, median, peak_rss_mb, quiesce, repeat_set_up, thaw
from layers import NO_LOOKUPS, registry_hit_rates, span_metrics, targets
from spans import Instrumentation, SpanRecorder

GRID = 32
LEVELS = 3
VARIANT = "SELL using AVX512"
#: Steps taken in set-up.  The transient (3 Newton iterations per step)
#: ends by step 16; from there each step takes 2 Newton and 8 Krylov
#: iterations for at least 200 steps.
SPIN_UP_STEPS = 18
#: Timed steps per epoch (each epoch restarts from the spun-up state).
EPOCH_STEPS = 24
#: Largest allowed distance between the SELL trajectory and the CSR
#: reference (states are O(1); Newton stops at a relative 1e-8).
STATE_ATOL = 1.0e-6


class Pipeline:
    """One Gray-Scott time stepper, optionally converting through a context."""

    def __init__(self, sell: bool = True):
        from repro.core.context import ExecutionContext
        from repro.ksp import GMRES, MGPC, ThetaMethod
        from repro.pde.grayscott import GrayScottProblem
        from repro.pde.grid import Grid2D

        grid = Grid2D(GRID, GRID, dof=2)
        problem = GrayScottProblem(grid)
        ctx = ExecutionContext(default_variant=VARIANT) if sell else None
        grids = grid.hierarchy(LEVELS)

        def ksp_factory():
            return GMRES(
                pc=MGPC(grids=grids, context=ctx),
                rtol=1.0e-8,
                restart=30,
                context=ctx,
            )

        # Lambdas look the methods up at call time, so spans installed
        # after construction still see every call.
        self.stepper = ThetaMethod(
            rhs=lambda w: problem.rhs(w),
            jacobian=lambda w, shift, scale: problem.jacobian(w, shift, scale),
            ksp_factory=ksp_factory,
            theta=0.5,
            dt=1.0,
        )
        self.ctx = ctx

    def step(self, w: np.ndarray) -> tuple[np.ndarray, int, int]:
        """One step: (new state, Newton iterations, Krylov iterations)."""
        w, snes = self.stepper.step(w)
        return w, snes.iterations, snes.linear_iterations


def initial_state(seed: int) -> np.ndarray:
    from repro.pde.grayscott import GrayScottProblem
    from repro.pde.grid import Grid2D

    return GrayScottProblem(Grid2D(GRID, GRID, dof=2)).initial_state(seed=seed)


#: Set-ups from a fresh interpreter whose median is ``setup_s``.
COLD_SET_UPS = 3


def set_up(seed: int, seconds: float) -> tuple[np.ndarray, list, int]:
    """Inputs plus spin-up: (spun-up state, per-step counts, registry size).

    ``seconds`` is not used: the set-up does not depend on the length of
    the run.
    """
    pipe = Pipeline()
    w = initial_state(seed)
    counts = []
    for _ in range(SPIN_UP_STEPS):
        w, newton, krylov = pipe.step(w)
        counts.append((newton, krylov))
    return w, counts, pipe.ctx.registry.size()


def discard(out) -> None:
    """Nothing to release: the set-up holds no threads or loops."""


def reference(seed: int, steps: int) -> np.ndarray:
    """The CSR trajectory without any context, ``steps`` steps long."""
    pipe = Pipeline(sell=False)
    w = initial_state(seed)
    for _ in range(steps):
        w, _, _ = pipe.step(w)
    return w


def run(seed: int, seconds: float, trace: bool, setup_repeats: int = 1) -> Result:
    res = Result()
    recorder = SpanRecorder()
    instr = Instrumentation(recorder, targets()) if trace else None
    w_spun, _, _ = repeat_set_up(
        res,
        lambda: set_up(seed, seconds),
        setup_repeats,
        lambda a, b: np.array_equal(a[0], b[0]) and a[1:] == b[1:],
        instr,
    )
    speed = Speed()

    # -- timed epochs ----------------------------------------------------
    times: list[float] = []
    traced_times: list[float] = []
    traced_ops: list[int] = []
    counts: list[tuple[int, int]] = []
    epoch_ends: list[np.ndarray] = []
    entries = 0
    hit_rates: dict[str, float] = {}
    op = 0
    deadline = clock() + seconds
    # The first epoch always completes, however short the run.
    while clock() < deadline or not epoch_ends:
        pipe = Pipeline()
        w = w_spun
        quiesce()
        speed.restart()
        done = 0
        while done < EPOCH_STEPS and (clock() < deadline or not epoch_ends):
            traced = trace and op % 2 == 1
            if traced:
                recorder.op = op
                instr.install()
            t0 = clock()
            w, newton, krylov = pipe.step(w)
            elapsed = clock() - t0
            if traced:
                instr.remove()
                traced_times.append(speed.scale(elapsed))
                traced_ops.append(op)
            else:
                times.append(res.op_time(elapsed, speed))
            counts.append((newton, krylov))
            done += 1
            op += 1
        if done == EPOCH_STEPS:
            epoch_ends.append(w)
            entries = pipe.ctx.registry.size()
            hit_rates = registry_hit_rates(NO_LOOKUPS, pipe.ctx.registry.stats())
        del pipe
        thaw()

    # -- checks, outside the timed region --------------------------------
    res.attempted = len(counts)
    expected = counts[0]
    wrong = sum(1 for c in counts if c != expected)
    if wrong:
        res.fail(f"{wrong} steps left the constant (Newton, Krylov) = {expected}", wrong)
    for end in epoch_ends[1:]:
        if not np.array_equal(end, epoch_ends[0]):
            res.fail("epochs from one state ended in different states", EPOCH_STEPS)
    ref = reference(seed, SPIN_UP_STEPS + EPOCH_STEPS)
    drift = float(np.abs(epoch_ends[0] - ref).max())
    res.notes.append(f"SELL-vs-CSR reference drift after one epoch: {drift:.2e}")
    if not drift <= STATE_ATOL:
        res.fail(f"state drifted {drift:.2e} from the CSR reference", EPOCH_STEPS)

    res.notes.append(
        f"{len(counts)} steps in {len(epoch_ends)} full epochs of {EPOCH_STEPS}; "
        f"(Newton, Krylov) per step = {expected}"
    )
    if trace:
        res.per_layer.update(span_metrics(recorder, traced_ops, setup_op="setup"))
        res.per_layer["snes.newton_its"] = expected[0]
        res.per_layer["ksp.krylov_its"] = expected[1]
        res.per_layer["core.registry_entries"] = entries
        res.per_layer.update(hit_rates)
        res.per_layer["bench.trace_overhead"] = median(traced_times) / median(times) - 1.0
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    return res

