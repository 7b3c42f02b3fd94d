"""Seeded end-to-end fault campaigns against the whole stack.

A campaign (:func:`run_campaign`) arms one seed-generated
:class:`~repro.faults.plan.FaultPlan` and drives five phases that exercise
every injection site the stack registers:

1. **Trace engine** — repeated ``ctx.measure`` calls (ABFT + audits on)
   absorb ``engine.output`` output corruptions and ``trace.replay``
   cached-trace corruptions through the dispatch degradation ladder;
2. **Sequential solver** — a Gray–Scott GMRES solve whose operator is
   ABFT-wrapped rides out ``spmv.output`` corruptions by rolling back to
   the last verified iterate;
3. **Parallel solver** — the same system over four simulated ranks with
   per-rank ``comm.send@r`` drops (recovered by retransmission) and
   stragglers (benign);
4. **Network model** — ``network.message`` straggler latency spikes in the
   priced interconnect (benign by construction);
5. **Rank death** — a separate single-fault plan kills rank 0 mid-job;
   the poisoned world surfaces as a detected
   :class:`~repro.comm.communicator.RankDeath`, never a silent wrong
   answer;

After each phase a drain loop keeps exercising the phase's sites until
the injector has no pending faults for them, so *every* scheduled fault
fires regardless of how quickly a solve converges.  The whole run is a
pure function of the seed: schedules come from a seeded RNG, per-site
call counters are rank-private, and the returned event fingerprint is
order-independent — two runs with one seed compare equal, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abft import AbftOperator, SdcDetected
from .events import capture
from .plan import CORRUPTION_KINDS, FaultInjector, FaultPlan, FaultSpec, inject

#: Scheduled faults per site for the main (phases 1-4) plan.  With the
#: separate rank-death fault of phase 5 the campaign injects 51 faults.
SITE_BUDGETS = {
    "engine.output": 5,
    "trace.replay": 5,
    "spmv.output": 12,
    "comm.send@0": 5,
    "comm.send@1": 5,
    "comm.send@2": 5,
    "comm.send@3": 5,
    "network.message": 8,
}

SITE_KINDS = {
    "engine.output": ("bitflip", "nan"),
    "trace.replay": ("bitflip", "nan"),
    "spmv.output": ("bitflip", "nan"),
    "comm.send@0": ("drop", "straggle"),
    "comm.send@1": ("drop", "straggle"),
    "comm.send@2": ("drop", "straggle"),
    "comm.send@3": ("drop", "straggle"),
    "network.message": ("straggle",),
}

#: Fault calls are scheduled within each site's first MAX_CALL firings.
MAX_CALL = 24

#: Safety cap on any drain loop (a bug guard, far above what drains need).
_DRAIN_CAP = 400

#: Detection kinds that answer a corrupted value: a checksum (``abft``), a
#: replay audit (``mismatch``) or the solver's residual monitor.
INTEGRITY_DETECTIONS = ("abft", "mismatch", "nonfinite", "explosion")

#: Acceptance threshold on the final relative residual of the solves.
_RESIDUAL_TOL = 1.0e-6


@dataclass(frozen=True)
class CampaignResult:
    """Outcome and accounting of one seeded campaign."""

    seed: int
    schedule: tuple          #: the plan, in comparable form
    runs: int                #: individually-verified exercises
    correct_runs: int        #: runs that produced a correct result
    counts: dict             #: resilience-event count per action
    fingerprint: tuple       #: sorted event tuples (order-independent)
    pending_after: int       #: scheduled faults that never fired (want 0)

    @property
    def success_rate(self) -> float:
        """Fraction of runs completing with a correct result."""
        return self.correct_runs / self.runs if self.runs else 0.0

    def accounted(self) -> bool:
        """True iff every injected fault was detected, recovered, or benign.

        Each fault kind is matched only against the events that answer
        it.  Corruption kinds must each produce an integrity detection
        (:data:`INTEGRITY_DETECTIONS`) or an explicit provably-benign
        classification (a perturbation below the checksum tolerance is
        roundoff-scale by construction); drops must each produce a
        retransmission recovery; kills must each be detected by the world
        (a ``kill`` detection); stragglers are benign by nature.  A
        detection of one kind never covers a fault of another.
        """
        need = {"corruption": 0, "drop": 0, "kill": 0, "other": 0}
        have = {"corruption": 0, "drop": 0, "kill": 0, "other": 0}
        for action, _site, kind, _detail, _call in self.fingerprint:
            if action == "injected":
                if kind in CORRUPTION_KINDS:
                    need["corruption"] += 1
                elif kind in ("drop", "kill"):
                    need[kind] += 1
                else:
                    need["other"] += 1
            elif action == "detected":
                if kind in INTEGRITY_DETECTIONS:
                    have["corruption"] += 1
                elif kind == "kill":
                    have["kill"] += 1
            elif action == "recovered" and kind == "retry":
                have["drop"] += 1
            elif action == "benign":
                have["corruption" if kind in CORRUPTION_KINDS else "other"] += 1
        return all(have[k] >= need[k] for k in need)


def _fresh_xs(seed: int, n: int):
    rng = np.random.default_rng(seed)
    while True:
        yield rng.standard_normal(n)


def _relative_residual(csr, x: np.ndarray, b: np.ndarray) -> float:
    return float(
        np.linalg.norm(b - csr.multiply(x)) / (np.linalg.norm(b) or 1.0)
    )


def run_campaign(seed: int, grid: int = 16) -> CampaignResult:
    """Run the five-phase campaign for one seed; see the module docstring."""
    from ..comm.communicator import RankDeath
    from ..comm.spmd import SpmdError, run_spmd
    from ..core.context import ExecutionContext
    from ..core.dispatch import get_variant
    from ..ksp import GMRES, JacobiPC
    from ..machine.network import NetworkModel
    from ..mat.mpi_aij import MPIAij
    from ..pde.problems import gray_scott_jacobian
    from ..vec.mpi_vec import MPIVec

    plan = FaultPlan.generate(
        seed, SITE_BUDGETS, kinds=SITE_KINDS, max_call=MAX_CALL
    )
    injector = FaultInjector(plan)
    runs = 0
    correct = 0

    # The NaN/inf the plan injects on purpose would make every checksum
    # sum over a poisoned product warn; the campaign expects them.
    with capture() as log, np.errstate(invalid="ignore", over="ignore"):
        with inject(injector):
            # -- phase 1: the trace engine under output/trace corruption --
            csr_small = gray_scott_jacobian(grid // 2)
            ctx = ExecutionContext(
                abft=True, audit_interval=4,
                default_variant="SELL using AVX512",
            )
            variant = get_variant("SELL using AVX512")
            xs = _fresh_xs(seed * 7 + 1, csr_small.shape[1])
            for _ in range(_DRAIN_CAP):
                if not (
                    injector.pending("engine.output")
                    or injector.pending("trace.replay")
                ):
                    break
                x = next(xs)
                meas = ctx.measure(variant, csr_small, x=x)
                runs += 1
                if np.allclose(
                    meas.y, csr_small.multiply(x), rtol=1e-8, atol=1e-10
                ):
                    correct += 1

            # -- phase 2: sequential GMRES with rollback-and-restart ------
            csr = gray_scott_jacobian(grid)
            rng = np.random.default_rng(seed * 7 + 2)
            b = rng.standard_normal(csr.shape[0])
            solver = GMRES(
                pc=JacobiPC(),
                rtol=1e-10,
                max_it=4000,
                max_sdc_restarts=64,
                context=ExecutionContext(
                    abft=True, default_variant="SELL using AVX512"
                ),
            )
            result = solver.solve(csr, b)
            runs += 1
            if (
                result.reason.converged
                and _relative_residual(csr, result.x, b) <= _RESIDUAL_TOL
            ):
                correct += 1
            # Drain leftover spmv.output faults against a throwaway
            # ABFT-wrapped operator (detection IS the correct outcome).
            drain_op = AbftOperator(csr)
            x_clean = np.ones(csr.shape[1])
            y_ref = csr.multiply(x_clean)
            for _ in range(_DRAIN_CAP):
                if not injector.pending("spmv.output"):
                    break
                runs += 1
                try:
                    y = drain_op.multiply(x_clean)
                except SdcDetected:
                    correct += 1  # caught, not silent
                else:
                    if np.array_equal(y, y_ref):
                        correct += 1

            # -- phase 3: parallel GMRES under comm drops/stragglers ------
            def parallel_prog(comm):
                a = MPIAij.from_global_csr(comm, csr)
                bv = MPIVec.from_global(comm, a.layout, b)
                res = GMRES(pc=JacobiPC(), rtol=1e-10, max_it=4000).solve(a, bv)
                xg = MPIVec(comm, a.layout, res.x).to_global()
                return res.reason.converged, xg

            for converged, xg in run_spmd(4, parallel_prog):
                runs += 1
                if converged and _relative_residual(csr, xg, b) <= _RESIDUAL_TOL:
                    correct += 1
            # Drain leftover comm faults with no-op sends (world discarded).
            def drain_prog(comm):
                site = f"comm.send@{comm.rank}"
                for _ in range(_DRAIN_CAP):
                    if not injector.pending(site):
                        break
                    comm.send(None, (comm.rank + 1) % comm.size, tag=999)

            run_spmd(4, drain_prog)

            # -- phase 4: priced-network straggler spikes -----------------
            net = NetworkModel()
            nbytes = 4096
            clean_time = (
                net.latency_s + net.overhead_s
                + nbytes / (net.bandwidth_gbs * 1e9)
            )
            for _ in range(_DRAIN_CAP):
                if not injector.pending("network.message"):
                    break
                runs += 1
                if net.message_time(nbytes) >= clean_time:
                    correct += 1

        # -- phase 5: fail-stop rank death (its own single-fault plan) ----
        death = FaultInjector(
            FaultPlan([FaultSpec("comm.send@0", 0, "kill")])
        )
        with inject(death):
            runs += 1
            try:
                run_spmd(2, parallel_prog)
            except SpmdError as exc:
                # The job must die *loudly*, with the death attributed to
                # the killed rank — a detected failure, not a wrong answer,
                # so it is the one run the campaign counts as lost.
                if not isinstance(exc.original, RankDeath):
                    raise
            else:  # pragma: no cover - the kill must abort the job
                raise AssertionError("rank death went unnoticed")

        pending_after = injector.pending() + death.pending()
        return CampaignResult(
            seed=seed,
            schedule=plan.as_tuples(),
            runs=runs,
            correct_runs=correct,
            counts=log.counts(),
            fingerprint=log.fingerprint(),
            pending_after=pending_after,
        )
