"""Recovery paths: the dispatch ladder, solver rollback, comm retries.

Every test arms a one-or-two-fault plan at a specific site and asserts
both halves of the self-healing contract: the final answer is still
correct, and the resilience log shows the fault was seen and handled.
"""

import numpy as np
import pytest

from repro.comm.communicator import RankDeath
from repro.comm.spmd import SpmdError, run_spmd
from repro.core.context import ExecutionContext
from repro.core.dispatch import get_variant
from repro.faults.events import capture
from repro.faults.plan import FaultInjector, FaultPlan, FaultSpec, inject
from repro.ksp import GMRES, JacobiPC
from repro.ksp.base import KrylovBreakdown
from repro.ksp.gmres import _apply_givens
from repro.pde.problems import gray_scott_jacobian

VARIANT = "SELL using AVX512"


def _armed(*specs):
    return inject(FaultInjector(FaultPlan(list(specs))))


class TestDispatchLadder:
    def test_engine_output_corruption_degrades_and_still_answers(self):
        csr = gray_scott_jacobian(4)
        ctx = ExecutionContext(abft=True, default_variant=VARIANT)
        x = np.random.default_rng(0).standard_normal(csr.shape[1])
        with capture() as log, _armed(
            FaultSpec("engine.output", 0, "nan")
        ):
            meas = ctx.measure(VARIANT, csr, x=x)
        assert np.allclose(meas.y, csr.multiply(x))
        assert log.counts()["detected"] >= 1
        assert any(e.site == "dispatch" for e in log.of("degraded"))

    def test_corrupted_cached_trace_is_detected_and_invalidated(self):
        csr = gray_scott_jacobian(4)
        ctx = ExecutionContext(abft=True, default_variant=VARIANT)
        rng = np.random.default_rng(1)
        x1, x2 = (rng.standard_normal(csr.shape[1]) for _ in range(2))
        ctx.measure(VARIANT, csr, x=x1)  # records the trace (clean)
        with capture() as log, _armed(
            FaultSpec("trace.replay", 0, "nan")
        ):
            meas = ctx.measure(VARIANT, csr, x=x2)  # first hit: corrupted
        assert np.allclose(meas.y, csr.multiply(x2))
        assert any(
            e.site == "trace.cache" and e.kind == "invalidated"
            for e in log.of("recovered")
        )

    def test_two_corruptions_in_one_product_are_both_detected(self):
        """A corrupt cached trace and a corrupt engine output in the same
        y: the one rejection accounts for each injected fault."""
        csr = gray_scott_jacobian(4)
        ctx = ExecutionContext(abft=True, default_variant=VARIANT)
        rng = np.random.default_rng(5)
        x1, x2 = (rng.standard_normal(csr.shape[1]) for _ in range(2))
        with capture() as log, _armed(
            FaultSpec("trace.replay", 0, "nan"),
            FaultSpec("engine.output", 1, "nan"),
        ):
            ctx.measure(VARIANT, csr, x=x1)  # records the trace (clean)
            meas = ctx.measure(VARIANT, csr, x=x2)  # both land here
        assert np.allclose(meas.y, csr.multiply(x2))
        assert log.counts()["injected"] == 2
        assert log.counts()["detected"] == 2

    def test_audit_catches_trace_corruption_without_abft(self):
        csr = gray_scott_jacobian(4)
        ctx = ExecutionContext(
            abft=False, audit_interval=1, default_variant=VARIANT
        )
        rng = np.random.default_rng(2)
        x1, x2 = (rng.standard_normal(csr.shape[1]) for _ in range(2))
        ctx.measure(VARIANT, csr, x=x1)
        with capture() as log, _armed(
            FaultSpec("trace.replay", 0, "bitflip", bit=60)
        ):
            meas = ctx.measure(VARIANT, csr, x=x2)
        assert np.allclose(meas.y, csr.multiply(x2))
        assert any(e.site == "trace.audit" for e in log.of("detected"))

    def test_audit_covers_the_first_answer_of_a_new_program(
        self, monkeypatch
    ):
        """The replay that answers a cold measure is audit replay #1."""
        from repro.core import traced

        fill = traced.acquire_trace

        def mistiled(*args, **kwargs):
            program, recorded = fill(*args, **kwargs)
            if recorded is not None:
                recorded[0][0] += 1.0
            return program, recorded

        monkeypatch.setattr(traced, "acquire_trace", mistiled)
        csr = gray_scott_jacobian(4)
        x = np.random.default_rng(6).standard_normal(csr.shape[1])
        ctx = ExecutionContext(audit_interval=1, default_variant=VARIANT)
        with capture() as log:
            meas = ctx.measure(VARIANT, csr, x=x)
        expected, _ = get_variant(VARIANT).run(meas.mat, x)
        assert meas.y.tobytes() == expected.tobytes()
        assert any(e.site == "trace.audit" for e in log.of("detected"))

    @pytest.mark.parametrize(
        "name",
        [
            "SELL using AVX512",
            "SELL using novec",
            "CSR using AVX512",
            "CSR using novec",
        ],
    )
    def test_audit_passes_a_nan_answer_whose_bytes_agree(self, name):
        """NaN != NaN, so the audit compares bytes: a product holding a
        NaN must not read as a mismatch and rebuild its program."""
        from repro.obs import observing

        csr = gray_scott_jacobian(6)
        x = np.random.default_rng(7).standard_normal(csr.shape[1])
        x[5] = np.nan
        ctx = ExecutionContext(audit_interval=1)
        with capture() as log, observing() as obs:
            for _ in range(3):
                meas = ctx.measure(name, csr, x=x)
        assert np.isnan(meas.y).any()
        assert not any(e.site == "trace.audit" for e in log.of("detected"))
        assert obs.metrics.snapshot().get("compiler.recordings", 0) == 1

    def test_disabled_features_leave_results_bit_identical(self):
        """abft/audit toggles off the fast path's *values* must not move —
        the figure-fixture reproducibility guarantee."""
        csr = gray_scott_jacobian(4)
        x = np.random.default_rng(3).standard_normal(csr.shape[1])
        plain = ExecutionContext(default_variant=VARIANT)
        guarded = ExecutionContext(
            abft=True, audit_interval=2, default_variant=VARIANT
        )
        for _ in range(3):  # cover record and replay calls
            y_plain = plain.measure(VARIANT, csr, x=x).y
            y_guarded = guarded.measure(VARIANT, csr, x=x).y
            assert np.array_equal(y_plain, y_guarded)


class TestSolverRollback:
    def test_gmres_rides_out_spmv_corruption(self):
        csr = gray_scott_jacobian(8)
        b = np.random.default_rng(4).standard_normal(csr.shape[0])
        solver = GMRES(
            pc=JacobiPC(),
            rtol=1e-10,
            context=ExecutionContext(abft=True, default_variant=VARIANT),
        )
        with capture() as log, _armed(
            FaultSpec("spmv.output", 3, "nan"),
            FaultSpec("spmv.output", 7, "bitflip", bit=62),
        ):
            result = solver.solve(csr, b)
        assert result.reason.converged
        assert np.linalg.norm(b - csr.multiply(result.x)) <= 1e-7 * np.linalg.norm(b)
        assert any(e.site == "ksp.gmres" for e in log.of("recovered"))

    def test_restart_budget_exhaustion_is_breakdown_not_a_hang(self):
        from repro.ksp.base import ConvergedReason

        csr = gray_scott_jacobian(4)
        b = np.ones(csr.shape[0])
        solver = GMRES(
            pc=JacobiPC(),
            rtol=1e-10,
            max_sdc_restarts=1,
            context=ExecutionContext(abft=True, default_variant=VARIANT),
        )
        specs = [FaultSpec("spmv.output", c, "nan") for c in range(12)]
        with capture(), _armed(*specs):
            result = solver.solve(csr, b)
        assert result.reason is ConvergedReason.BREAKDOWN

    def test_zero_givens_denominator_raises_breakdown(self):
        h = np.zeros((3, 2))
        g = np.array([1.0, 0.0, 0.0])
        with pytest.raises(KrylovBreakdown, match="Givens"):
            _apply_givens(h, g, np.zeros(2), np.zeros(2), 0)


class TestCommRecovery:
    def test_dropped_message_is_retransmitted(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(123.0, dest=1, tag=5)
                return None
            return comm.recv(0, tag=5)

        with capture() as log, _armed(FaultSpec("comm.send@0", 0, "drop")):
            results = run_spmd(2, prog)
        assert results[1] == 123.0
        assert any(
            e.site == "comm.send@0" and e.kind == "retry"
            for e in log.of("recovered")
        )

    def test_straggler_delivers_and_is_benign(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(7, dest=1, tag=1)
                return None
            return comm.recv(0, tag=1)

        with capture() as log, _armed(
            FaultSpec("comm.send@0", 0, "straggle")
        ):
            results = run_spmd(2, prog)
        assert results[1] == 7
        assert log.counts()["benign"] == 1

    def test_rank_death_aborts_the_job_loudly(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, dest=1, tag=2)
                return None
            return comm.recv(0, tag=2)

        with capture() as log, _armed(FaultSpec("comm.send@0", 0, "kill")):
            with pytest.raises(SpmdError) as excinfo:
                run_spmd(2, prog)
        assert isinstance(excinfo.value.original, RankDeath)
        assert any(e.site == "comm.world" for e in log.of("detected"))
