"""Per-rank reduction, the SPMD bridge, and end-to-end traces."""

import json

import numpy as np
import pytest

from repro.obs import Observer, merge_rank_logs, observing, validate_trace


def fake_clock(times):
    """A queued clock that repeats its final value once exhausted (the
    merge reads each log's wall clock more than once)."""
    it = iter(times)
    last = times[-1]

    def clock():
        nonlocal last
        for value in it:
            last = value
            return value
        return last

    return clock


class TestMergeRankLogs:
    def test_min_max_avg_ratio_with_deterministic_clocks(self):
        """Pin the load-imbalance arithmetic with per-rank fake clocks:
        rank r's one event takes r+1 seconds."""
        obs = Observer(
            rank_clock_factory=lambda r: fake_clock([0.0, 0.0, float(r + 1), 100.0])
        )
        for rank in range(4):
            with obs.at_rank(rank):
                with obs.event("MatMult", trace=False):
                    pass
        summary = merge_rank_logs(obs.rank_logs)
        row = summary.event("MatMult")
        assert summary.nranks == 4
        assert row.calls == 4
        assert row.min == 1.0 and row.max == 4.0
        assert row.avg == pytest.approx(2.5)
        assert row.ratio == pytest.approx(4.0)

    def test_absent_rank_contributes_zero(self):
        obs = Observer(rank_clock_factory=lambda r: fake_clock([0.0, 0.0, 2.0, 9.0]))
        with obs.at_rank(0):
            with obs.event("MatMult", trace=False):
                pass
        with obs.at_rank(1):
            with obs.event("VecNorm", trace=False):
                pass
        row = merge_rank_logs(obs.rank_logs).event("MatMult")
        assert row.min == 0.0 and row.max == 2.0
        assert row.ratio == float("inf")

    def test_stages_union_across_ranks(self):
        obs = Observer()
        with obs.at_rank(0), obs.stage("A"):
            pass
        with obs.at_rank(1), obs.stage("B"):
            pass
        summary = merge_rank_logs(obs.rank_logs)
        assert [s.name for s in summary.stages] == ["Main Stage", "A", "B"]

    def test_render_has_the_imbalance_columns(self):
        obs = Observer()
        with obs.at_rank(0):
            with obs.event("MatMult", trace=False):
                pass
        out = merge_rank_logs(obs.rank_logs).render()
        assert "max/min" in out and "MatMult" in out


class TestSpmdIntegration:
    @pytest.fixture
    def observed_parallel_solve(self, gray_scott_small):
        """One observed 4-rank parallel GMRES solve, shared per test run."""
        from repro.comm.communicator import World
        from repro.comm.spmd import run_spmd
        from repro.ksp import GMRES, ParallelBlockJacobiPC
        from repro.mat.mpi_aij import MPIAij
        from repro.obs.observer import obs_stage
        from repro.vec.mpi_vec import MPIVec

        csr = gray_scott_small
        b = np.linspace(0.0, 1.0, csr.shape[0])

        def prog(comm):
            with obs_stage("KSPSolve"):
                a = MPIAij.from_global_csr(comm, csr)
                bv = MPIVec.from_global(comm, a.layout, b)
                res = GMRES(pc=ParallelBlockJacobiPC(), rtol=1e-8).solve(a, bv)
            return res.reason.converged

        obs = Observer()
        with observing(obs):
            results = run_spmd(4, prog, world=World(4))
        assert all(results)
        return obs

    def test_each_rank_gets_its_own_log(self, observed_parallel_solve):
        obs = observed_parallel_solve
        assert set(obs.rank_logs) == {0, 1, 2, 3}
        for rank in range(4):
            log = obs.rank_logs[rank]
            assert log.record("MatMult", stage="KSPSolve").calls > 0
            assert log.record("PCApply", stage="KSPSolve").calls > 0

    def test_reductions_are_timed_per_rank(self, observed_parallel_solve, gray_scott_small):
        """Every distributed inner product and norm is one ``VecDot`` on
        every rank; a sequential solve has no such event."""
        from repro.ksp import GMRES, JacobiPC

        logs = observed_parallel_solve.rank_logs
        calls = {logs[r].record("VecDot", stage="KSPSolve").calls for r in range(4)}
        assert len(calls) == 1 and calls.pop() > 0

        obs = Observer()
        with observing(obs):
            b = np.ones(gray_scott_small.shape[0])
            GMRES(pc=JacobiPC()).solve(gray_scott_small, b)
        names = {rec.name for rec in obs.log().summary()}
        assert "MatMult" in names and "VecDot" not in names

    def test_per_rank_summary_reduces_all_ranks(self, observed_parallel_solve):
        summary = merge_rank_logs(observed_parallel_solve.rank_logs)
        assert summary.nranks == 4
        row = summary.event("MatMult", stage="KSPSolve")
        assert row.calls >= 4                 # every rank multiplied
        assert row.max >= row.avg >= row.min >= 0.0
        assert row.ratio >= 1.0
        stage = summary.stage("KSPSolve")
        assert stage.max > 0.0

    def test_trace_validates_with_one_track_per_rank(self, observed_parallel_solve):
        doc = json.loads(observed_parallel_solve.trace.to_json())
        assert validate_trace(doc) == []
        tids = {
            e["tid"] for e in doc["traceEvents"] if e["ph"] in ("B", "E", "X", "i")
        }
        assert tids == {0, 1, 2, 3}

    def test_world_traffic_folds_into_metrics(self, observed_parallel_solve):
        snap = observed_parallel_solve.metrics.snapshot()
        assert snap["comm.messages"] > 0
        assert snap["comm.bytes"] > 0


class TestCampaignTrace:
    def test_seeded_campaign_trace_contains_retry_gaps(self):
        """The acceptance trace: a seeded fault campaign produces a valid
        Chrome trace containing at least one comm-retry gap (an X event
        covering the retransmission backoff)."""
        from repro.faults.campaign import run_campaign

        with observing() as obs:
            result = run_campaign(3, grid=12)
        assert result.accounted()

        doc = json.loads(obs.trace.to_json())
        assert validate_trace(doc) == []
        retries = [e for e in doc["traceEvents"] if e["name"] == "comm.retry"]
        assert len(retries) >= 1
        for gap in retries:
            assert gap["ph"] == "X"
            assert gap["dur"] > 0
            assert "site" in gap["args"]
