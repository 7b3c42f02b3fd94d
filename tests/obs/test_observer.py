"""The Observer, the observing() installer, and the passive obs_* hooks."""

import numpy as np
import pytest

from repro.obs import Observer, active_observer, observing
from repro.obs.observer import obs_bump, obs_counter, obs_event, obs_stage


def _untraceable(*args, **kwargs):
    """Stand-in trace-cache fill for a kernel the trace layer rejects."""
    from repro.simd.trace import TraceError

    raise TraceError("forced by the test")


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


class TestInstallation:
    def test_no_observer_by_default(self):
        assert active_observer() is None

    def test_observing_installs_and_restores(self):
        with observing() as obs:
            assert active_observer() is obs
            with observing() as inner:
                assert active_observer() is inner
            assert active_observer() is obs
        assert active_observer() is None

    def test_observing_restores_on_raise(self):
        with pytest.raises(RuntimeError):
            with observing():
                raise RuntimeError("boom")
        assert active_observer() is None


class TestHooks:
    def test_hooks_are_noops_when_inactive(self):
        with obs_event("MatMult") as rec:
            assert rec is None
        with obs_stage("KSPSolve"):
            pass
        obs_bump("Fault:benign:spmv.output")
        obs_counter("context.measurements")
        assert active_observer() is None

    def test_hooks_record_when_active(self):
        with observing() as obs:
            with obs_stage("KSPSolve"):
                with obs_event("MatMult") as rec:
                    assert rec is not None
            obs_counter("context.measurements", 2)
        log = obs.log()
        assert log.record("MatMult", stage="KSPSolve").calls == 1
        assert obs.metrics.snapshot()["context.measurements"] == 2

    def test_event_mirrors_into_the_trace(self):
        with observing() as obs:
            with obs_event("MatMult"):
                pass
        phases = [e["ph"] for e in obs.trace.events if e["name"] == "MatMult"]
        assert phases == ["B", "E"]


class TestRankAttribution:
    def test_default_rank_is_zero(self):
        assert Observer().rank == 0

    def test_at_rank_routes_to_that_log(self):
        obs = Observer()
        with obs.at_rank(3):
            with obs.event("MatMult"):
                pass
        assert set(obs.rank_logs) == {3}
        assert obs.rank_logs[3].record("MatMult").calls == 1

    def test_at_rank_restores_previous(self):
        obs = Observer()
        with obs.at_rank(1):
            with obs.at_rank(2):
                assert obs.rank == 2
            assert obs.rank == 1
        assert obs.rank == 0

    def test_rank_clock_factory_gives_each_rank_its_clock(self):
        obs = Observer(rank_clock_factory=lambda r: fake_clock([0.0, 0.0, float(r + 1)]))
        for rank in range(2):
            with obs.at_rank(rank):
                with obs.event("work"):
                    pass
        assert obs.rank_logs[0].record("work").self_seconds == 1.0
        assert obs.rank_logs[1].record("work").self_seconds == 2.0

    def test_events_land_on_their_rank_trace_track(self):
        obs = Observer()
        with obs.at_rank(2):
            with obs.event("MatMult"):
                pass
        (b,) = (e for e in obs.trace.events if e["ph"] == "B")
        assert b["tid"] == 2


class TestResilienceBridge:
    def test_observer_is_a_valid_resilience_log_target(self):
        """ResilienceLog.attach(log) calls bump(name) — an Observer
        satisfies that contract, so fault events mirror in."""
        from repro.faults.events import ResilienceLog

        obs = Observer()
        rlog = ResilienceLog()
        rlog.attach(obs)
        rlog.emit("detected", "spmv.output", kind="bitflip")
        rec = obs.log().record("Fault:detected:spmv.output")
        assert rec.calls == 1


class TestContextIntegration:
    def test_context_observe_and_cache_counters(self, gray_scott_small):
        from repro.core.context import ExecutionContext

        ctx = ExecutionContext(default_variant="SELL using AVX512")
        with ctx.observe() as obs:
            ctx.measure("SELL using AVX512", gray_scott_small)
            ctx.measure("SELL using AVX512", gray_scott_small)
        snap = obs.metrics.snapshot()
        assert snap["context.measurements"] == 1
        assert snap["context.measure_cache_hits"] == 1
        assert snap['simd.flops{variant="SELL using AVX512"}'] > 0
        assert obs.log().record("Measure:SELL using AVX512").calls == 1

    def test_cold_measure_splits_into_record_compile_fuse(self, gray_scott_small):
        """The trace-cache fill times each stage inside its Measure event
        (record the exemplars, tile them, emit the steps, fuse); a warm
        measure replays and emits none of them."""
        from repro.core.context import ExecutionContext

        name = "CSR using AVX512"
        ctx = ExecutionContext()
        x = np.linspace(-1.0, 1.0, gray_scott_small.shape[1])
        with observing() as obs:
            ctx.measure(name, gray_scott_small, x=x)
            ctx.measure(name, gray_scott_small, x=x)
        spans = [
            (e["ph"], e["name"]) for e in obs.trace.events if e["ph"] in ("B", "E")
        ]
        fill = [
            (ph, f"{stage}:{name}")
            for stage in ("Record", "Tile", "Compile", "Fuse")
            for ph in ("B", "E")
        ]
        measure = [("B", f"Measure:{name}"), ("E", f"Measure:{name}")]
        assert spans == measure[:1] + fill + measure[1:] + measure
        log = obs.log()
        assert log.record(f"Measure:{name}").calls == 2
        for stage in ("Record", "Tile", "Compile", "Fuse"):
            assert log.record(f"{stage}:{name}").calls == 1

    @pytest.mark.parametrize(
        "name", ["SELL using AVX512", "CSR using AVX512"]
    )
    def test_compile_counters_tick_once_per_structure(
        self, gray_scott_small, name
    ):
        """A cold measure records and fuses once; a warm measure and a
        reassembled operator of the same structure replay the program."""
        from repro.core.context import ExecutionContext
        from repro.mat.aij import AijMat

        csr = gray_scott_small
        rng = np.random.default_rng(3)
        reassembled = AijMat(
            csr.shape, csr.rowptr, csr.colidx,
            rng.standard_normal(csr.val.shape[0]),
        )
        ctx = ExecutionContext()

        def compiles(operator, x):
            with observing() as obs:
                ctx.measure(name, operator, x=x)
            snap = obs.metrics.snapshot()
            return (
                snap.get("compiler.recordings", 0),
                snap.get("compiler.megakernel_compiles", 0),
            )

        assert compiles(csr, rng.standard_normal(csr.shape[1])) == (1, 1)
        assert compiles(csr, rng.standard_normal(csr.shape[1])) == (0, 0)
        assert compiles(reassembled, rng.standard_normal(csr.shape[1])) == (0, 0)
        assert ctx.registry.size("trace") == 1

    @pytest.mark.parametrize(
        "family, name, shapes, units",
        [
            # The stencil's rows all hold the same entries: one shape.
            ("stencil", "CSR using AVX512", 1, 1152),
            ("stencil", "SELL using AVX512", 2, 144),
            # Per band a prologue and an epilogue, then one unit per block.
            ("stencil", "BETA using AVX512", 4, 3410),
            ("long-tail", "CSR using AVX512", 35, 768),
            ("long-tail", "SELL using AVX512", 33, 96),
            ("long-tail", "BETA using AVX512", 34, 5581),
        ],
    )
    def test_fill_counts_tiled_shapes_and_units(self, family, name, shapes, units):
        """A cold measure records one exemplar per unit shape and tiles it
        over every unit; a warm measure tiles nothing."""
        from repro.core.context import ExecutionContext
        from repro.pde.problems import gray_scott_jacobian, irregular_rows

        csr = {
            "stencil": lambda: gray_scott_jacobian(24),
            "long-tail": lambda: irregular_rows(
                768, min_len=2, max_len=40, alpha=1.1, seed=3
            ),
        }[family]()
        ctx = ExecutionContext()
        label = f'{{variant="{name}"}}'
        for expected in ((shapes, units), (0, 0)):
            with observing() as obs:
                ctx.measure(name, csr)
            snap = obs.metrics.snapshot()
            got = (
                snap.get(f"compiler.tile_shapes{label}", 0),
                snap.get(f"compiler.tile_units{label}", 0),
            )
            assert got == expected

    def test_trace_fallback_is_counted_and_traced(
        self, gray_scott_small, monkeypatch
    ):
        """A kernel the trace layer rejects runs interpreted, and the
        fallback shows in the metrics and as an event naming the variant."""
        from repro.core.context import ExecutionContext

        name = "SELL using AVX512"
        monkeypatch.setattr(
            "repro.core.traced.acquire_trace", _untraceable, raising=True
        )
        with observing() as obs:
            ExecutionContext().measure(name, gray_scott_small)
        snap = obs.metrics.snapshot()
        assert snap[f'context.trace_fallbacks{{variant="{name}"}}'] == 1
        assert obs.log().record(f"Fallback:{name}").calls == 1
        spans = [e["ph"] for e in obs.trace.events if e["name"] == f"Fallback:{name}"]
        assert spans == ["B", "E"]

    def test_conversion_is_one_event_per_memo_miss(self, gray_scott_small):
        """A cold BETA measure converts once, before its Measure event; a
        warm one finds the conversion memoized and emits no Convert event."""
        from repro.core.context import ExecutionContext

        name = "BETA using AVX512"
        ctx = ExecutionContext()
        xs = np.random.default_rng(7).standard_normal((2, gray_scott_small.shape[1]))
        with observing() as cold:
            ctx.measure(name, gray_scott_small, x=xs[0])
        with observing() as warm:
            ctx.measure(name, gray_scott_small, x=xs[1])
        spans = [(e["ph"], e["name"]) for e in cold.trace.events if e["ph"] in ("B", "E")]
        assert spans[:3] == [("B", "Convert:BETA"), ("E", "Convert:BETA"), ("B", f"Measure:{name}")]
        assert cold.log().record("Convert:BETA").calls == 1
        assert not [e for e in warm.trace.events if e["name"].startswith("Convert:")]
        assert warm.log().record(f"Measure:{name}").calls == 1

    def test_sell_conversion_event_holds_the_plan_build(
        self, gray_scott_small, monkeypatch
    ):
        """The first SELL conversion of a structure builds its plan inside
        the ``Convert:SELL`` event; a reassembled operator refills the same
        plan under its own event, and a warm call emits none."""
        from repro.core.context import ExecutionContext
        from repro.core.sell import SellPlan
        from repro.mat import base
        from repro.mat.aij import AijMat

        builds = []

        def timed_plan(csr, **kwargs):
            builds.append(kwargs)
            with obs_event("SellPlan"):
                return SellPlan(csr, **kwargs)

        monkeypatch.setitem(base._FORMAT_PLANS, "SELL", timed_plan)
        name = "SELL using AVX512"
        ctx = ExecutionContext()
        csr = gray_scott_small
        reassembled = AijMat(csr.shape, csr.rowptr, csr.colidx, 2.0 * csr.val)
        with observing() as cold:
            ctx.measure(name, gray_scott_small)
        with observing() as warm:
            ctx.measure(name, gray_scott_small)
        with observing() as refill:
            ctx.measure(name, reassembled)
        spans = [(e["ph"], e["name"]) for e in cold.trace.events if e["ph"] in ("B", "E")]
        assert spans[:4] == [
            ("B", "Convert:SELL"), ("B", "SellPlan"), ("E", "SellPlan"), ("E", "Convert:SELL"),
        ]
        assert cold.log().record("Convert:SELL").calls == 1
        assert not [e for e in warm.trace.events if e["name"].startswith("Convert:")]
        assert refill.log().record("Convert:SELL").calls == 1
        assert not [e for e in refill.trace.events if e["name"] == "SellPlan"]
        assert builds == [{"slice_height": 8, "sigma": 1}]

    def test_solver_events_appear_under_observation(self, gray_scott_small):
        from repro.ksp import GMRES, JacobiPC

        b = np.ones(gray_scott_small.shape[0])
        with observing() as obs:
            result = GMRES(pc=JacobiPC(), rtol=1e-8).solve(gray_scott_small, b)
        assert result.reason.converged
        log = obs.log()
        assert log.record("KSPSolve").calls == 1
        assert log.record("MatMult").calls >= result.iterations
        assert log.record("PCApply").calls >= result.iterations
        assert log.record("PCSetUp").calls == 1


class TestPassivity:
    def test_measurement_is_bit_identical_with_and_without_observer(
        self, gray_scott_small
    ):
        """Observability must be passive: observed results match
        unobserved results bit for bit (the figure fixtures depend on it)."""
        from repro.core.context import ExecutionContext

        plain = ExecutionContext(default_variant="SELL using AVX512")
        bare = plain.measure("SELL using AVX512", gray_scott_small)

        observed_ctx = ExecutionContext(default_variant="SELL using AVX512")
        with observing():
            seen = observed_ctx.measure("SELL using AVX512", gray_scott_small)

        assert np.array_equal(bare.y, seen.y)
        assert bare.counters == seen.counters

    @pytest.mark.parametrize("name", ["BETA using AVX512", "SELL using SVE"])
    def test_converting_measure_is_bit_identical_with_and_without_observer(
        self, gray_scott_small, name
    ):
        from repro.core.context import ExecutionContext

        x = np.random.default_rng(5).standard_normal(gray_scott_small.shape[1])
        bare = ExecutionContext().measure(name, gray_scott_small, x=x)
        with observing() as obs:
            seen = ExecutionContext().measure(name, gray_scott_small, x=x)
        assert obs.log().record(f"Convert:{name.split()[0]}").calls == 1
        assert seen.y.tobytes() == bare.y.tobytes()
        assert seen.counters == bare.counters

    def test_trace_fallback_is_bit_identical_with_and_without_observer(
        self, gray_scott_small, monkeypatch
    ):
        from repro.core.context import ExecutionContext

        name = "CSR using AVX512"
        traced = ExecutionContext().measure(name, gray_scott_small)
        monkeypatch.setattr("repro.core.traced.acquire_trace", _untraceable)
        bare = ExecutionContext().measure(name, gray_scott_small)
        with observing():
            seen = ExecutionContext().measure(name, gray_scott_small)
        for meas in (bare, seen):
            assert meas.y.tobytes() == traced.y.tobytes()
            assert meas.counters == traced.counters

    def test_solver_trajectory_is_identical_under_observation(self, gray_scott_small):
        from repro.ksp import GMRES, JacobiPC

        b = np.linspace(0.0, 1.0, gray_scott_small.shape[0])
        x_bare = GMRES(pc=JacobiPC(), rtol=1e-10).solve(gray_scott_small, b).x
        with observing():
            x_seen = GMRES(pc=JacobiPC(), rtol=1e-10).solve(gray_scott_small, b).x
        assert np.array_equal(x_bare, x_seen)
