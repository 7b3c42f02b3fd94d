"""The -log_view-style event profiler."""

import pytest

from repro.obs import EventLog


def fake_clock(times):
    """A clock returning queued values (deterministic timing tests)."""
    it = iter(times)
    return lambda: next(it)


class TestEventTiming:
    def test_single_event(self):
        # created, start, end, (render calls skipped)
        log = EventLog(clock=fake_clock([0.0, 1.0, 3.0]))
        with log.event("MatMult"):
            pass
        rec = log.record("MatMult")
        assert rec.calls == 1
        assert rec.total_seconds == 2.0
        assert rec.self_seconds == 2.0

    def test_nested_events_attribute_self_time_to_the_inner(self):
        # created, outer-start, inner-start, inner-end, outer-end
        log = EventLog(clock=fake_clock([0.0, 0.0, 1.0, 4.0, 10.0]))
        with log.event("KSPSolve"):
            with log.event("MatMult"):
                pass
        assert log.record("MatMult").self_seconds == 3.0
        assert log.record("KSPSolve").total_seconds == 10.0
        assert log.record("KSPSolve").self_seconds == 7.0

    def test_repeat_calls_accumulate(self):
        log = EventLog(clock=fake_clock([0.0, 0.0, 1.0, 2.0, 5.0]))
        for _ in range(2):
            with log.event("VecAXPY"):
                pass
        rec = log.record("VecAXPY")
        assert rec.calls == 2
        assert rec.total_seconds == 4.0

    def test_exceptions_still_close_the_event(self):
        log = EventLog(clock=fake_clock([0.0, 0.0, 2.0]))
        with pytest.raises(RuntimeError):
            with log.event("MatMult"):
                raise RuntimeError("kernel died")
        assert log.record("MatMult").calls == 1
        assert log.record("MatMult").total_seconds == 2.0


class TestFlops:
    def test_flop_rate_uses_self_time(self):
        log = EventLog(clock=fake_clock([0.0, 0.0, 2.0]))
        with log.event("MatMult", flops=4_000_000_000):
            pass
        assert log.record("MatMult").gflops_rate == pytest.approx(2.0)

    def test_zero_time_rate_is_zero(self):
        assert EventLog().record("x").gflops_rate == 0.0


class TestReporting:
    def test_fraction_partitions_unity(self):
        log = EventLog(clock=fake_clock([0.0, 0.0, 1.0, 1.0, 4.0]))
        with log.event("MatMult"):
            pass
        with log.event("VecDot"):
            pass
        assert log.fraction("MatMult") + log.fraction("VecDot") == pytest.approx(1.0)
        assert log.fraction("MatMult") == pytest.approx(0.25)

    def test_summary_sorted_by_self_time(self):
        log = EventLog(clock=fake_clock([0.0, 0.0, 1.0, 1.0, 9.0]))
        with log.event("small"):
            pass
        with log.event("big"):
            pass
        assert [r.name for r in log.summary()] == ["big", "small"]

    def test_render_contains_every_event(self):
        log = EventLog()
        with log.event("MatMult", flops=10):
            pass
        out = log.render()
        assert "MatMult" in out and "Gflop/s" in out

    def test_decorator(self):
        log = EventLog()

        @log.timed("work")
        def work(a, b):
            return a + b

        assert work(1, b=2) == 3
        assert log.record("work").calls == 1

    def test_decorator_preserves_function_metadata(self):
        log = EventLog()

        @log.timed("work")
        def work(a, b):
            """Add two numbers."""
            return a + b

        assert work.__name__ == "work"
        assert work.__doc__ == "Add two numbers."
        assert work.__wrapped__(1, 2) == 3

    def test_reset(self):
        log = EventLog()
        with log.event("x"):
            pass
        log.reset()
        assert log.record("x").calls == 0


class TestRealSolveAttribution:
    def test_matmult_dominates_a_jacobi_gmres_solve(self):
        """Instrument a real solve: the operator events must be visible."""
        import numpy as np

        from repro.ksp import GMRES, JacobiPC
        from repro.pde.problems import gray_scott_jacobian

        a = gray_scott_jacobian(16)
        log = EventLog()

        class LoggedOperator:
            shape = a.shape

            def multiply(self, x, y=None):
                with log.event("MatMult", flops=2 * a.nnz):
                    return a.multiply(x, y)

            def diagonal(self):
                return a.diagonal()

        b = np.random.default_rng(0).standard_normal(a.shape[0])
        with log.event("KSPSolve"):
            result = GMRES(pc=JacobiPC(), rtol=1e-8).solve(LoggedOperator(), b)
        assert result.reason.converged
        assert log.record("MatMult").calls >= result.iterations
        assert log.record("KSPSolve").total_seconds >= log.record(
            "MatMult"
        ).total_seconds
