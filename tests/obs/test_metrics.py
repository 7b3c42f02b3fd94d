"""The labeled metrics registry and its subsystem adapters."""

import json

import pytest

from repro.obs import MetricsRegistry


class TestPrimitives:
    def test_counter_accumulates(self):
        m = MetricsRegistry()
        m.counter("a").inc()
        m.counter("a").inc(2.5)
        assert m.snapshot()["a"] == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="Gauge"):
            MetricsRegistry().counter("a").inc(-1)

    def test_gauge_moves_both_ways(self):
        m = MetricsRegistry()
        g = m.gauge("residual")
        g.set(10.0)
        g.add(-4.0)
        assert m.snapshot()["residual"] == 6

    def test_histogram_summary(self):
        m = MetricsRegistry()
        h = m.histogram("t")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        d = m.snapshot()["t"]
        assert d["count"] == 3
        assert d["min"] == 1.0 and d["max"] == 3.0
        assert d["mean"] == pytest.approx(2.0)

    def test_empty_histogram_has_no_min_max(self):
        m = MetricsRegistry()
        m.histogram("t")
        assert m.snapshot()["t"] == {"count": 0, "sum": 0.0}

    def test_labels_make_distinct_series(self):
        m = MetricsRegistry()
        m.counter("simd.flops", labels={"variant": "sell"}).inc(10)
        m.counter("simd.flops", labels={"variant": "csr"}).inc(20)
        snap = m.snapshot()
        assert snap['simd.flops{variant="sell"}'] == 10
        assert snap['simd.flops{variant="csr"}'] == 20

    def test_label_order_is_canonical(self):
        m = MetricsRegistry()
        m.counter("x", labels={"b": "2", "a": "1"}).inc()
        m.counter("x", labels={"a": "1", "b": "2"}).inc()
        assert m.snapshot() == {'x{a="1",b="2"}': 2}

    def test_kind_mismatch_raises(self):
        m = MetricsRegistry()
        m.counter("a")
        with pytest.raises(TypeError, match="Counter"):
            m.gauge("a")


class TestAdapters:
    def test_kernel_counters_land_in_simd_namespace(self):
        from repro.core.context import ExecutionContext

        meas = ExecutionContext().measure("SELL using AVX512", _small())
        m = MetricsRegistry()
        m.record_kernel_counters(meas.counters, "SELL using AVX512")
        snap = m.snapshot()
        assert snap['simd.flops{variant="SELL using AVX512"}'] == meas.counters.flops
        assert 'simd.bytes_loaded{variant="SELL using AVX512"}' in snap

    def test_traffic_lands_in_comm_namespace(self):
        from repro.comm.communicator import TrafficStats

        m = MetricsRegistry()
        m.record_traffic(TrafficStats(messages=7, bytes=1024))
        assert m.snapshot() == {"comm.bytes": 1024, "comm.messages": 7}

    def test_resilience_counts_land_in_faults_namespace(self):
        from repro.faults.events import ResilienceLog

        log = ResilienceLog()
        log.emit("injected", "spmv.output", kind="bitflip")
        log.emit("detected", "spmv.output", kind="bitflip")
        m = MetricsRegistry()
        m.record_resilience(log)
        snap = m.snapshot()
        assert snap["faults.injected"] == 1
        assert snap["faults.detected"] == 1


class TestExport:
    def test_snapshot_is_sorted_and_integral_values_are_ints(self):
        m = MetricsRegistry()
        m.counter("b").inc(2)
        m.gauge("a").set(1.5)
        snap = m.snapshot()
        assert list(snap) == ["a", "b"]
        assert isinstance(snap["b"], int)
        assert snap["a"] == 1.5

    def test_json_round_trip(self, tmp_path):
        m = MetricsRegistry()
        m.counter("a").inc()
        m.histogram("h").observe(2.0)
        path = tmp_path / "metrics.json"
        m.write_json(path)
        assert json.loads(path.read_text()) == m.snapshot()

    def test_reset_and_len(self):
        m = MetricsRegistry()
        m.counter("a")
        m.gauge("b")
        assert len(m) == 2
        m.reset()
        assert len(m) == 0


def _small():
    from repro.pde.problems import gray_scott_jacobian

    return gray_scott_jacobian(4)
