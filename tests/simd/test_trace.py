"""Unit tests for the trace recorder and the batched replayer."""

import numpy as np
import pytest

from repro.simd.isa import AVX512
from repro.simd.register import VectorRegister
from repro.simd.replay import compile_trace
from repro.simd.trace import TracedFloat, TracedRegister, TraceError, TraceRecorder


def recorder() -> TraceRecorder:
    return TraceRecorder(AVX512)


class TestProvenance:
    def test_registers_and_scalars_carry_trace_ids(self):
        rec = recorder()
        buf = np.arange(8, dtype=np.float64)
        rec.bind("buf", buf)
        reg = rec.load(buf, 0)
        assert isinstance(reg, TracedRegister)
        total = rec.reduce_add(reg)
        assert isinstance(total, TracedFloat)
        assert float(total) == float(buf.sum())

    def test_traced_float_is_a_float(self):
        """Kernel arithmetic must flow through untouched."""
        value = TracedFloat(2.5, 0)
        assert value + 1.0 == 3.5
        assert isinstance(value + 1.0, float)


class TestBufferBinding:
    def test_store_to_unbound_buffer_raises(self):
        rec = recorder()
        y = np.zeros(8)
        reg = rec.setzero()
        with pytest.raises(TraceError):
            rec.store(y, 0, reg)

    def test_unbound_read_only_array_is_snapshotted(self):
        rec = recorder()
        stray = np.arange(8, dtype=np.float64)
        rec.load(stray, 0)
        consts = [s for s in rec.buffers if not s.is_named]
        assert len(consts) == 1
        assert np.array_equal(consts[0].const, stray)

    def test_contiguous_multidim_buffer_binds_as_flat_view(self):
        rec = recorder()
        buf = np.arange(16, dtype=np.float64).reshape(4, 4)
        rec.bind("buf", buf)
        reg = rec.load(buf.reshape(-1), 8)
        assert np.array_equal(reg.data, np.arange(8, 16))
        assert rec.buffers[0].name == "buf"

    def test_non_contiguous_buffer_rejected(self):
        rec = recorder()
        buf = np.arange(32, dtype=np.float64).reshape(4, 8)[:, ::2]
        with pytest.raises(TraceError):
            rec.bind("buf", buf)

    def test_rebinding_same_array_under_new_name_raises(self):
        rec = recorder()
        buf = np.zeros(8)
        rec.bind("a", buf)
        with pytest.raises(TraceError):
            rec.bind("b", buf)

    def test_freed_temporaries_do_not_alias_one_snapshot(self):
        """Each short-lived read-only array keeps its own const slot.

        A temporary freed after its load can be reallocated at the same
        address; the recorder must not resolve the next one to the first
        one's frozen data.
        """
        rec = recorder()
        y = np.zeros(6)
        rec.bind("y", y)
        for i in range(6):
            reg = rec.load(np.full(8, float(i + 1)), 0)
            rec.scalar_store(y, i, rec.extract_lane(reg, 0))
        assert y.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        trace = compile_trace(rec)
        fresh = np.zeros(6)
        trace.replay({"y": fresh})
        assert np.array_equal(fresh, y)

    def test_store_into_a_snapshotted_buffer_raises(self):
        rec = recorder()
        y = np.zeros(8)
        rec.bind("y", y)
        tmp = np.ones(8)
        reg = rec.add(rec.load(tmp, 0), rec.load(tmp, 0))
        with pytest.raises(TraceError):
            rec.store(tmp, 0, reg)
        with pytest.raises(TraceError):
            rec.scalar_store(tmp, 0, 1.0)

    def test_const_snapshots_are_read_only(self):
        rec = recorder()
        rec.load(np.arange(8, dtype=np.float64), 0)
        (slot,) = rec.buffers
        assert not slot.const.flags.writeable


def record_axpy_like(rec, val, x, y):
    """A miniature kernel: y[0:8] = val * gathered(x) summed pairwise."""
    vec_vals = rec.load(val, 0)
    idx = VectorRegister(np.arange(8, dtype=np.int64)[::-1].copy())
    vec_x = rec.gather(x, idx)
    acc = rec.fmadd(vec_vals, vec_x, rec.setzero())
    rec.store(y, 0, acc)


class TestReplay:
    def test_replay_binds_fresh_buffers(self):
        rec = recorder()
        val = np.linspace(1.0, 2.0, 8)
        x = np.linspace(-1.0, 1.0, 8)
        y = np.zeros(8)
        rec.bind_buffers({"val": val, "x": x, "y": y})
        record_axpy_like(rec, val, x, y)
        trace = compile_trace(rec)

        val2 = np.linspace(3.0, 5.0, 8)
        x2 = np.linspace(2.0, 4.0, 8)
        y2 = np.zeros(8)
        trace.replay({"val": val2, "x": x2, "y": y2})
        assert np.array_equal(y2, val2 * x2[::-1])

    def test_replay_missing_buffer_raises(self):
        rec = recorder()
        val, x, y = np.ones(8), np.ones(8), np.zeros(8)
        rec.bind_buffers({"val": val, "x": x, "y": y})
        record_axpy_like(rec, val, x, y)
        trace = compile_trace(rec)
        with pytest.raises(TraceError):
            trace.replay({"val": val, "x": x})

    def test_replay_shape_mismatch_raises(self):
        rec = recorder()
        val, x, y = np.ones(8), np.ones(8), np.zeros(8)
        rec.bind_buffers({"val": val, "x": x, "y": y})
        record_axpy_like(rec, val, x, y)
        trace = compile_trace(rec)
        with pytest.raises(TraceError):
            trace.replay({"val": np.ones(16), "x": x, "y": y})

    def test_counters_are_returned_as_a_copy(self):
        rec = recorder()
        val, x, y = np.ones(8), np.ones(8), np.zeros(8)
        rec.bind_buffers({"val": val, "x": x, "y": y})
        record_axpy_like(rec, val, x, y)
        trace = compile_trace(rec)
        first = trace.replay({"val": val, "x": x, "y": y})
        first.vector_fmadd += 999
        second = trace.replay({"val": val, "x": x, "y": y})
        assert second.vector_fmadd == rec.counters.vector_fmadd

    def test_batching_collapses_independent_ops(self):
        """Many independent load/FMA chains become a handful of steps."""
        rec = recorder()
        n = 64
        val = np.arange(8 * n, dtype=np.float64)
        y = np.zeros(8 * n)
        rec.bind_buffers({"val": val, "y": y})
        for i in range(n):
            reg = rec.load(val, 8 * i)
            acc = rec.fmadd(reg, reg, rec.setzero())
            rec.store(y, 8 * i, acc)
        trace = compile_trace(rec)
        assert trace.nops == 4 * n
        assert trace.nsteps <= 4
        trace.replay({"val": val, "y": y})
        assert np.array_equal(y, val * val)

    def test_write_after_read_hazard_is_ordered(self):
        """A store to a cell must not overtake an earlier load of it."""
        rec = recorder()
        buf = np.arange(8, dtype=np.float64)
        rec.bind("buf", buf)
        reg = rec.load(buf, 0)              # reads buf[0:8]
        doubled = rec.add(reg, reg)
        rec.store(buf, 0, doubled)          # writes buf[0:8]
        reg2 = rec.load(buf, 0)             # must see the doubled values
        rec.store(buf, 0, rec.add(reg2, reg2))
        trace = compile_trace(rec)
        fresh = np.arange(8, dtype=np.float64)
        trace.replay({"buf": fresh})
        assert np.array_equal(fresh, 4 * np.arange(8))
