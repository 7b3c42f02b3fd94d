"""Edge cases across subsystems that the focused suites leave uncovered."""

import numpy as np
import pytest


class TestEventLogReentrancy:
    def test_same_event_nested_in_itself_counts_both_frames(self):
        """Recursive regions accumulate inclusive time per entry — the
        PETSc behaviour (PetscLogEventBegin nests by depth)."""
        from repro.obs import EventLog

        times = iter([0.0, 0.0, 1.0, 2.0, 5.0])
        log = EventLog(clock=lambda: next(times))
        with log.event("solve"):
            with log.event("solve"):
                pass
        rec = log.record("solve")
        assert rec.calls == 2
        # Inner frame: 1..2 (1s); outer: 0..5 inclusive (5s).
        assert rec.total_seconds == 6.0
        # Self time: inner 1s, outer 5-1=4s.
        assert rec.self_seconds == 5.0


class TestPredictDefaults:
    def test_predict_without_working_set_uses_the_matrix_footprint(self):
        from repro.core.context import ExecutionContext
        from repro.machine.perf_model import MemoryMode, PerfModel
        from repro.machine.specs import KNL_7230
        from repro.pde.problems import gray_scott_jacobian

        csr = gray_scott_jacobian(8)
        model = PerfModel(spec=KNL_7230, mode=MemoryMode.CACHE, overlap=0.5)
        ctx = ExecutionContext(model=model, nprocs=64)
        meas = ctx.measure("SELL using AVX512", csr)
        # Must not raise despite no explicit working_set: the default
        # footprint feeds the cache-mode blend.
        perf = ctx.predict(meas, scale=1000.0)
        assert perf.gflops > 0


class TestSeqVecEdges:
    def test_empty_vector_operations(self):
        from repro.vec import SeqVec

        v = SeqVec(0)
        assert v.norm("2") == 0.0
        assert v.norm("inf") == 0.0
        assert v.dot(SeqVec(0)) == 0.0


class TestCommOrdering:
    def test_any_tag_preserves_arrival_order(self):
        from repro.comm import ANY_TAG, run_spmd

        def prog(comm):
            if comm.rank == 0:
                for i in range(3):
                    comm.send(i, dest=1, tag=50 + i)
                return None
            return [comm.recv(source=0, tag=ANY_TAG) for _ in range(3)]

        assert run_spmd(2, prog)[1] == [0, 1, 2]


class TestFig10Labels:
    def test_every_mode_has_a_label(self):
        from repro.bench.experiments.fig10 import MODE_LABELS, MODES

        assert set(MODES) <= set(MODE_LABELS)


class TestMatrixShapeErrors:
    def test_error_message_names_both_dimensions(self):
        from repro.mat.base import MatrixShapeError
        from repro.pde.problems import tridiagonal

        a = tridiagonal(5)
        with pytest.raises(MatrixShapeError, match="5x5"):
            a.multiply(np.ones(7))


class TestCalibrateCli:
    def test_main_prints_a_fit(self, capsys, monkeypatch):
        """The calibrate CLI produces a CostTable and residual table."""
        import repro.machine.calibrate as cal

        # Shrink the work: tiny grid, few rounds.
        real_measure = cal.CalibrationProblem.measure
        monkeypatch.setattr(
            cal.CalibrationProblem,
            "measure",
            classmethod(lambda cls, grid=8, target_grid=2048: real_measure(8)),
        )
        original_fit = cal.fit
        monkeypatch.setattr(
            cal, "fit", lambda prob, **kw: original_fit(prob, rounds=1)
        )
        cal.main()
        out = capsys.readouterr().out
        assert "KNL_COSTS = CostTable(" in out
        assert "SELL using AVX512" in out
