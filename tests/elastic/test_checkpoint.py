"""Checkpoint store: round-trips, fallback, corruption.

Pins the solver-checkpoint format: exact (bit-identical) round-trips of the recurrence state,
newest-wins scans that fall back past anything invalid, corrupt or
stale files rejected at load and never resurrected, and the
``ckpt.write`` fault site degrading to "fall back a cadence".
"""

import numpy as np
import pytest

from repro.faults.events import capture
from repro.faults.plan import FaultInjector, FaultPlan, FaultSpec, inject
from repro.ksp import GMRES, JacobiPC
from repro.ksp.checkpoint import (
    CheckpointError,
    Checkpointer,
    CheckpointStore,
    SolverCheckpoint,
    read_checkpoint,
)
from repro.ksp import checkpoint as checkpoint_mod
from repro.pde.problems import laplacian_2d


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path / "ckpts")


def _ckpt(iteration=10, solver="gmres", seed=0):
    rng = np.random.default_rng(seed)
    return SolverCheckpoint(
        solver=solver,
        iteration=iteration,
        x=rng.standard_normal(32),
        norms=[1.0, 0.25, 0.0625],
        rnorm0=4.0,
        state={
            "basis": rng.standard_normal((5, 32)),
            "givens": rng.standard_normal((4, 2)),
        },
        counters={"rng": 7, "epoch": 2},
    )


class TestRoundTrip:
    def test_save_load_is_bit_exact(self, store):
        ckpt = _ckpt()
        assert store.save(ckpt)
        loaded = store.load(10)
        assert loaded.solver == "gmres" and loaded.iteration == 10
        assert loaded.x.tobytes() == ckpt.x.tobytes()
        assert loaded.norms == ckpt.norms and loaded.rnorm0 == ckpt.rnorm0
        for key in ckpt.state:
            assert loaded.state[key].tobytes() == ckpt.state[key].tobytes()
        assert loaded.counters == ckpt.counters
        assert store.stats()["saves"] == 1 and store.stats()["loads"] == 1

    def test_latest_returns_the_newest(self, store):
        for it in (5, 10, 15):
            store.save(_ckpt(iteration=it, seed=it))
        assert store.latest().iteration == 15
        assert [p.name for p in store.entries()] == [
            "solve-00000005.ckpt",
            "solve-00000010.ckpt",
            "solve-00000015.ckpt",
        ]

    def test_latest_rejects_a_mismatched_solver_tag(self, store):
        store.save(_ckpt(iteration=5, solver="cg"))
        store.save(_ckpt(iteration=9, solver="gmres"))
        assert store.latest(solver="cg").iteration == 5
        # The gmres file was newer, rejected, and discarded by the scan.
        assert store.latest(solver="cg") is not None

    def test_empty_store_has_no_latest(self, store):
        assert store.latest() is None

    def test_job_tags_partition_the_directory(self, tmp_path):
        a = CheckpointStore(tmp_path, job="a")
        b = CheckpointStore(tmp_path, job="b")
        a.save(_ckpt(iteration=1))
        b.save(_ckpt(iteration=2))
        assert a.latest().iteration == 1
        assert b.latest().iteration == 2
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, job="bad/name")

    def test_clear_empties_the_job(self, store):
        for it in (1, 2, 3):
            store.save(_ckpt(iteration=it))
        assert store.clear() == 3
        assert store.entries() == []


class TestCorruption:
    def test_truncated_payload_is_rejected_and_falls_back(self, store):
        store.save(_ckpt(iteration=5, seed=5))
        store.save(_ckpt(iteration=10, seed=10))
        path = store.path_for(10)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)
        latest = store.latest()
        assert latest.iteration == 5  # fell back one snapshot
        assert not path.exists()  # rejected file discarded, never retried
        assert store.stats()["corrupt"] == 1

    def test_crc_mismatch_is_rejected(self, store):
        store.save(_ckpt(iteration=10))
        path = store.path_for(10)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip a payload byte under an intact header
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            read_checkpoint(path)
        assert store.latest() is None

    def test_garbage_header_is_rejected(self, store):
        store.save(_ckpt(iteration=10))
        store.path_for(10).write_bytes(b"not a checkpoint\ngarbage")
        with pytest.raises(CheckpointError):
            read_checkpoint(store.path_for(10))
        assert store.latest() is None

    def test_stale_format_version_never_loads(self, store, monkeypatch):
        store.save(_ckpt(iteration=10))
        monkeypatch.setattr(
            checkpoint_mod,
            "CKPT_FORMAT_VERSION",
            checkpoint_mod.CKPT_FORMAT_VERSION + 1,
        )
        with pytest.raises(CheckpointError, match="stale"):
            read_checkpoint(store.path_for(10))
        assert store.latest() is None

    def test_corrupt_file_never_resurrects(self, store):
        """Corrupt -> rejected+discarded -> a fresh save wins the slot."""
        store.save(_ckpt(iteration=10, seed=1))
        path = store.path_for(10)
        path.write_bytes(b"bit rot")
        assert store.latest() is None
        fresh = _ckpt(iteration=10, seed=2)
        assert store.save(fresh)
        assert store.latest().x.tobytes() == fresh.x.tobytes()


class TestFaultSite:
    def test_dropped_write_is_benign_and_skipped(self, store):
        plan = FaultPlan([FaultSpec("ckpt.write", 0, "drop")])
        with capture() as log:
            with inject(FaultInjector(plan)):
                assert store.save(_ckpt(iteration=5)) is False
        assert store.stats()["skipped"] == 1
        assert store.latest() is None
        assert ("benign", "ckpt.write") in {
            (ev[0], ev[1]) for ev in log.fingerprint()
        }

    def test_bitflipped_write_is_caught_on_load(self, store):
        store.save(_ckpt(iteration=5, seed=5))
        plan = FaultPlan([FaultSpec("ckpt.write", 0, "bitflip")])
        with capture() as log:
            with inject(FaultInjector(plan)):
                assert store.save(_ckpt(iteration=10, seed=10))
            latest = store.latest()
        assert latest.iteration == 5  # the torn write fell back a cadence
        assert ("detected", "ckpt.write") in {
            (ev[0], ev[1]) for ev in log.fingerprint()
        }


class TestCheckpointer:
    def test_cadence_schedule(self, store):
        cp = Checkpointer(store, cadence=25)
        assert [it for it in range(0, 101) if cp.due(it)] == [25, 50, 75, 100]
        with pytest.raises(ValueError):
            Checkpointer(store, cadence=0)

    def test_capture_snapshots_caller_counters(self, store):
        calls = {"n": 3}
        cp = Checkpointer(store, cadence=1, counters=lambda: dict(calls))
        assert cp.capture(_ckpt(iteration=1))
        calls["n"] = 9  # later mutation must not leak into the snapshot
        assert store.load(1).counters == {"n": 3}
        assert cp.taken == 1


class TestSolverResume:
    def test_gmres_resume_is_bit_identical(self, store):
        """Resume mid-solve from a snapshot: same iterates, same norms."""
        csr = laplacian_2d(12)
        b = np.random.default_rng(3).standard_normal(csr.shape[0])
        solver = GMRES(
            restart=20, pc=JacobiPC(), rtol=1e-10, max_it=400,
        )
        ref = solver.solve(csr, b, checkpointer=Checkpointer(store, 10))
        snap = store.load(10)
        resumed = solver.solve(csr, b, resume=snap)
        assert resumed.x.tobytes() == ref.x.tobytes()
        assert resumed.residual_norms == ref.residual_norms
        assert resumed.iterations == ref.iterations
