"""On-disk plan store: round-trips, invalidation, corruption, cold starts.

The plan cache (:mod:`repro.simd.plan_cache`) persists the one fused
program per structure across processes, content-addressed by structure
signature + format + compiler-tier revision.  These tests pin its
contract: exact round-trips, version bumps making old entries
unreachable, single-flight writes under thread races, corrupt files
degrading to misses (and never resurrecting after invalidation), and a
warm cache carrying a cold registry straight past record+compile.
"""

import threading

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.registry import PERSISTED_NAMESPACES, SignatureRegistry
from repro.pde.problems import gray_scott_jacobian
from repro.simd import plan_cache as plan_cache_mod
from repro.simd.plan_cache import (
    PlanCache,
    PlanCacheError,
    plan_token,
    read_plan,
)


@pytest.fixture
def cache(tmp_path):
    return PlanCache(tmp_path / "plans")


KEY = ("SELL using AVX512", 8, 1, "sig-abc")


class TestRoundTrip:
    def test_store_fetch_round_trip(self, cache):
        value = {"steps": [1, 2, 3], "plan": np.arange(6).reshape(2, 3)}
        assert cache.store("trace", KEY, value)
        loaded = cache.load("trace", KEY)
        assert loaded["steps"] == value["steps"]
        assert np.array_equal(loaded["plan"], value["plan"])
        assert cache.stats()["hits"] == 1

    def test_miss_on_absent_entry(self, cache):
        assert cache.load("trace", KEY) is None
        assert cache.stats()["misses"] == 1

    def test_namespaces_do_not_collide(self, cache):
        cache.store("trace", KEY, "trace-payload")
        cache.store("verify", KEY, "verify-payload")
        assert cache.load("trace", KEY) == "trace-payload"
        assert cache.load("verify", KEY) == "verify-payload"
        assert cache.stats()["files"] == 2

    def test_header_is_json_and_self_describing(self, cache):
        cache.store("trace", KEY, [1.5, 2.5])
        header, value = read_plan(cache.path_for("trace", KEY))
        assert header["namespace"] == "trace"
        assert header["format_version"] == plan_cache_mod.PLAN_FORMAT_VERSION
        assert value == [1.5, 2.5]

    def test_evict_removes_the_file(self, cache):
        cache.store("trace", KEY, "payload")
        assert cache.contains("trace", KEY)
        assert cache.evict("trace", KEY)
        assert not cache.contains("trace", KEY)
        assert not cache.evict("trace", KEY)  # second evict: nothing there
        assert cache.stats()["evictions"] == 1


class TestVersioning:
    def test_format_version_bump_orphans_old_entries(self, cache, monkeypatch):
        cache.store("trace", KEY, "old-format")
        monkeypatch.setattr(
            plan_cache_mod,
            "PLAN_FORMAT_VERSION",
            plan_cache_mod.PLAN_FORMAT_VERSION + 1,
        )
        # Token changed: the old entry is unreachable, a miss.
        assert cache.load("trace", KEY) is None

    def test_megakernel_revision_bump_orphans_old_entries(
        self, cache, monkeypatch
    ):
        cache.store("trace", KEY, "rev-1-plan")
        monkeypatch.setattr(
            plan_cache_mod,
            "MEGAKERNEL_REVISION",
            plan_cache_mod.MEGAKERNEL_REVISION + 1,
        )
        assert cache.load("trace", KEY) is None

    def test_token_is_deterministic_and_key_sensitive(self):
        assert plan_token("trace", KEY) == plan_token("trace", KEY)
        assert plan_token("trace", KEY) != plan_token("verify", KEY)
        assert plan_token("trace", KEY) != plan_token("trace", KEY[:-1])


class TestCorruption:
    def test_truncated_payload_degrades_to_miss_and_is_discarded(self, cache):
        cache.store("trace", KEY, list(range(1000)))
        path = cache.path_for("trace", KEY)
        path.write_bytes(path.read_bytes()[:-40])
        assert cache.load("trace", KEY) is None
        assert not path.exists()  # discarded, not left to fail every process
        stats = cache.stats()
        assert stats["corrupt"] == 1 and stats["misses"] == 1
        # The slot is rebuildable immediately.
        assert cache.store("trace", KEY, "fresh")
        assert cache.load("trace", KEY) == "fresh"

    def test_garbage_header_degrades_to_miss(self, cache):
        cache.store("trace", KEY, "payload")
        cache.path_for("trace", KEY).write_bytes(b"not a plan at all\n")
        assert cache.load("trace", KEY) is None
        assert cache.stats()["corrupt"] == 1

    def test_read_plan_raises_on_corruption(self, cache):
        cache.store("trace", KEY, "payload")
        path = cache.path_for("trace", KEY)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(PlanCacheError):
            read_plan(path)


class TestRegistryPersistence:
    def test_leader_stores_and_cold_registry_skips_factory(self, tmp_path):
        cache = PlanCache(tmp_path)
        warm = SignatureRegistry()
        warm.attach_plan_cache(cache)
        calls = []

        def factory():
            calls.append(1)
            return {"compiled": True}

        assert warm.get_or_compute("trace", KEY, factory) == {"compiled": True}
        assert calls == [1]
        assert cache.contains("trace", KEY)

        cold = SignatureRegistry()
        cold.attach_plan_cache(PlanCache(tmp_path))
        got = cold.get_or_compute(
            "trace", KEY, lambda: pytest.fail("cold registry ran the factory")
        )
        assert got == {"compiled": True}

    def test_unpersisted_namespaces_never_touch_disk(self, tmp_path):
        cache = PlanCache(tmp_path)
        reg = SignatureRegistry()
        reg.attach_plan_cache(cache)
        assert "measure" not in PERSISTED_NAMESPACES
        reg.get_or_compute("measure", KEY, lambda: "a measurement")
        assert cache.stats()["files"] == 0

    def test_invalidate_evicts_the_disk_entry(self, tmp_path):
        cache = PlanCache(tmp_path)
        reg = SignatureRegistry()
        reg.attach_plan_cache(cache)
        reg.get_or_compute("trace", KEY, lambda: "v1")
        assert cache.contains("trace", KEY)
        assert reg.invalidate("trace", KEY)
        assert not cache.contains("trace", KEY)
        # Recompute repopulates memory AND disk.
        assert reg.get_or_compute("trace", KEY, lambda: "v2") == "v2"
        assert cache.load("trace", KEY) == "v2"

    def test_corrupted_plan_never_resurrects(self, tmp_path):
        """Corrupt on disk -> invalidate -> recompute -> fresh valid plan."""
        warm = SignatureRegistry()
        cache = PlanCache(tmp_path)
        warm.attach_plan_cache(cache)
        warm.get_or_compute("trace", KEY, lambda: "good-plan")
        path = cache.path_for("trace", KEY)
        path.write_bytes(b"bit rot")

        # The ABFT path on a failed audit: invalidate memory + disk.
        warm.invalidate("trace", KEY)
        assert not path.exists()

        # A cold process must recompute, never load the rotten bytes —
        # even if the corrupt file had survived the eviction.
        path.write_bytes(b"bit rot again")
        cold = SignatureRegistry()
        cold.attach_plan_cache(PlanCache(tmp_path))
        assert cold.get_or_compute("trace", KEY, lambda: "rebuilt") == "rebuilt"
        _header, value = read_plan(path)
        assert value == "rebuilt"

    def test_concurrent_get_or_compute_writes_once(self, tmp_path):
        cache = PlanCache(tmp_path)
        reg = SignatureRegistry()
        reg.attach_plan_cache(cache)
        calls = []
        barrier = threading.Barrier(8)
        results = []

        def factory():
            calls.append(1)
            return "the-plan"

        def worker():
            barrier.wait()
            results.append(reg.get_or_compute("trace", KEY, factory))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == ["the-plan"] * 8
        assert len(calls) == 1  # single-flight compute
        assert cache.stats()["stores"] == 1  # and a single store

    def test_stats_exposes_plan_cache(self, tmp_path):
        reg = SignatureRegistry()
        assert "plan_cache" not in reg.stats()
        reg.attach_plan_cache(PlanCache(tmp_path))
        assert reg.stats()["plan_cache"]["files"] == 0


class TestContextWiring:
    def test_plan_cache_dir_attaches_and_reports_persisted_tier(
        self, tmp_path
    ):
        ctx = ExecutionContext(plan_cache_dir=tmp_path)
        assert ctx.registry.plan_cache is not None
        assert ctx.compiler_tier == "persisted"
        assert ExecutionContext().compiler_tier == "megakernel"

    def test_env_var_attaches_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "env-plans"))
        ctx = ExecutionContext()
        assert ctx.registry.plan_cache is not None
        assert ctx.compiler_tier == "persisted"

    def test_cold_context_measures_without_record_or_compile(self, tmp_path):
        csr = gray_scott_jacobian(5)
        x = np.random.default_rng(2).standard_normal(csr.shape[1])
        variant = "SELL using AVX512"

        warm = ExecutionContext(plan_cache_dir=tmp_path)
        warm.measure(variant, csr, x=x + 1.0)  # records + fuses the program
        meas_warm = warm.measure(variant, csr, x=x)  # replays it
        assert warm.registry.plan_cache.stats()["stores"] == 1

        cold = ExecutionContext(plan_cache_dir=tmp_path)
        meas_cold = cold.measure(variant, csr, x=x)
        stats = cold.registry.plan_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert np.array_equal(meas_cold.y, meas_warm.y)
        assert meas_cold.counters.as_dict() == meas_warm.counters.as_dict()

    def test_trace_invalidation_evicts_memory_and_disk_plan(self, tmp_path):
        from repro.core.dispatch import get_variant

        csr = gray_scott_jacobian(5)
        ctx = ExecutionContext(plan_cache_dir=tmp_path)
        variant_name = "SELL using AVX512"
        ctx.measure(variant_name, csr)
        ctx.measure(variant_name, csr, x=np.full(csr.shape[1], 0.5))
        cache = ctx.registry.plan_cache
        assert cache.stats()["files"] == 1
        assert ctx.registry.size("trace") == 1

        ctx._invalidate_trace(get_variant(variant_name), csr, 8, 1)
        assert cache.stats()["files"] == 0
        assert ctx.registry.size("trace") == 0
