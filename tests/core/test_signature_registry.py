"""SignatureRegistry: keys, LRU, single-flight, and thread-safety.

The concurrency tests are the PR's acceptance stress: N threads hammer
M signatures through one shared registry / one shared context, and the
results must be bit-identical to sequential execution with exactly one
factory run (one trace recording, one format conversion, one tuning sweep)
per distinct signature.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.registry import CAPACITY, NAMESPACES, SignatureRegistry
from repro.core.sell import SellPlan
from repro.pde.problems import gray_scott_jacobian


def _mats():
    return [gray_scott_jacobian(g, seed=s) for g, s in ((8, 1), (8, 2), (6, 1))]


# -- key helpers ---------------------------------------------------------
def test_structure_key_ignores_values_content_key_does_not():
    a, b, c = _mats()  # a/b: same stencil, different coefficients
    assert SignatureRegistry.structure_key(a) == SignatureRegistry.structure_key(b)
    assert SignatureRegistry.content_key(a) != SignatureRegistry.content_key(b)
    assert SignatureRegistry.structure_key(a) != SignatureRegistry.structure_key(c)


def test_key_helpers_separate_their_dimensions():
    a, b, _ = _mats()
    assert SignatureRegistry.trace_key("CSR", 8, 1, False, a) == (
        SignatureRegistry.trace_key("CSR", 8, 1, False, b)
    ), "traces are structural: same stencil must share a trace key"
    assert SignatureRegistry.measure_key("CSR", 8, 1, False, a) != (
        SignatureRegistry.measure_key("CSR", 8, 1, False, b)
    ), "measurements are value-dependent"
    assert SignatureRegistry.prepare_key("SELL", 8, 1, a) != (
        SignatureRegistry.prepare_key("SELL", 4, 1, a)
    )
    p1 = ("KNL", "cache", 1)
    p64 = ("KNL", "cache", 64)
    assert SignatureRegistry.best_key(a, ("x",), 1.0, p1) != (
        SignatureRegistry.best_key(a, ("x",), 1.0, p64)
    ), "autotune winners are policy-scoped"
    assert SignatureRegistry.certificate_key("CSR", a, 8, 1, False) == (
        SignatureRegistry.certificate_key("CSR", b, 8, 1, False)
    ), "certificates are structural"
    assert SignatureRegistry.default_x_key(5) == (5,)


# -- the store -----------------------------------------------------------
def test_get_or_compute_runs_factory_once():
    reg = SignatureRegistry()
    calls = []
    for _ in range(3):
        value = reg.get_or_compute("measure", ("k",), lambda: calls.append(1) or 42)
    assert value == 42
    assert len(calls) == 1
    stats = reg.stats()
    assert stats["misses"] == {"measure": 1}
    assert stats["hits"] == {"measure": 2}
    assert stats["hit_rate"] == pytest.approx(2 / 3)


def test_cached_none_is_a_hit_not_a_recompute():
    reg = SignatureRegistry()
    calls = []
    assert reg.get_or_compute("numcert", ("k",), lambda: calls.append(1)) is None
    assert reg.get_or_compute("numcert", ("k",), lambda: calls.append(1)) is None
    assert len(calls) == 1


def test_invalidate_drops_a_completed_entry():
    reg = SignatureRegistry()
    reg.get_or_compute("trace", ("k",), lambda: "v")
    assert reg.size("trace") == reg.size() == 1
    assert reg.invalidate("trace", ("k",)) is True
    assert reg.invalidate("trace", ("k",)) is False
    assert reg.size() == 0
    assert reg.get_or_compute("trace", ("k",), lambda: "again") == "again"


def test_lru_eviction_drops_oldest_first():
    reg = SignatureRegistry()
    for i in range(CAPACITY + 2):
        reg.get_or_compute("measure", (i,), lambda i=i: i)
    stats = reg.stats()
    assert stats["entries"] == reg.size() == CAPACITY == stats["capacity"]
    assert stats["evictions"] == 2
    assert reg.get_or_compute("measure", (CAPACITY + 1,), pytest.fail) == CAPACITY + 1
    # Touching an entry refreshes it: 2 survives the next insert, 3 goes.
    assert reg.get_or_compute("measure", (2,), pytest.fail) == 2
    reg.get_or_compute("measure", ("new",), lambda: "new")
    assert reg.get_or_compute("measure", (2,), pytest.fail) == 2
    assert reg.stats()["evictions"] == 3
    for gone in (0, 1, 3):
        assert reg.get_or_compute("measure", (gone,), lambda: "recomputed") == "recomputed"


def test_failed_factory_caches_nothing():
    reg = SignatureRegistry()
    with pytest.raises(RuntimeError):
        reg.get_or_compute("best", ("k",), lambda: (_ for _ in ()).throw(RuntimeError("boom")))
    assert reg.get_or_compute("best", ("k",), lambda: "ok") == "ok"
    assert reg.stats()["misses"] == {"best": 2}


def test_replay_tallies():
    reg = SignatureRegistry()
    assert reg.bump_replay(("t",)) == 1
    assert reg.bump_replay(("t",)) == 2
    reg.clear_replay(("t",))
    assert reg.bump_replay(("t",)) == 1


def test_clear_resets_everything():
    reg = SignatureRegistry()
    reg.get_or_compute("measure", ("k",), lambda: 1)
    reg.bump_replay(("t",))
    reg.clear()
    stats = reg.stats()
    assert stats["entries"] == 0
    assert stats["hits"] == {} and stats["misses"] == {}
    assert reg.bump_replay(("t",)) == 1


def test_namespaces_include_the_execution_stack():
    assert set(NAMESPACES) >= {"measure", "prepare", "trace", "best"}
    assert "tune" not in NAMESPACES  # one sweep, memoized as "best"


# -- concurrency ---------------------------------------------------------
def test_single_flight_under_thread_stress():
    """N threads x M keys: every key computed exactly once, all agree."""
    reg = SignatureRegistry()
    n_threads, keys = 16, [(f"sig-{m}",) for m in range(6)]
    compute_log: list[tuple] = []
    log_lock = threading.Lock()

    def factory_for(key):
        def factory():
            time.sleep(0.005)  # hold the inflight window open
            with log_lock:
                compute_log.append(key)
            return ("value", key)
        return factory

    results: dict[int, list] = {}
    barrier = threading.Barrier(n_threads)

    def worker(tid: int) -> None:
        barrier.wait()
        out = []
        for key in keys if tid % 2 else reversed(keys):
            out.append(reg.get_or_compute("stress", key, factory_for(key)))
        results[tid] = out

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert sorted(compute_log) == sorted(keys), "a signature was computed twice"
    for tid, out in results.items():
        assert {v for v in out} == {("value", k) for k in keys}
    stats = reg.stats()
    assert stats["misses"] == {"stress": len(keys)}
    assert stats["single_flight_waits"] > 0, "stress never actually contended"
    assert stats["hits"]["stress"] + stats["misses"]["stress"] + 0 <= (
        n_threads * len(keys)
    )


def test_failed_leader_promotes_exactly_one_waiter():
    reg = SignatureRegistry()
    attempts = []
    gate = threading.Event()

    def flaky():
        attempts.append(threading.current_thread().name)
        gate.wait(1.0)
        if len(attempts) == 1:
            raise RuntimeError("leader dies")
        return "recovered"

    outcomes = {}

    def call(name):
        try:
            outcomes[name] = reg.get_or_compute("best", ("k",), flaky)
        except RuntimeError:
            outcomes[name] = "raised"

    threads = [threading.Thread(target=call, args=(f"t{i}",), name=f"t{i}") for i in range(3)]
    for t in threads:
        t.start()
    time.sleep(0.05)  # let one leader and two waiters settle
    gate.set()
    for t in threads:
        t.join()
    assert sorted(outcomes.values()) == ["raised", "recovered", "recovered"]
    assert len(attempts) == 2, "exactly one waiter retries after a failure"


def test_shared_context_threads_bit_identical_to_sequential(monkeypatch):
    """The PR's stress gate: concurrent serving == sequential serving.

    ``prepare`` is keyed by structure, and ``a``/``b`` share a stencil: the
    stampede must build one conversion plan per distinct structure and
    convert each operator object exactly once, and every answer must be
    bit-identical to sequential CSR serving.
    """
    mats = _mats()
    xs = [np.random.default_rng(7 + i).standard_normal(m.shape[1]) for i, m in enumerate(mats)]

    sequential = ExecutionContext(default_variant="CSR using AVX512")
    expected = [sequential.spmv(m, x) for m, x in zip(mats, xs)]

    refilled = []
    lock = threading.Lock()
    refill = SellPlan.refill

    def counting_refill(self, csr):
        with lock:
            refilled.append(csr)
        return refill(self, csr)

    monkeypatch.setattr(SellPlan, "refill", counting_refill)
    shared = ExecutionContext(default_variant="SELL using AVX512")
    n_threads, rounds = 12, 5
    got: dict[int, list] = {}
    barrier = threading.Barrier(n_threads)

    def worker(tid: int) -> None:
        barrier.wait()
        view = shared.view()  # shares the registry, like each SolveService shard
        out = []
        for r in range(rounds):
            i = (tid + r) % len(mats)
            out.append((i, view.spmv(mats[i], xs[i])))
        got[tid] = out

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often to expose races
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)

    assert sorted(got) == list(range(n_threads))
    for tid, out in got.items():
        for i, y in out:
            assert y.tobytes() == expected[i].tobytes(), (
                f"thread {tid} got different bits for operator {i}"
            )
    # Single-flight across the whole stampede: one plan per structure ...
    structures = {SignatureRegistry.structure_key(m) for m in mats}
    assert len(structures) == 2
    assert shared.registry.stats()["misses"]["prepare"] == len(structures)
    # ... and one conversion per operator object, reused on every request.
    assert sorted(map(id, refilled)) == sorted(map(id, mats))
    for m in mats:
        assert shared.reformat(m) is shared.reformat(m)
    assert len(refilled) == len(mats)
