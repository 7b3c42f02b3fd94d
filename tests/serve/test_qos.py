"""AdmissionController and CircuitBreaker: caps, isolation, shedding,
tripping, and their fault events inside a live SolveService."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.faults.events import capture
from repro.pde.problems import gray_scott_jacobian
from repro.serve import ResponseStatus, SolveService
from repro.serve.qos import AdmissionController, CircuitBreaker, TenantPolicy
from repro.serve.request import SolveRequest


def _req(tenant="a", priority=1):
    return SolveRequest(tenant=tenant, mat=None, payload=None, priority=priority)


def test_admit_then_release_roundtrip():
    gate = AdmissionController(queue_cap=4)
    r = _req()
    assert gate.try_admit(r) is None
    assert gate.depth() == 1
    gate.release(r)
    assert gate.depth() == 0
    stats = gate.stats()
    assert stats["admitted"] == 1 and stats["rejected"] == 0


def test_queue_cap_refuses_at_capacity():
    gate = AdmissionController(queue_cap=2, shed_watermark=1.0)
    admitted = [_req(tenant=f"t{i}") for i in range(2)]
    for r in admitted:
        assert gate.try_admit(r) is None
    reason = gate.try_admit(_req(tenant="late"))
    assert reason is not None and "queue full" in reason
    gate.release(admitted[0])
    assert gate.try_admit(_req(tenant="late")) is None


def test_tenant_inflight_cap_isolates_tenants():
    gate = AdmissionController(
        queue_cap=16,
        shed_watermark=1.0,
        policies={"greedy": TenantPolicy(max_inflight=1)},
    )
    first = _req(tenant="greedy")
    assert gate.try_admit(first) is None
    reason = gate.try_admit(_req(tenant="greedy"))
    assert reason is not None and "inflight cap" in reason
    assert gate.try_admit(_req(tenant="other")) is None, (
        "one tenant's cap must not refuse another tenant"
    )
    gate.release(first)
    assert gate.try_admit(_req(tenant="greedy")) is None


def test_overload_sheds_low_priority_and_emits_fault_events():
    gate = AdmissionController(queue_cap=4, shed_watermark=0.5, shed_priority=0)
    with capture() as log:
        held = [_req(tenant=f"t{i}", priority=2) for i in range(2)]
        for r in held:
            assert gate.try_admit(r) is None
        assert gate.overloaded
        shed = gate.try_admit(_req(tenant="bg", priority=0))
        assert shed is not None and "shed under overload" in shed
        assert gate.try_admit(_req(tenant="vip", priority=2)) is None
        for r in held:
            gate.release(r)
        assert not gate.overloaded
    actions = [(e.action, e.site) for e in log.events]
    assert ("degraded", "serve.overload") in actions
    assert ("recovered", "serve.overload") in actions


def test_tenant_opt_in_shedding_threshold():
    gate = AdmissionController(
        queue_cap=4,
        shed_watermark=0.5,
        shed_priority=0,
        policies={"best-effort": TenantPolicy(min_priority_under_load=2)},
    )
    held = [_req(tenant=f"t{i}", priority=3) for i in range(2)]
    for r in held:
        assert gate.try_admit(r) is None
    # Global floor sheds only priority <= 0, but this tenant opted its
    # sub-2 traffic into shedding.
    assert gate.try_admit(_req(tenant="best-effort", priority=1)) is not None
    assert gate.try_admit(_req(tenant="best-effort", priority=2)) is None


def test_constructor_validation():
    with pytest.raises(ValueError):
        AdmissionController(queue_cap=0)
    with pytest.raises(ValueError):
        AdmissionController(shed_watermark=0.0)
    with pytest.raises(ValueError):
        AdmissionController(shed_watermark=1.5)


# -- circuit breaker -------------------------------------------------------


def _trip(breaker, tenant="a", n=None):
    for _ in range(n if n is not None else breaker.failure_threshold):
        breaker.record(tenant, False)


def test_breaker_trips_on_consecutive_failures_only():
    breaker = CircuitBreaker(failure_threshold=3)
    breaker.record("a", False)
    breaker.record("a", False)
    breaker.record("a", True)  # a success resets the streak
    breaker.record("a", False)
    breaker.record("a", False)
    assert breaker.state("a") == "closed"
    breaker.record("a", False)
    assert breaker.state("a") == "open"
    assert breaker.stats()["tripped"] == 1


def test_open_circuit_refuses_then_half_opens_after_cooldown():
    breaker = CircuitBreaker(failure_threshold=1, cooldown=3)
    with capture() as log:
        _trip(breaker)
        refusals = [breaker.allow("a") for _ in range(3)]
    assert all(r is not None and "circuit open" in r for r in refusals)
    assert breaker.state("a") == "half-open"
    assert breaker.stats()["refused"] == 3
    assert any(
        e.action == "degraded" and e.site == "serve.breaker" for e in log.events
    )


def test_half_open_admits_exactly_one_probe():
    breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
    _trip(breaker)
    assert breaker.allow("a") is not None  # cooldown refusal -> half-open
    assert breaker.allow("a") is None  # the probe
    assert "probe in flight" in breaker.allow("a")  # second concurrent ask
    with capture() as log:
        breaker.record("a", True)
    assert breaker.state("a") == "closed"
    assert any(
        e.action == "recovered" and e.site == "serve.breaker" for e in log.events
    )


def test_failed_probe_reopens_the_circuit():
    breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
    _trip(breaker)
    breaker.allow("a")
    assert breaker.allow("a") is None
    breaker.record("a", False)
    assert breaker.state("a") == "open"


def test_cancel_returns_the_probe_slot():
    breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
    _trip(breaker)
    breaker.allow("a")
    assert breaker.allow("a") is None  # probe slot taken
    breaker.cancel("a")  # the probe never ran (shed downstream)
    assert breaker.allow("a") is None  # slot available again, not leaked


def test_breaker_isolates_tenants_and_validates():
    breaker = CircuitBreaker(failure_threshold=1)
    _trip(breaker, tenant="sad")
    assert breaker.state("sad") == "open"
    assert breaker.state("happy") == "closed"
    assert breaker.allow("happy") is None
    assert breaker.stats()["open"] == ["sad"]
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(cooldown=0)


def _mat(grid=8, seed=1):
    return gray_scott_jacobian(grid, seed=seed)


def _payloads(mat, k, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(mat.shape[1]) for _ in range(k)]


class TestBreakerIntegration:
    def test_failing_tenant_trips_then_recovers_through_a_probe(self):
        mat = _mat()
        xs = _payloads(mat, 12)
        breaker = CircuitBreaker(failure_threshold=2, cooldown=2)

        async def run():
            async with SolveService(breaker=breaker) as service:
                healthy = service._spmm

                def broken(shard, csr, payloads):
                    raise ValueError("shard on fire")

                service._spmm = broken
                with capture() as log:
                    failures = [
                        await service.submit(
                            SolveRequest(tenant="t", mat=mat, payload=x)
                        )
                        for x in xs[:2]
                    ]
                    assert breaker.state("t") == "open"
                    refusals = [
                        await service.submit(
                            SolveRequest(tenant="t", mat=mat, payload=x)
                        )
                        for x in xs[2:4]
                    ]
                    service._spmm = healthy  # the shard heals
                    probe = await service.submit(
                        SolveRequest(tenant="t", mat=mat, payload=xs[4])
                    )
                return failures, refusals, probe, log.events, service.stats()

        failures, refusals, probe, events, stats = asyncio.run(run())
        assert all(r.status is ResponseStatus.ERROR for r in failures)
        assert all(r.status is ResponseStatus.REJECTED for r in refusals)
        assert all("circuit open" in r.detail for r in refusals)
        assert probe.ok  # the half-open probe closed the circuit
        assert breaker.state("t") == "closed"
        assert stats["breaker"]["tripped"] == 1
        actions = {(e.action, e.site) for e in events}
        assert ("degraded", "serve.breaker") in actions
        assert ("recovered", "serve.breaker") in actions

    def test_one_tenants_circuit_does_not_punish_another(self):
        mat = _mat()
        x = _payloads(mat, 1)[0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown=8)

        async def run():
            async with SolveService(breaker=breaker) as service:
                healthy = service._spmm

                def broken(shard, csr, payloads):
                    raise ValueError("boom")

                service._spmm = broken
                await service.submit(SolveRequest(tenant="sad", mat=mat, payload=x))
                service._spmm = healthy
                blocked = await service.submit(
                    SolveRequest(tenant="sad", mat=mat, payload=x)
                )
                fine = await service.submit(
                    SolveRequest(tenant="happy", mat=mat, payload=x)
                )
                return blocked, fine

        blocked, fine = asyncio.run(run())
        assert blocked.status is ResponseStatus.REJECTED
        assert fine.ok
