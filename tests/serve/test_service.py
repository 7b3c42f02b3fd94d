"""SolveService end-to-end: correctness, batching, QoS, SPMD, faults."""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.faults.events import capture
from repro.ksp.gmres import GMRES
from repro.pde.problems import gray_scott_jacobian
from repro.serve import (
    AdmissionController,
    RequestKind,
    ResponseStatus,
    SolveRequest,
    SolveService,
)


def _mat(grid=8, seed=1):
    return gray_scott_jacobian(grid, seed=seed)


def _payloads(mat, k, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(mat.shape[1]) for _ in range(k)]


def test_submit_requires_started_service():
    service = SolveService()
    with pytest.raises(RuntimeError):
        asyncio.run(service.submit(SolveRequest(tenant="t", mat=_mat(), payload=None)))


def test_batched_answers_bit_identical_to_unbatched():
    mat = _mat()
    xs = _payloads(mat, 12)
    reference = ExecutionContext(default_variant="CSR using AVX512")
    expected = [reference.spmv(mat, x) for x in xs]

    async def run():
        # A long window forces every request into one wide pass.
        async with SolveService(batch_window=0.05, max_batch=16) as service:
            return await asyncio.gather(
                *(
                    service.submit(
                        SolveRequest(tenant=f"t{i}", mat=mat, payload=x)
                    )
                    for i, x in enumerate(xs)
                )
            ), service.stats()

    responses, stats = asyncio.run(run())
    widths = {r.batch_width for r in responses}
    assert max(widths) > 1, "the window never coalesced anything"
    for r, want in zip(responses, expected):
        assert r.ok
        assert r.result.tobytes() == want.tobytes()
    assert stats["spmv_batched_requests"] == len(xs)
    assert stats["registry"]["misses"].get("prepare") == 1, "single-flight broke"


def test_spmd_world_matches_sequential_bits():
    mat = _mat(grid=10)
    xs = _payloads(mat, 5)

    async def run(world_size):
        async with SolveService(
            world_size=world_size, batch_window=0.05, max_batch=8
        ) as service:
            return await asyncio.gather(
                *(
                    service.submit(SolveRequest(tenant=f"t{i}", mat=mat, payload=x))
                    for i, x in enumerate(xs)
                )
            )

    sequential = asyncio.run(run(1))
    spmd = asyncio.run(run(3))
    for a, b in zip(sequential, spmd):
        assert a.ok and b.ok
        assert a.result.tobytes() == b.result.tobytes(), (
            "row-partitioned SpMM must be bit-identical to the sequential pass"
        )


def test_solve_requests_run_gmres():
    mat = _mat(grid=6)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(mat.shape[0])

    async def run():
        async with SolveService(solver_rtol=1e-10) as service:
            return await service.submit(
                SolveRequest(tenant="t", mat=mat, payload=b, kind=RequestKind.SOLVE)
            )

    response = asyncio.run(run())
    assert response.ok and "iterations" in response.detail
    direct = GMRES(rtol=1e-10).solve(mat, b)
    assert np.allclose(response.result, direct.x)


def test_rejection_is_a_status_not_an_exception():
    async def run():
        admission = AdmissionController(queue_cap=16, shed_watermark=1.0)
        mat = _mat()
        async with SolveService(admission=admission) as service:
            # Exhaust the tenant's inflight cap synchronously: admission
            # slots are held from try_admit until the response resolves.
            admission.policies["t"] = type(admission.default_policy)(max_inflight=0)
            return await service.submit(SolveRequest(tenant="t", mat=mat, payload=None))

    response = asyncio.run(run())
    assert response.status is ResponseStatus.REJECTED
    assert "inflight cap" in response.detail


def test_timeout_yields_timeout_status_and_fault_event():
    mat = _mat()
    x = _payloads(mat, 1)[0]

    async def run():
        async with SolveService() as service:
            slow = service._spmm

            def stalled(shard, csr, payloads):
                time.sleep(0.2)
                return slow(shard, csr, payloads)

            service._spmm = stalled
            with capture() as log:
                response = await service.submit(
                    SolveRequest(tenant="t", mat=mat, payload=x, timeout=0.02)
                )
            return response, log.events, service.stats()

    response, events, stats = asyncio.run(run())
    assert response.status is ResponseStatus.TIMEOUT
    assert stats["timeout"] == 1
    assert any(
        e.action == "degraded" and e.site == "serve.deadline" for e in events
    )


def test_compute_failure_answers_every_batch_member():
    mat = _mat()
    xs = _payloads(mat, 3)

    async def run():
        async with SolveService(batch_window=0.05) as service:
            def broken(shard, csr, payloads):
                raise ValueError("poison pass")

            service._spmm = broken
            with capture() as log:
                responses = await asyncio.gather(
                    *(
                        service.submit(SolveRequest(tenant=f"t{i}", mat=mat, payload=x))
                        for i, x in enumerate(xs)
                    )
                )
            return responses, log.events

    responses, events = asyncio.run(run())
    assert all(r.status is ResponseStatus.ERROR for r in responses)
    assert all("poison pass" in r.detail for r in responses)
    assert any(e.action == "detected" and e.site == "serve.compute" for e in events)


def test_stop_answers_queued_work_and_is_reentrant():
    mat = _mat()
    xs = _payloads(mat, 4)

    async def run():
        service = SolveService(batch_window=0.05)
        await service.start()
        await service.start()  # idempotent
        pending = [
            asyncio.create_task(
                service.submit(SolveRequest(tenant=f"t{i}", mat=mat, payload=x))
            )
            for i, x in enumerate(xs)
        ]
        await asyncio.sleep(0)  # let submissions reach the queue
        await service.stop()
        responses = await asyncio.gather(*pending)
        await service.stop()  # no-op
        return responses

    responses = asyncio.run(run())
    assert all(r.ok for r in responses), "shutdown stranded queued requests"


def test_sharding_is_deterministic_and_in_range():
    service = SolveService(shards=4)
    for tenant in ("alice", "bob", "carol"):
        shard = service.shard_of(tenant)
        assert shard == service.shard_of(tenant)
        assert 0 <= shard < 4


def test_constructor_validation():
    with pytest.raises(ValueError):
        SolveService(shards=0)
    with pytest.raises(ValueError):
        SolveService(world_size=0)
    with pytest.raises(ValueError):
        SolveService(batch_window=-1.0)


def test_occupancy_and_stats_shape():
    mat = _mat()
    xs = _payloads(mat, 6)

    async def run():
        async with SolveService(batch_window=0.05, max_batch=8) as service:
            await asyncio.gather(
                *(
                    service.submit(SolveRequest(tenant=f"t{i}", mat=mat, payload=x))
                    for i, x in enumerate(xs)
                )
            )
            return service.stats()

    stats = asyncio.run(run())
    assert stats["requests"] == 6 and stats["ok"] == 6
    assert stats["occupancy"] > 1.0
    assert stats["admission"]["depth"] == 0
    assert 0.0 <= stats["registry"]["hit_rate"] <= 1.0


class TestLateResults:
    def test_late_completion_is_counted_and_dropped(self):
        mat = _mat()
        x = _payloads(mat, 1)[0]

        async def run():
            async with SolveService() as service:
                slow = service._spmm

                def stalled(shard, csr, payloads):
                    time.sleep(0.1)
                    return slow(shard, csr, payloads)

                service._spmm = stalled
                with capture() as log:
                    response = await service.submit(
                        SolveRequest(tenant="t", mat=mat, payload=x, timeout=0.01)
                    )
                    # Let the stalled compute finish and try to answer.
                    for _ in range(50):
                        await asyncio.sleep(0.01)
                        if service.stats()["late_results"]:
                            break
                return response, log.events, service.stats()

        response, events, stats = asyncio.run(run())
        assert response.status is ResponseStatus.TIMEOUT
        assert stats["late_results"] == 1  # counted, not silently vanished
        assert any(
            e.action == "benign"
            and e.site == "serve.deadline"
            and "after deadline" in e.detail
            for e in events
        )
