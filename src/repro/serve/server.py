"""The asyncio solve service: shards, batch windows, QoS, degradation.

:class:`SolveService` is the multi-tenant front door over the execution
stack.  One service owns one :class:`~repro.core.registry.SignatureRegistry`
(through its template :class:`~repro.core.context.ExecutionContext`) and
derives a cheap context *view* per shard — so every shard, and every
tenant on it, shares format conversions, recorded traces and autotune
decisions, with the registry's single-flight
semantics guaranteeing each signature is prepared exactly once however
many requests race on a cold cache.

The request path::

    submit() ── admission (QoS gate) ── shard queue ── worker
                                                        │ drain window
                                                        │ plan batches
                                                        ▼
                                  executor thread: one SpMM per group
                                                        │
    response future  ◄──────────────────────────────────┘

* **Sharding** — tenants hash onto ``shards`` worker queues
  (deterministically, CRC32 of the tenant name), each with its own
  context view and executor thread; with ``world_size > 1`` each SpMM
  additionally row-partitions the operator across a simulated SPMD
  world (:func:`repro.comm.spmd.run_spmd`), the serving analogue of the
  paper's MPI runs.
* **Batching** — a worker drains its queue for ``batch_window`` seconds
  and hands the window to the :class:`~repro.serve.batcher.SignatureBatcher`,
  which folds same-operator SpMV requests into one multi-vector pass.
  Batched and unbatched answers are bit-identical (see
  :meth:`repro.mat.base.Mat.multiply_multi`).
* **QoS** — the :class:`~repro.serve.qos.AdmissionController` bounds the
  queue, isolates tenants, and sheds low-priority work under overload;
  deadline expiries and overload transitions are reported through the
  fault framework's event stream as graceful degradation.
"""

from __future__ import annotations

import asyncio
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..comm.partition import RowLayout, row_block
from ..comm.spmd import run_spmd
from ..core.context import ExecutionContext
from ..core.registry import SignatureRegistry
from ..faults.events import emit as emit_fault_event
from ..mat.aij import AijMat
from ..obs.observer import obs_counter
from .batcher import Batch, SignatureBatcher
from .qos import AdmissionController, CircuitBreaker
from .request import (
    RequestKind,
    ResponseStatus,
    SolveRequest,
    SolveResponse,
)


@dataclass
class _Pending:
    """One queued request and the future its tenant awaits."""

    request: SolveRequest
    future: asyncio.Future = field(repr=False)
    shard: int = 0
    late: bool = False  #: deadline expired; any answer is a late result


class SolveService:
    """Asyncio multi-tenant SpMV/solve service over a shared registry.

    Parameters
    ----------
    ctx:
        Template execution context; its registry is the service-wide
        cache.  Defaults to a context pinned to the paper's vectorized
        CSR kernel (``default_variant="CSR using AVX512"``) so serving
        never blocks a request window on an autotune sweep; pass a
        context without a default variant to let the (registry-memoized,
        single-flight) autotuner pick per structure.
    shards:
        Worker queues / context views / executor threads.  Tenants are
        hashed across them.
    world_size:
        Simulated SPMD ranks per SpMM; 1 serves on the sequential path.
    batch_window:
        Seconds a worker waits to let same-operator requests coalesce
        after the first request of a window arrives.  0 disables the
        wait (batches still form from whatever is already queued).
    max_batch:
        Cap on one SpMM pass's width (forwarded to the batcher).
    admission:
        The QoS gate; defaults to a fresh
        :class:`~repro.serve.qos.AdmissionController`.
    breaker:
        Per-tenant circuit breaker; defaults to a fresh
        :class:`~repro.serve.qos.CircuitBreaker`.  A tenant whose
        requests keep failing is refused instantly instead of queueing
        up to fail again.
    solver_rtol:
        Relative tolerance of the GMRES solves the service runs for
        :attr:`~repro.serve.request.RequestKind.SOLVE` requests.
    """

    def __init__(
        self,
        ctx: ExecutionContext | None = None,
        shards: int = 1,
        world_size: int = 1,
        batch_window: float = 0.0015,
        max_batch: int = 8,
        admission: AdmissionController | None = None,
        breaker: CircuitBreaker | None = None,
        solver_rtol: float = 1.0e-8,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        if world_size < 1:
            raise ValueError("world_size must be positive")
        if batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        self.ctx = ctx if ctx is not None else ExecutionContext(
            default_variant="CSR using AVX512"
        )
        self.registry: SignatureRegistry = self.ctx.registry
        self.shards = shards
        self.world_size = world_size
        self.batch_window = batch_window
        self.batcher = SignatureBatcher(max_batch=max_batch)
        self.admission = admission or AdmissionController()
        self.breaker = breaker or CircuitBreaker()
        self.solver_rtol = solver_rtol
        self._shard_ctxs = [self.ctx.view() for _ in range(shards)]
        self._queues: list[asyncio.Queue] = []
        self._workers: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self._seq = 0
        self._started = False
        # Mutated only from the event-loop thread.
        self._stats = {
            "requests": 0,
            "ok": 0,
            "rejected": 0,
            "timeout": 0,
            "error": 0,
            "spmv_batches": 0,
            "spmv_batched_requests": 0,
            "solves": 0,
            "max_batch_width": 0,
            "late_results": 0,
        }

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Spawn the shard workers (idempotent)."""
        if self._started:
            return
        self._executor = ThreadPoolExecutor(
            max_workers=self.shards, thread_name_prefix="serve-worker"
        )
        self._queues = [asyncio.Queue() for _ in range(self.shards)]
        self._workers = [
            asyncio.create_task(self._worker(shard), name=f"serve-{shard}")
            for shard in range(self.shards)
        ]
        self._started = True

    async def stop(self) -> None:
        """Drain and join every worker, then release the executor."""
        if not self._started:
            return
        for queue in self._queues:
            queue.put_nowait(None)
        await asyncio.gather(*self._workers)
        assert self._executor is not None
        self._executor.shutdown(wait=True)
        self._executor = None
        self._workers = []
        self._queues = []
        self._started = False

    async def __aenter__(self) -> "SolveService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- the front door ------------------------------------------------
    def shard_of(self, tenant: str) -> int:
        """The shard serving a tenant (stable across processes)."""
        return zlib.crc32(tenant.encode()) % self.shards

    async def submit(self, request: SolveRequest) -> SolveResponse:
        """Admit, enqueue, and await one request.

        Always returns a :class:`SolveResponse`; refusals and deadline
        expiries come back as statuses, not exceptions (a tenant's bad
        luck must never look like a server crash).
        """
        if not self._started:
            raise RuntimeError("service not started; use 'async with' or start()")
        self._stats["requests"] += 1
        shard = self.shard_of(request.tenant)
        reason = self.breaker.allow(request.tenant)
        if reason is not None:
            self._stats["rejected"] += 1
            return SolveResponse(
                status=ResponseStatus.REJECTED,
                tenant=request.tenant,
                kind=request.kind,
                shard=shard,
                detail=reason,
            )
        reason = self.admission.try_admit(request)
        if reason is not None:
            self._stats["rejected"] += 1
            self.breaker.cancel(request.tenant)
            return SolveResponse(
                status=ResponseStatus.REJECTED,
                tenant=request.tenant,
                kind=request.kind,
                shard=shard,
                detail=reason,
            )
        self._seq += 1
        request.seq = self._seq
        loop = asyncio.get_running_loop()
        pending = _Pending(request, loop.create_future(), shard)
        try:
            self._queues[shard].put_nowait(pending)
            if request.timeout is None:
                response = await pending.future
            else:
                try:
                    response = await asyncio.wait_for(
                        asyncio.shield(pending.future), request.timeout
                    )
                except asyncio.TimeoutError:
                    self._stats["timeout"] += 1
                    emit_fault_event(
                        "degraded", "serve.deadline", "timeout",
                        detail=f"tenant={request.tenant}",
                    )
                    obs_counter(
                        "serve.timeouts", labels={"tenant": request.tenant}
                    )
                    self.breaker.record(request.tenant, False)
                    # The worker may still compute the batch this request
                    # joined; its late answer is counted and dropped at
                    # the future (see _answer).
                    pending.late = True
                    pending.future.cancel()
                    return SolveResponse(
                        status=ResponseStatus.TIMEOUT,
                        tenant=request.tenant,
                        kind=request.kind,
                        shard=shard,
                        detail=f"deadline of {request.timeout}s expired",
                    )
            self._stats[response.status.value] = (
                self._stats.get(response.status.value, 0) + 1
            )
            self.breaker.record(
                request.tenant, response.status is ResponseStatus.OK
            )
            return response
        finally:
            self.admission.release(request)

    # -- workers ---------------------------------------------------------
    async def _worker(self, shard: int) -> None:
        queue = self._queues[shard]
        while True:
            first = await queue.get()
            if first is None:
                return
            window = await self._drain(queue, first)
            if window is None:
                return
            await self._process(shard, window)

    async def _drain(
        self, queue: asyncio.Queue, first: _Pending
    ) -> list[_Pending] | None:
        """Collect one batch window: what's queued now, plus the window.

        The window is a single nap, not a timer-guarded get loop: one
        ``sleep(batch_window)`` lets every tenant woken by the previous
        cycle's answers reach the queue, and one more non-blocking sweep
        collects them.  (A ``wait_for`` per item costs a timer handle
        and a wakeup each — measurably slower than the nap under load.)

        Returns ``None`` when the stop sentinel interrupts the window
        (remaining items are answered first — a sentinel never strands
        queued work).
        """
        items = [first]
        cap = self.batcher.max_batch * 4
        stopping = self._sweep(queue, items, cap)
        if (
            not stopping
            and self.batch_window > 0
            and len(items) < self.batcher.max_batch
        ):
            await asyncio.sleep(self.batch_window)
            stopping = self._sweep(queue, items, cap)
        if stopping:
            await self._process_items(items)
            return None
        return items

    @staticmethod
    def _sweep(
        queue: asyncio.Queue, items: list[_Pending], cap: int
    ) -> bool:
        """Non-blocking queue sweep into ``items``; True on sentinel."""
        while len(items) < cap:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                return False
            if item is None:
                return True
            items.append(item)
        return False

    async def _process(self, shard: int, items: list[_Pending]) -> None:
        live = [item for item in items if not item.future.done()]
        if not live:
            return
        plan = self.batcher.plan([item.request for item in live])
        by_request = {id(item.request): item for item in live}
        for batch in plan:
            await self._execute(shard, batch, by_request)

    async def _process_items(self, items: list[_Pending]) -> None:
        """Answer stranded items during shutdown (grouped per shard)."""
        by_shard: dict[int, list[_Pending]] = {}
        for item in items:
            by_shard.setdefault(item.shard, []).append(item)
        for shard, group in by_shard.items():
            await self._process(shard, group)

    async def _execute(
        self, shard: int, batch: Batch, by_request: dict[int, _Pending]
    ) -> None:
        loop = asyncio.get_running_loop()
        if batch.kind is RequestKind.SPMV:
            payloads = [r.payload for r in batch.requests]
            self._stats["spmv_batches"] += 1
            self._stats["spmv_batched_requests"] += batch.width
            self._stats["max_batch_width"] = max(
                self._stats["max_batch_width"], batch.width
            )
            obs_counter("serve.spmm_passes")
            obs_counter("serve.spmm_width", amount=batch.width)
            try:
                # The executor thread does *all* the data movement —
                # stacking the payload block, the SpMM, and transposing
                # the result back to contiguous per-request rows — so
                # the event loop only hands out cheap row copies.
                yt = await loop.run_in_executor(
                    self._executor, self._spmm, shard, batch.mat, payloads
                )
            except Exception as exc:  # answered, not crashed
                self._fail_batch(batch, by_request, shard, exc)
                return
            for j, request in enumerate(batch.requests):
                self._answer(
                    by_request, request,
                    SolveResponse(
                        status=ResponseStatus.OK,
                        result=yt[j].copy(),
                        tenant=request.tenant,
                        kind=request.kind,
                        shard=shard,
                        batch_width=batch.width,
                    ),
                )
            return
        request = batch.requests[0]
        self._stats["solves"] += 1
        try:
            response = await loop.run_in_executor(
                self._executor, self._solve, shard, request
            )
        except Exception as exc:
            self._fail_batch(batch, by_request, shard, exc)
            return
        response.shard = shard
        self._answer(by_request, request, response)

    def _fail_batch(
        self,
        batch: Batch,
        by_request: dict[int, _Pending],
        shard: int,
        exc: Exception,
    ) -> None:
        emit_fault_event(
            "detected", "serve.compute", type(exc).__name__,
            detail=str(exc)[:200],
        )
        for request in batch.requests:
            self._answer(
                by_request, request,
                SolveResponse(
                    status=ResponseStatus.ERROR,
                    tenant=request.tenant,
                    kind=request.kind,
                    shard=shard,
                    batch_width=batch.width,
                    detail=f"{type(exc).__name__}: {exc}",
                ),
            )

    def _answer(
        self,
        by_request: dict[int, _Pending],
        request: SolveRequest,
        response: SolveResponse,
    ) -> None:
        """Resolve one request's future; account for answers that missed.

        A worker can finish a batch after one of its members timed out —
        the computed answer is *orphaned work*.  It used to vanish
        silently at the ``done()`` check; now every late completion is
        counted in the ``late_results`` stat (and the
        ``serve.late_results`` metric) and dropped explicitly, so
        orphaned compute shows up in capacity accounting instead of
        hiding in the timeout tally.
        """
        pending = by_request.get(id(request))
        if pending is None:
            return
        if pending.future.done():
            if pending.late:
                self._stats["late_results"] += 1
                obs_counter(
                    "serve.late_results", labels={"tenant": request.tenant}
                )
                emit_fault_event(
                    "benign", "serve.deadline", "late_result",
                    detail=f"tenant={request.tenant} answer after deadline",
                )
            return
        pending.future.set_result(response)

    # -- compute (executor threads) --------------------------------------
    def _spmm(
        self, shard: int, csr: AijMat, payloads: list[np.ndarray]
    ) -> np.ndarray:
        """One (possibly SPMD-partitioned) multi-vector product.

        Takes the raw per-request payload vectors and returns the result
        *transposed* — shape ``(k, m)``, C-order — so request ``j``'s
        answer is the contiguous row ``j``.  Stacking the input block and
        un-striding the output both happen here, on the executor thread,
        keeping the event loop's per-request work to one row copy.
        """
        xs = np.stack(payloads, axis=1)
        if self.world_size == 1:
            ys = self._shard_ctxs[shard].spmm(csr, xs)
        else:
            ys = self._spmm_spmd(shard, csr, xs)
        return np.ascontiguousarray(ys.T)

    def _spmm_spmd(
        self, shard: int, csr: AijMat, xs: np.ndarray
    ) -> np.ndarray:
        """Row-partitioned SpMM across the shard's simulated SPMD world.

        Each rank multiplies its contiguous row block (cached in the
        shared registry under the operator's content key, so a hot
        operator is partitioned once per world size); the blocks'
        per-row dot products are computed exactly as the sequential
        pass computes them, so stacking the rank results is bit-identical
        to the ``world_size == 1`` path for any world size.
        """
        m = csr.shape[0]
        world = min(self.world_size, max(1, m))
        if world == 1:
            return self._shard_ctxs[shard].spmm(csr, xs)
        layout = RowLayout.uniform(m, world)

        def block_of(rank: int) -> AijMat:
            return self.registry.get_or_compute(
                "prepare",
                self.registry.row_block_key(world, rank, csr),
                lambda: row_block(csr, layout, rank),
            )

        def rank_fn(comm):
            return block_of(comm.rank).multiply_multi(xs)

        return np.vstack(run_spmd(world, rank_fn))

    def _solve(self, shard: int, request: SolveRequest) -> SolveResponse:
        """One GMRES solve under the shard's context view."""
        from ..ksp.gmres import GMRES

        ctx = self._shard_ctxs[shard]
        solver = GMRES(context=ctx, rtol=self.solver_rtol)
        result = solver.solve(request.mat, request.payload)
        return SolveResponse(
            status=ResponseStatus.OK,
            result=result.x,
            tenant=request.tenant,
            kind=request.kind,
            detail=(
                f"{result.reason.name} in {result.iterations} iterations"
            ),
        )

    # -- introspection ---------------------------------------------------
    def occupancy(self) -> float:
        """Mean SpMM width: batched requests per pass (1.0 = no batching)."""
        passes = self._stats["spmv_batches"]
        if not passes:
            return 0.0
        return self._stats["spmv_batched_requests"] / passes

    def stats(self) -> dict:
        """Service + admission + registry statistics, JSON-safe."""
        return {
            **self._stats,
            "occupancy": self.occupancy(),
            "shards": self.shards,
            "world_size": self.world_size,
            "compiler_tier": self.ctx.compiler_tier,
            "admission": self.admission.stats(),
            "breaker": self.breaker.stats(),
            "registry": self.registry.stats(),
        }
