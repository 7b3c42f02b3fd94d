"""Workload ``serve_open``: an open-loop request stream into ``repro.serve``.

A :class:`~repro.serve.server.SolveService` with ``shards=1`` and
``world_size=1`` (the event loop plus one executor thread) receives
Poisson arrivals at :data:`RATE`, about a fifth of its capacity.  The
operators are Gray-Scott Jacobians on grids 24-48, drawn Zipf-skewed from
a pool of eight.  The mix: about 90% SPMV on pooled operators, 5% SPMV on
freshly re-assembled operators (pooled structure, new values: the
registry's insert path) and 5% GMRES solves.  One op is one request,
timed from when it was due to be sent.

The seed draws the operator values, the payloads, the arrival times and
the mix; the number of requests is fixed by ``--seconds``, so the
registry ends every run with the same number of entries.

Request latency on a shared machine is mostly timer, wake-up and
scheduling delay, which moves with the load other processes put on the
machine, not with the program.  So the untraced run also sends every
request, on the same schedule, to a :class:`ReferenceService` of the same
shape with nothing from ``repro`` in it, chunk by chunk in alternation
with the service.  The reported latency is the service's, scaled by how
far the reference's moved from its quiet-machine figure.
"""

from __future__ import annotations

import asyncio
import bisect
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from harness import Result, clock, median, peak_rss_mb, percentile, quiesce, repeat_set_up, thaw
from layers import registry_hit_rates, span_metrics, targets
from spans import Instrumentation, SpanRecorder

#: Arrivals per second: a fifth of the 5,000-7,100 req/s the service
#: sustained with 32 closed-loop clients on a 2-core machine (README.md).
RATE = 1000.0
TENANTS = 16
#: (grid, value seed) of each pooled operator, hottest first.
POOL = ((24, 1), (24, 2), (32, 1), (32, 2), (40, 1), (40, 2), (48, 1), (48, 2))
ZIPF_S = 1.1
FRESH_SHARE = 0.05
SOLVE_SHARE = 0.05
#: Payloads (SPMV inputs and solve right-hand sides) per pooled operator.
BANK = 4
#: Every n-th pooled SPMV answer is checked; fresh and solve answers all are.
VERIFY_EVERY = 8
#: Requests of the deterministic burst that measures ``serve.occupancy``.
BURST = 64
#: A solve answer must satisfy ``|b - A x| <= SOLVE_RESIDUAL |b|``.
SOLVE_RESIDUAL = 1.0e-7
#: Set-ups from a fresh interpreter whose median is ``setup_s``.
COLD_SET_UPS = 9
#: Requests per chunk of the untraced stream.  Each chunk goes to the
#: service and to the reference service, one right after the other, so
#: both meet the machine in the same state.
CHUNK = 100
#: Median and 90th-percentile latency of :class:`ReferenceService`, in ms,
#: on a quiet 2-core x86-64 container (seeds 1-3 read 3.25-3.40 and
#: 4.54-4.91 ms).
REFERENCE_P50_MS = 3.3
REFERENCE_P90_MS = 4.7

SPMV, FRESH, SOLVE = 0, 1, 2


@dataclass
class Inputs:
    pool: list
    xs: list  # per pooled operator, BANK payloads
    refs: list  # per pooled operator, BANK reference products
    offsets: np.ndarray  # due time of each request after the stream starts
    kinds: np.ndarray
    ops: np.ndarray
    picks: np.ndarray
    fresh: dict  # request index -> re-assembled operator
    burst: list  # (op, pick) of the burst requests


def requests(seconds: float) -> int:
    """Requests in a run of ``seconds``; untraced, each is sent twice."""
    return max(int(RATE * seconds / 2), 4)


def make_inputs(seed: int, n: int) -> Inputs:
    from repro.bench.serve_traffic import TrafficConfig, build_pool
    from repro.mat.aij import AijMat

    pool, weights, banks = build_pool(
        TrafficConfig(
            pool=tuple((grid, seed * 100 + s) for grid, s in POOL),
            zipf_s=ZIPF_S,
            payload_bank=BANK,
            seed=seed,
        )
    )
    # Each payload is its own array, so a span can match it by identity.
    xs = [[x for x, _ in bank] for bank in banks]
    refs = [[ref for _, ref in bank] for bank in banks]
    rng = np.random.default_rng((seed, 1))
    burst = list(
        zip(
            rng.choice(len(pool), size=BURST, p=weights).tolist(),
            rng.integers(BANK, size=BURST).tolist(),
        )
    )
    offsets = np.cumsum(rng.exponential(1.0 / RATE, size=n))
    kinds = np.full(n, SPMV)
    order = rng.permutation(n)
    n_fresh, n_solve = round(FRESH_SHARE * n), round(SOLVE_SHARE * n)
    kinds[order[:n_fresh]] = FRESH
    kinds[order[n_fresh : n_fresh + n_solve]] = SOLVE
    ops = rng.choice(len(pool), size=n, p=weights)
    picks = rng.integers(BANK, size=n)
    fresh = {}
    for i in np.flatnonzero(kinds == FRESH):
        base = pool[ops[i]]
        fresh[int(i)] = AijMat(
            base.shape,
            base.rowptr,
            base.colidx,
            base.val * (1.0 + 0.01 * rng.random()),
            check=False,
        )
    return Inputs(pool, xs, refs, offsets, kinds, ops, picks, fresh, burst)


class ReferenceService:
    """The service's shape with nothing from ``repro`` in it: the yardstick.

    One worker task takes a request, sweeps the queue, naps for the batch
    window and sweeps again; it groups the window's SPMV requests by
    operator (at most ``max_batch`` wide) and hands each group, and each
    solve, in arrival order to one executor thread: a SciPy CSR product
    or SciPy's GMRES(30).  A re-assembled operator is served by its pooled
    original.  Its latency moves with the machine's timer, wake-up and
    processor delays, and with nothing in the program.
    """

    def __init__(self, pool, batch_window: float, max_batch: int, rtol: float):
        import scipy.sparse as sp

        self.csr = {
            id(m): sp.csr_array((m.val, m.colidx, m.rowptr), shape=m.shape) for m in pool
        }
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.rtol = rtol
        self.worker = None

    async def start(self) -> None:
        self.queue: asyncio.Queue = asyncio.Queue()
        self.executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="reference")
        self.worker = asyncio.create_task(self._work())

    async def stop(self) -> None:
        if self.worker is None:
            return
        self.queue.put_nowait(None)
        await self.worker
        self.executor.shutdown(wait=True)
        self.worker = None

    async def submit(self, mat, payload, solve: bool):
        future = asyncio.get_running_loop().create_future()
        self.queue.put_nowait((self.csr[id(mat)], payload, solve, future))
        return await future

    def _sweep(self, items: list) -> bool:
        """Move what is queued into ``items``; True on the stop sentinel."""
        while not self.queue.empty():
            item = self.queue.get_nowait()
            if item is None:
                return True
            items.append(item)
        return False

    async def _work(self) -> None:
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            first = await self.queue.get()
            if first is None:
                return
            items = [first]
            stopping = self._sweep(items)
            if not stopping and len(items) < self.max_batch:
                await asyncio.sleep(self.batch_window)
                stopping = self._sweep(items)
            batches, groups = [], {}
            for item in items:
                if item[2]:
                    batches.append([item])
                    continue
                members = groups.setdefault(id(item[0]), [])
                members.append(item)
                if len(members) == 1:
                    batches.append(members)
                elif len(members) == self.max_batch:
                    del groups[id(item[0])]
            for batch in batches:
                csr, payload, solve, _ = batch[0]
                if solve:
                    ys = [await loop.run_in_executor(self.executor, self._solve, csr, payload)]
                else:
                    yt = await loop.run_in_executor(
                        self.executor, self._spmm, csr, [item[1] for item in batch]
                    )
                    ys = [row.copy() for row in yt]
                for item, y in zip(batch, ys):
                    item[3].set_result(y)

    @staticmethod
    def _spmm(csr, payloads):
        return np.ascontiguousarray((csr @ np.stack(payloads, axis=1)).T)

    def _solve(self, csr, b):
        from scipy.sparse.linalg import gmres

        return gmres(csr, b, rtol=self.rtol, restart=30)[0]


class Stream:
    """The service and the reference on one event loop, inputs, and timings.

    :meth:`run` drives a coroutine on the stream's loop to completion;
    between calls the loop is idle and the workers wait on their queues.
    :meth:`close` stops both services and closes the loop.
    """

    def __init__(self, inputs: Inputs):
        from repro.serve import AdmissionController, SolveService

        self.loop = asyncio.new_event_loop()
        self.inputs = inputs
        self.service = SolveService(
            shards=1,
            world_size=1,
            admission=AdmissionController(queue_cap=4096),
        )
        self.reference = ReferenceService(
            inputs.pool,
            self.service.batch_window,
            self.service.batcher.max_batch,
            self.service.solver_rtol,
        )
        n = len(inputs.kinds)
        self.due = np.zeros(n)
        self.sent = np.zeros(n)
        self.done = np.zeros(n)
        #: Seconds from due to answered of each request at the reference.
        self.ref_latency = np.zeros(n)
        self.answers: dict[int, object] = {}
        self.failures: list[str] = []
        #: Answers of the service's warm-up requests, in order.
        self.warm: list = []

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def close(self) -> None:
        try:
            self.run(self.service.stop())
            self.run(self.reference.stop())
        finally:
            self.loop.close()

    def request(self, i: int):
        from repro.serve import RequestKind, SolveRequest

        inp = self.inputs
        kind, op = inp.kinds[i], int(inp.ops[i])
        return SolveRequest(
            tenant=f"tenant-{i % TENANTS}",
            mat=inp.fresh[i] if kind == FRESH else inp.pool[op],
            payload=inp.xs[op][inp.picks[i]],
            kind=RequestKind.SOLVE if kind == SOLVE else RequestKind.SPMV,
            priority=1,
        )

    async def warm_up(self) -> None:
        """One SPMV and one solve per pooled operator on each service."""
        from repro.serve import RequestKind, SolveRequest

        for op, mat in enumerate(self.inputs.pool):
            for kind in (RequestKind.SPMV, RequestKind.SOLVE):
                x = self.inputs.xs[op][0]
                response = await self.service.submit(
                    SolveRequest("warm-up", mat, x, kind=kind)
                )
                if not response.ok:
                    raise RuntimeError(f"warm-up failed: {response.detail}")
                self.warm.append(response.result)
                await self.reference.submit(mat, x, kind is RequestKind.SOLVE)

    async def burst(self) -> tuple[float, list]:
        """Submit :data:`BURST` queued-at-once requests; (occupancy, answers)."""
        from repro.serve import SolveRequest

        inp = self.inputs
        before = self.service.stats()
        responses = await asyncio.gather(
            *(
                self.service.submit(
                    SolveRequest(f"burst-{j % TENANTS}", inp.pool[op], inp.xs[op][pick])
                )
                for j, (op, pick) in enumerate(inp.burst)
            )
        )
        after = self.service.stats()
        passes = after["spmv_batches"] - before["spmv_batches"]
        width = after["spmv_batched_requests"] - before["spmv_batched_requests"]
        return width / passes, [r.result for r in responses]

    async def _one(self, i: int, due: float) -> None:
        request = self.request(i)
        self.due[i] = due
        self.sent[i] = clock()
        response = await self.service.submit(request)
        self.done[i] = clock()
        if not response.ok:
            self.failures.append(f"request {i}: {response.status.value} {response.detail}")
        elif self.inputs.kinds[i] != SPMV or i % VERIFY_EVERY == 0:
            self.answers[i] = response.result

    async def _reference_one(self, i: int, due: float) -> None:
        inp = self.inputs
        op = int(inp.ops[i])
        await self.reference.submit(inp.pool[op], inp.xs[op][inp.picks[i]], inp.kinds[i] == SOLVE)
        self.ref_latency[i] = clock() - due

    async def stream(self, lo: int, hi: int, reference: bool = False) -> None:
        """Send requests ``lo..hi-1`` on their Poisson schedule."""
        offsets = self.inputs.offsets
        one = self._reference_one if reference else self._one
        start = clock() + 0.005 - offsets[lo]
        tasks = []
        for i in range(lo, hi):
            due = start + offsets[i]
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(one(i, due)))
        await asyncio.gather(*tasks)

    def check(self, i: int) -> bool:
        """Whether the kept answer of request ``i`` is right."""
        inp = self.inputs
        y, op, pick = self.answers[i], int(inp.ops[i]), inp.picks[i]
        x = inp.xs[op][pick]
        if inp.kinds[i] == SOLVE:
            mat = inp.pool[op]
            return np.linalg.norm(x - mat.multiply(y)) <= SOLVE_RESIDUAL * np.linalg.norm(x)
        ref = inp.fresh[i].multiply(x) if inp.kinds[i] == FRESH else inp.refs[op][pick]
        return bool(np.allclose(y, ref, rtol=1e-12, atol=1e-12))


def set_up(seed: int, seconds: float) -> Stream:
    """Inputs, both services started, and their warm-up."""
    stream = Stream(make_inputs(seed, requests(seconds)))
    stream.run(stream.service.start())
    stream.run(stream.reference.start())
    stream.run(stream.warm_up())
    return stream


def discard(stream: Stream) -> None:
    stream.close()


def _same_set_up(first: Stream, other: Stream) -> bool:
    """Whether two set-ups drew the same arrivals and warmed up alike."""
    return np.array_equal(first.inputs.offsets, other.inputs.offsets) and all(
        np.array_equal(a, b) for a, b in zip(first.warm, other.warm)
    )


def phases_of(n: int, trace: bool) -> list[tuple[int, int, str]]:
    """The timed stream as ``(lo, hi, mode)`` phases, in the order run.

    Traced: quarters, alternately ``plain`` and ``traced``.  Untraced:
    chunks of :data:`CHUNK` requests, each sent as ``plain`` and as
    ``reference``, which of the two goes first alternating by chunk.
    """
    if trace:
        bounds = [q * n // 4 for q in range(5)]
        return [
            (lo, hi, "traced" if p % 2 else "plain")
            for p, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ]
    phases = []
    for c, lo in enumerate(range(0, n, CHUNK)):
        pair = [(lo, min(lo + CHUNK, n), "plain"), (lo, min(lo + CHUNK, n), "reference")]
        phases += pair if c % 2 == 0 else pair[::-1]
    return phases


def run(seed: int, seconds: float, trace: bool, setup_repeats: int = 1) -> Result:
    res = Result()
    recorder = SpanRecorder()
    instr = Instrumentation(recorder, targets()) if trace else None
    n = requests(seconds)
    # With tracing, the last set-up is traced.
    stream = repeat_set_up(
        res,
        lambda: set_up(seed, seconds),
        setup_repeats,
        _same_set_up,
        instr,
        discard=discard,
    )

    phases = phases_of(n, trace)
    try:
        # -- the deterministic burst, untraced then (with tracing) traced --
        occupancy, answers = stream.run(stream.burst())
        if trace:
            recorder.op = "burst"
            with instr:
                occupancy_traced, answers_traced = stream.run(stream.burst())
            if occupancy_traced != occupancy or any(
                not np.array_equal(a, b) for a, b in zip(answers, answers_traced)
            ):
                res.fail("the burst answered differently with tracing on")

        # -- the timed stream ---------------------------------------------
        stats_before = stream.service.stats()
        registry_before = stream.service.registry.stats()
        quiesce()
        for p, (lo, hi, mode) in enumerate(phases):
            if mode == "traced":
                recorder.op = p
                instr.install()
            try:
                stream.run(stream.stream(lo, hi, reference=mode == "reference"))
            finally:
                if mode == "traced":
                    instr.remove()
        stats_after = stream.service.stats()
        registry_after = stream.service.registry.stats()
        entries = stream.service.registry.size()
    finally:
        stream.close()
    thaw()

    # -- checks, outside the timed region --------------------------------
    res.attempted = n
    for line in stream.failures[:10]:
        res.problems.append(line)
    res.failed += len(stream.failures)
    wrong = [i for i in stream.answers if not stream.check(i)]
    if wrong:
        res.fail(f"{len(wrong)} wrong answers, first request {wrong[0]}", len(wrong))

    latency = stream.done - stream.due
    late = stream.sent - stream.due
    traced_idx = [i for lo, hi, mode in phases if mode == "traced" for i in range(lo, hi)]
    untraced_idx = [i for lo, hi, mode in phases if mode == "plain" for i in range(lo, hi)]
    res.scaled = False
    res.op_times = latency[untraced_idx].tolist()
    passes = stats_after["spmv_batches"] - stats_before["spmv_batches"]
    width = stats_after["spmv_batched_requests"] - stats_before["spmv_batched_requests"]
    rejected = stats_after["rejected"] - stats_before["rejected"]
    errors = (stats_after["error"] + stats_after["timeout"]) - (
        stats_before["error"] + stats_before["timeout"]
    )
    res.notes.append(
        f"{n} requests at {RATE:g}/s: {int((stream.inputs.kinds == FRESH).sum())} on "
        f"re-assembled operators, {int((stream.inputs.kinds == SOLVE).sum())} solves, "
        f"{len(stream.answers)} answers checked; {width / passes:.2f} requests per "
        f"SpMM pass; generator late p90 {percentile(late * 1000, 90):.3f} ms"
    )
    if not trace:
        ms = [t * 1000.0 for t in res.op_times]
        ref_ms = (stream.ref_latency * 1000.0).tolist()
        p50, p90 = median(ms), percentile(ms, 90.0)
        ref50, ref90 = median(ref_ms), percentile(ref_ms, 90.0)
        res.put("p50_ms", p50 * REFERENCE_P50_MS / ref50, "ms")
        res.put("p90_ms", p90 * REFERENCE_P90_MS / ref90, "ms")
        res.notes.append(
            f"wall-clock latency p50 {p50:.3f} ms, p90 {p90:.3f} ms; reference "
            f"service p50 {ref50:.3f} ms, p90 {ref90:.3f} ms"
        )
    else:
        ops = [p for p, (_, _, mode) in enumerate(phases) if mode == "traced"]
        res.per_layer.update(
            span_metrics(recorder, ops, setup_op="setup", per_op=len(traced_idx))
        )
        res.per_layer.update(registry_hit_rates(registry_before, registry_after))
        waits = _waits(recorder, stream, traced_idx)
        res.per_layer["serve.wait_p50_ms"] = median(waits) * 1000.0
        res.per_layer["serve.wait_p90_ms"] = percentile(waits, 90.0) * 1000.0
        res.per_layer["serve.occupancy"] = occupancy
        res.per_layer["serve.open_occupancy"] = width / passes
        res.per_layer["serve.rejected"] = rejected
        res.per_layer["serve.errors"] = errors
        res.per_layer["loadgen.late_p90_ms"] = percentile(late * 1000.0, 90.0)
        res.per_layer["core.registry_entries"] = entries
        res.per_layer["bench.trace_overhead"] = (
            median(latency[traced_idx]) / median(res.op_times) - 1.0
        )
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    return res


def _waits(recorder: SpanRecorder, stream: Stream, indices) -> list[float]:
    """Latency minus the SpMM or GMRES call that answered, per request.

    A solve's call is the ``ksp.gmres`` span on its right-hand side.  An
    SpMV's call is the first ``core.spmm`` span on its operator that
    started after the request was sent and ended before it was answered.
    """
    calls = defaultdict(list)
    for span in recorder.spans:
        if span.name in ("core.spmm", "ksp.gmres"):
            calls[span.meta].append((span.start, span.end))
    for spans in calls.values():
        spans.sort()
    inp = stream.inputs
    waits = []
    for i in indices:
        request = stream.request(i)
        key = id(request.payload) if inp.kinds[i] == SOLVE else id(request.mat)
        spans = calls.get(key, [])
        j = bisect.bisect_left(spans, (stream.sent[i],))
        if j < len(spans) and spans[j][1] <= stream.done[i]:
            start, end = spans[j]
            waits.append(stream.done[i] - stream.due[i] - (end - start))
    return waits
