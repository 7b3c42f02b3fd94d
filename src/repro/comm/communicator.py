"""Simulated message-passing world and per-rank communicators.

This is the repository's substitute for MPI (DESIGN.md substitution table).
Ranks run as threads inside one interpreter
(:mod:`repro.comm.spmd` drives them); a :class:`World` owns the mailboxes
and synchronization, and each rank holds a :class:`Comm` façade exposing the
mpi4py-flavoured operations the rest of the library uses: ``send``/``recv``,
``isend``/``irecv``, barrier, broadcast, reductions, gathers.

Semantics follow MPI where the library relies on them:

* messages between a (source, dest, tag) triple are non-overtaking;
* ``isend`` is buffered — it completes immediately and the payload is
  snapshot-copied, so the sender may reuse its buffer (NumPy payloads are
  copied via ``np.array(..., copy=True)``);
* collectives are synchronizing and deterministic: contributions are
  combined in rank order regardless of thread arrival order, so floating-
  point reductions are reproducible run to run.

The world also keeps traffic statistics (message and byte counts) that the
multinode experiments check against the network model.
"""

from __future__ import annotations

import threading
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..faults.events import emit as emit_fault_event
from ..faults.plan import fire as fire_fault
from ..obs.observer import obs_gap, obs_instant
from .request import CompletedRequest, DeferredRequest, Request

ANY_TAG = -1

#: Retransmissions attempted for a dropped message before giving up.
#: Per-world override: ``World(size, max_send_retries=...)``.
MAX_SEND_RETRIES = 8


def retry_backoff(site: str, attempt: int, seed: int = 0) -> int:
    """Backoff (modeled microseconds) before retransmission ``attempt``.

    Exponential window with deterministic seeded jitter: attempt ``k``
    waits ``2^(k-1) + crc32(seed:site:k) % 2^(k-1)``, i.e. somewhere in
    ``[2^(k-1), 2^k)``.  The jitter is a pure function of (seed, site,
    attempt), and the site string embeds the rank, so simultaneous
    per-rank retransmissions spread across the window instead of
    retrying in lockstep — yet every run of the same seed replays the
    identical timeline.
    """
    if attempt < 1:
        raise ValueError("retry attempts are 1-based")
    window = 1 << (attempt - 1)
    jitter = zlib.crc32(f"{seed}:{site}:{attempt}".encode()) % window
    return window + jitter


class CommunicatorError(RuntimeError):
    """Misuse of the communicator (bad rank, mismatched collective, ...)."""


class RankDeath(CommunicatorError):
    """A rank died mid-job (fault injection or a fatal rank-local error)."""


def _snapshot(payload: Any) -> Any:
    """Copy a payload at send time, emulating MPI's buffered semantics."""
    if isinstance(payload, np.ndarray):
        return np.array(payload, copy=True)
    return payload


def _payload_bytes(payload: Any) -> int:
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (int, float, complex, bool)):
        return 8
    return 0


@dataclass
class TrafficStats:
    """Counts of point-to-point traffic through a world."""

    messages: int = 0
    bytes: int = 0


@dataclass
class _Collective:
    """Rendezvous state for one in-progress collective operation."""

    kind: str
    contributions: dict[int, Any] = field(default_factory=dict)
    result: Any = None
    generation: int = 0
    done: bool = False


class World:
    """The shared state of a simulated MPI job of ``size`` ranks."""

    def __init__(
        self,
        size: int,
        max_send_retries: int | None = None,
        retry_seed: int = 0,
    ):
        if size < 1:
            raise ValueError("world size must be positive")
        if max_send_retries is not None and max_send_retries < 1:
            raise ValueError("max_send_retries must be positive")
        self.size = size
        self.max_send_retries = (
            MAX_SEND_RETRIES if max_send_retries is None else max_send_retries
        )
        self.retry_seed = retry_seed
        # Reentrant: request poll closures re-enter through World.poll while
        # World.block already holds the lock.
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        # mailboxes[(src, dst)] -> deque of (tag, payload)
        self._mailboxes: dict[tuple[int, int], deque[tuple[int, Any]]] = {}
        self._collective: _Collective | None = None
        self._collective_generation = 0
        self.stats = TrafficStats()
        self._aborted: BaseException | None = None

    # -- failure propagation -------------------------------------------
    def abort(self, exc: BaseException) -> None:
        """Poison the world so peers blocked in waits fail fast."""
        with self._cond:
            if self._aborted is None:
                self._aborted = exc
            self._cond.notify_all()

    def _check_abort(self) -> None:
        if self._aborted is not None:
            raise CommunicatorError(
                f"a peer rank failed: {self._aborted!r}"
            ) from self._aborted

    def kill(self, rank: int, where: str = "") -> None:
        """Terminate ``rank`` abruptly, poisoning the whole world.

        Models fail-stop rank death: peers blocked in waits or collectives
        observe the poisoned world and raise
        :class:`CommunicatorError` instead of hanging —
        :func:`repro.comm.spmd.run_spmd` then surfaces the job failure.
        """
        suffix = f" during {where}" if where else ""
        exc = RankDeath(f"rank {rank} died{suffix}")
        emit_fault_event(
            "detected", "comm.world", "kill", detail=f"rank {rank}{suffix}"
        )
        self.abort(exc)
        raise exc

    # -- point to point ---------------------------------------------------
    def push(self, src: int, dst: int, tag: int, payload: Any) -> None:
        with self._cond:
            self._check_abort()
            box = self._mailboxes.setdefault((src, dst), deque())
            box.append((tag, _snapshot(payload)))
            self.stats.messages += 1
            self.stats.bytes += _payload_bytes(payload)
            self._cond.notify_all()

    def _try_pop(self, src: int, dst: int, tag: int) -> tuple[bool, Any]:
        box = self._mailboxes.get((src, dst))
        if not box:
            return False, None
        if tag == ANY_TAG:
            return True, box.popleft()[1]
        for i, (msg_tag, payload) in enumerate(box):
            if msg_tag == tag:
                del box[i]
                return True, payload
        return False, None

    def poll(self, src: int, dst: int, tag: int) -> tuple[bool, Any]:
        with self._cond:
            self._check_abort()
            return self._try_pop(src, dst, tag)

    def block(self, poll: Callable[[], tuple[bool, Any]]) -> Any:
        """Wait until ``poll`` (run under the lock) yields a value."""
        with self._cond:
            while True:
                self._check_abort()
                done, value = poll()
                if done:
                    return value
                self._cond.wait(timeout=5.0)

    # -- collectives ------------------------------------------------------
    def collective(
        self, rank: int, kind: str, contribution: Any, combine: Callable[[dict[int, Any]], Any]
    ) -> Any:
        """Synchronizing rendezvous: all ranks contribute, one result.

        The last rank to arrive combines the contributions *in rank order*
        and publishes the result; everyone leaves together.  Mismatched
        ``kind`` strings across ranks raise, catching the classic
        mismatched-collective deadlock as an error instead.
        """
        with self._cond:
            self._check_abort()
            if self._collective is None:
                self._collective = _Collective(
                    kind=kind, generation=self._collective_generation
                )
            coll = self._collective
            if coll.kind != kind:
                err = CommunicatorError(
                    f"collective mismatch: rank {rank} called {kind!r} while "
                    f"peers are in {coll.kind!r}"
                )
                self._aborted = self._aborted or err
                self._cond.notify_all()
                raise err
            if rank in coll.contributions:
                raise CommunicatorError(
                    f"rank {rank} entered collective {kind!r} twice"
                )
            coll.contributions[rank] = _snapshot(contribution)
            if len(coll.contributions) == self.size:
                coll.result = combine(coll.contributions)
                coll.done = True
                self._collective = None
                self._collective_generation += 1
                self._cond.notify_all()
                return coll.result
            generation = coll.generation
            while not (coll.done and coll.generation == generation):
                self._check_abort()
                self._cond.wait(timeout=5.0)
            return coll.result


class Comm:
    """Per-rank communicator façade over a :class:`World`."""

    def __init__(self, world: World, rank: int):
        if not 0 <= rank < world.size:
            raise CommunicatorError(f"rank {rank} out of range for size {world.size}")
        self.world = world
        self.rank = rank

    @property
    def size(self) -> int:
        """Number of ranks in the world."""
        return self.world.size

    def _check_peer(self, peer: int, op: str = "point-to-point") -> None:
        if not 0 <= peer < self.size:
            raise CommunicatorError(
                f"rank {self.rank}: peer rank {peer} out of range for "
                f"world size {self.size} during {op}"
            )

    # -- point to point ---------------------------------------------------
    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Buffered blocking send (completes immediately).

        This is the per-rank comm fault site (``comm.send@<rank>``): an
        armed injector can drop the message in flight (recovered by
        retransmission with modeled exponential backoff), delay it (a
        benign straggler — the simulated transport is in-order anyway), or
        kill this rank outright (fail-stop, poisoning the world).
        """
        self._check_peer(dest, f"send(tag={tag})")
        site = f"comm.send@{self.rank}"
        where = f"send(dest={dest}, tag={tag})"
        spec = fire_fault(site)
        attempts = 0
        max_retries = self.world.max_send_retries
        while spec is not None and spec.kind == "drop":
            # The message was lost; each retransmission is a fresh send
            # attempt against the injector, so consecutive scheduled drops
            # cost consecutive retries — deterministically.
            attempts += 1
            if attempts > max_retries:
                raise CommunicatorError(
                    f"rank {self.rank}: {where} still dropped after "
                    f"{max_retries} retransmissions"
                )
            backoff = retry_backoff(site, attempts, self.world.retry_seed)
            emit_fault_event(
                "recovered",
                site,
                "retry",
                detail=f"rank {self.rank} {where}: resend {attempts} "
                f"after backoff {backoff}",
            )
            # The retry gap on the timeline: the modeled jittered backoff
            # window (in microseconds of trace time) this rank sat waiting
            # before the retransmission.
            obs_gap(
                "comm.retry",
                duration=backoff * 1e-6,
                rank=self.rank,
                args={"site": site, "attempt": attempts, "backoff": backoff},
            )
            spec = fire_fault(site)
        if spec is not None:
            if spec.kind == "straggle":
                emit_fault_event(
                    "benign",
                    site,
                    "straggle",
                    detail=f"rank {self.rank} {where}: delivery delayed "
                    f"{spec.magnitude:g}x (in-order transport)",
                )
                obs_instant(
                    "comm.straggle",
                    rank=self.rank,
                    args={"site": site, "magnitude": spec.magnitude},
                )
            elif spec.kind == "kill":
                self.world.kill(self.rank, where)
            else:
                # Payload-corruption kinds don't apply here: the modeled
                # link layer is CRC-protected, so a corrupted frame is
                # equivalent to a drop already handled above.
                emit_fault_event(
                    "benign",
                    site,
                    spec.kind,
                    detail=f"rank {self.rank} {where}: caught by link CRC",
                )
        self.world.push(self.rank, dest, tag, payload)

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; buffered, so already complete."""
        self.send(payload, dest, tag)
        return CompletedRequest()

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Non-blocking receive returning a waitable request."""
        self._check_peer(source, f"irecv(tag={tag})")
        src, dst = source, self.rank

        def poll() -> tuple[bool, Any]:
            return self.world.poll(src, dst, tag)

        return DeferredRequest(poll, self.world.block)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive."""
        return self.irecv(source, tag).wait()

    # -- collectives ------------------------------------------------------
    def barrier(self) -> None:
        """Synchronize all ranks."""
        self.world.collective(self.rank, "barrier", None, lambda c: None)

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Broadcast ``payload`` from ``root``; returns it on every rank."""
        self._check_peer(root, "bcast")
        return self.world.collective(
            self.rank, f"bcast:{root}", payload if self.rank == root else None,
            lambda c: c[root],
        )

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        """Reduce ``value`` across ranks (deterministic rank order)."""

        def combine(contributions: dict[int, Any]) -> Any:
            ordered = [contributions[r] for r in range(self.size)]
            if op == "sum":
                total = ordered[0]
                for v in ordered[1:]:
                    total = total + v
                return total
            if op == "max":
                return max(ordered)
            if op == "min":
                return min(ordered)
            raise CommunicatorError(
                f"rank {self.rank}: unknown reduction op {op!r} in allreduce"
            )

        return self.world.collective(self.rank, f"allreduce:{op}", value, combine)

    def allgather(self, value: Any) -> list[Any]:
        """Gather one value from every rank, everywhere, in rank order."""
        return self.world.collective(
            self.rank,
            "allgather",
            value,
            lambda c: [c[r] for r in range(self.size)],
        )

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Gather to ``root``; other ranks receive None."""
        self._check_peer(root, "gather")
        gathered = self.world.collective(
            self.rank,
            f"gather:{root}",
            value,
            lambda c: [c[r] for r in range(self.size)],
        )
        return gathered if self.rank == root else None

    def scatter(self, values: list[Any] | None, root: int = 0) -> Any:
        """Scatter a list from ``root``, one element per rank."""
        self._check_peer(root, "scatter")
        if self.rank == root and (values is None or len(values) != self.size):
            raise CommunicatorError(
                f"rank {self.rank}: scatter from root {root} requires "
                f"one value per rank ({self.size})"
            )
        gathered = self.world.collective(
            self.rank,
            f"scatter:{root}",
            values if self.rank == root else None,
            lambda c: c[root],
        )
        return gathered[self.rank]
