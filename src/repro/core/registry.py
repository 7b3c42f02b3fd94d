"""SignatureRegistry: the shared, concurrency-safe memoization store.

The per-call caches that grew inside :class:`~repro.core.context.ExecutionContext`
(measure and autotune memos, the structure-keyed trace cache, verifier
verdicts) all share one organizing idea: the sparsity *signature*
(:func:`repro.mat.sparsity.signature`) is the exact key under which
preprocessing amortizes — the same structure-only amortization
argument SELL-C-sigma makes for its inspector step.  This module lifts
that idea out of the context into a long-lived registry that thousands of
concurrent requests (the :mod:`repro.serve` front door) can share:

* **single-flight** — concurrent misses on one key elect exactly one
  *leader* that runs the factory (records the trace, runs the tuning sweep)
  while the other threads wait and then reuse the leader's result, so an
  uncached signature is recorded/tuned exactly once however many requests
  race on it;
* **LRU eviction** — past :data:`CAPACITY` completed entries the
  least-recently-used one goes, bounding a long-lived server's footprint;
* **metrics** — hits, misses, evictions, and single-flight waits tick
  both an internal snapshot (:meth:`SignatureRegistry.stats`) and, when a
  :mod:`repro.obs` observer is installed, ``registry.*`` counters.

The registry is also the *single definition of the cache key*: every
namespace's key layout lives in one ``*_key`` helper here, so the context,
the trace wiring (:mod:`repro.core.traced`), and the serving layer can
never drift apart on what identifies a cached artifact.

Namespaces hold conversion plans (``prepare``: per format, knobs and
sparsity structure, the :class:`~repro.core.dispatch.ConversionPlan` a
reassembled operator refills; serving also keeps value-keyed row blocks
there), default-input measurements (``measure``), compiled trace programs
(``trace``: recorded, level-scheduled and fused once per structure),
autotune winners (``best``),
rounding certificates (``numcert``),
reproducible input vectors (``default_x``), and multigrid set-up plans
(``galerkin``: per grid hierarchy and fine structure, the transfer
operators and the symbolic ``R A P`` products that
:class:`~repro.ksp.pc.mg.MGPC` replays on every Newton reassembly).

Contexts hold a registry and become cheap views over it: a fresh
:class:`~repro.core.context.ExecutionContext` makes its own private
registry (per-call behavior identical to the historical dicts), while a
server passes one shared registry to every context view it derives.
Entries whose payload depends on the *pricing* of a machine (autotune
winners) carry a policy key — ``(processor, memory mode,
nprocs)`` — so views at different rank counts coexist in one store.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable

from ..mat.sparsity import signature
from ..obs.observer import obs_counter

#: Namespaces the execution stack stores under.  An unknown namespace is
#: fine (the store is open), but these are the ones with key helpers.
NAMESPACES = (
    "measure",
    "prepare",
    "trace",
    "best",
    "numcert",
    "default_x",
    "galerkin",
)

#: Completed entries kept across all namespaces before the least recently
#: used goes.  No figure harness comes near it, so their caching never
#: evicts; it bounds what a long-lived server keeps.
CAPACITY = 4096


class _Inflight:
    """A key being computed by its single-flight leader."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


class _Entry:
    """A completed cache entry (wrapper distinguishes stored ``None``)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


class SignatureRegistry:
    """Concurrency-safe, signature-keyed memoization shared across contexts.

    One lock guards the LRU-ordered entries, the statistics and the
    replay tallies; factories run outside it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, _Entry | _Inflight] = OrderedDict()
        self._done = 0  # completed entries (the rest are inflight)
        self._hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}
        self._evictions = 0
        self._single_flight_waits = 0
        # Replay counts are mutable per-trace tallies, not cached values.
        self._replay_counts: dict[tuple, int] = {}

    # -- the single definition of the cache keys -----------------------
    @staticmethod
    def structure_key(csr) -> str:
        """The structure-only signature (shape + rowptr + colidx)."""
        return signature(csr)

    @staticmethod
    def content_key(csr) -> str:
        """The value-inclusive signature (structure + stored values)."""
        return signature(csr, include_values=True)

    @classmethod
    def measure_key(
        cls, variant_name: str, slice_height: int, sigma: int,
        strict_alignment: bool, csr, block_shape: tuple[int, int] | None = None,
    ) -> tuple:
        """Key of a memoized default-input measurement (value-dependent)."""
        return (
            variant_name, slice_height, sigma, strict_alignment,
            cls.content_key(csr), block_shape,
        )

    @classmethod
    def prepare_key(
        cls, fmt: str, slice_height: int, sigma: int, csr,
        block_shape: tuple[int, int] | None = None,
    ) -> tuple:
        """Key of a conversion plan
        (:class:`~repro.core.dispatch.ConversionPlan`) — *structural*: a
        reassembled operator on the same stencil refills the plan.

        ``block_shape`` is the β(r,c) block-dimension knob; it is ``None``
        for every format outside
        :data:`repro.mat.base.BLOCK_SHAPE_FORMATS`, so SELL-family keys
        are unaffected by the knob's existence.
        """
        return (fmt, slice_height, sigma, cls.structure_key(csr), block_shape)

    @classmethod
    def trace_key(
        cls, variant_name: str, slice_height: int, sigma: int,
        strict_alignment: bool, csr, block_shape: tuple[int, int] | None = None,
    ) -> tuple:
        """Key of a recorded trace — *structural*: traces are
        value-independent, so a reassembled operator keeps its trace."""
        return (
            variant_name, slice_height, sigma, strict_alignment,
            cls.structure_key(csr), block_shape,
        )

    @classmethod
    def best_key(
        cls, csr, pool_names: tuple[str, ...], scale: float,
        policy: tuple, knobs: tuple = (),
    ) -> tuple:
        """Key of an autotuned winning plan (structural + policy).

        ``knobs`` pins the searched knob space — the (slice_height,
        sigma, block_shape) candidate sets of
        :meth:`~repro.core.context.ExecutionContext.best_plan` — so a
        wider sweep never reuses a narrower sweep's winner.
        """
        return (cls.structure_key(csr), pool_names, scale, policy, knobs)

    @classmethod
    def certificate_key(
        cls, variant_name: str, csr, slice_height: int, sigma: int,
        strict_alignment: bool, block_shape: tuple[int, int] | None = None,
    ) -> tuple:
        """Key of a numerical rounding certificate — structural, like the
        trace it is derived from: the accumulation tree depends on the
        sparsity pattern, never on the coefficient values."""
        return (
            variant_name, cls.structure_key(csr), slice_height, sigma,
            strict_alignment, block_shape,
        )

    @classmethod
    def galerkin_key(cls, grids, csr) -> tuple:
        """Key of a multigrid set-up plan
        (:class:`~repro.ksp.pc.mg.GalerkinPlan`) — structural: the grid
        hierarchy plus the fine operator's structure, so a Newton
        reassembly on the same stencil reuses the plan.  ``csr`` is
        ``None`` for rediscretized coarse operators, whose plan holds only
        the grid transfers."""
        return (tuple(grids), None if csr is None else cls.structure_key(csr))

    @classmethod
    def row_block_key(cls, size: int, rank: int, csr) -> tuple:
        """Key of one rank's contiguous row block of ``csr`` (``prepare``
        namespace) — value-keyed: the block carries the operator's values."""
        return ("rowblock", size, rank, cls.content_key(csr))

    @staticmethod
    def default_x_key(n: int) -> tuple:
        """Key of the reproducible default input vector of length ``n``."""
        return (n,)

    # -- core store ----------------------------------------------------
    def get_or_compute(
        self,
        namespace: str,
        key: tuple,
        factory: Callable[[], Any],
    ) -> Any:
        """The value under ``(namespace, key)``, computing it at most once.

        A hit returns the cached value.  On a miss the first caller
        becomes the *leader* and runs ``factory()`` outside the lock;
        concurrent callers for the same key block until the leader
        finishes and then return the leader's value (counted as a
        single-flight wait).  A factory that raises caches nothing — the
        error propagates to the leader, and exactly one waiter is
        promoted to retry.
        """
        full_key = (namespace, *key)
        entries = self._entries
        while True:
            with self._lock:
                current = entries.get(full_key)
                if isinstance(current, _Entry):
                    entries.move_to_end(full_key)
                    self._hits[namespace] = self._hits.get(namespace, 0) + 1
                    break
                if current is None:
                    inflight = _Inflight()
                    entries[full_key] = inflight
                    self._misses[namespace] = self._misses.get(namespace, 0) + 1
                    break  # we are the leader
                self._single_flight_waits += 1
                waiter = current.event
            # Another thread is computing this key: wait, then re-read.
            obs_counter(
                "registry.single_flight_waits",
                labels={"namespace": namespace},
            )
            waiter.wait()
        if isinstance(current, _Entry):
            obs_counter("registry.hits", labels={"namespace": namespace})
            return current.value

        obs_counter("registry.misses", labels={"namespace": namespace})
        try:
            value = factory()
        except BaseException:
            with self._lock:
                if entries.get(full_key) is inflight:
                    del entries[full_key]
            inflight.event.set()
            raise
        evicted = False
        with self._lock:
            if entries.get(full_key) is inflight:
                entries[full_key] = _Entry(value)
                entries.move_to_end(full_key)
                self._done += 1
                if self._done > CAPACITY:  # drop the least recently used
                    oldest = next(k for k, e in entries.items() if isinstance(e, _Entry))
                    del entries[oldest]
                    self._done -= 1
                    self._evictions += 1
                    evicted = True
        inflight.event.set()
        if evicted:
            obs_counter("registry.evictions")
        return value

    def invalidate(self, namespace: str, key: tuple) -> bool:
        """Drop a completed entry; True when something was removed.

        An inflight computation is left alone — its leader will publish,
        and a later invalidation can remove the published value.
        """
        full_key = (namespace, *key)
        with self._lock:
            removed = isinstance(self._entries.get(full_key), _Entry)
            if removed:
                del self._entries[full_key]
                self._done -= 1
        return removed

    # -- replay tallies (mutable per-trace counters) -------------------
    def bump_replay(self, key: tuple) -> int:
        """Increment and return the replay count of a trace key."""
        with self._lock:
            count = self._replay_counts.get(key, 0) + 1
            self._replay_counts[key] = count
            return count

    def clear_replay(self, key: tuple) -> None:
        """Forget the replay tally of an invalidated trace."""
        with self._lock:
            self._replay_counts.pop(key, None)

    # -- introspection -------------------------------------------------
    def size(self, namespace: str | None = None) -> int:
        """Completed entries stored (in one namespace, or overall)."""
        with self._lock:
            if namespace is None:
                return self._done
            return sum(
                isinstance(entry, _Entry) and full_key[0] == namespace
                for full_key, entry in self._entries.items()
            )

    def stats(self) -> dict:
        """Hit/miss/eviction/single-flight counters, JSON-safe."""
        with self._lock:
            hits = dict(sorted(self._hits.items()))
            misses = dict(sorted(self._misses.items()))
            total_hits = sum(hits.values())
            total_misses = sum(misses.values())
            lookups = total_hits + total_misses
            return {
                "hits": hits,
                "misses": misses,
                "hit_rate": total_hits / lookups if lookups else 0.0,
                "evictions": self._evictions,
                "single_flight_waits": self._single_flight_waits,
                "entries": self._done,
                "capacity": CAPACITY,
            }

    def clear(self) -> None:
        """Drop every entry, tally, and statistic."""
        with self._lock:
            self._entries.clear()
            self._done = 0
            self._replay_counts.clear()
            self._hits.clear()
            self._misses.clear()
            self._evictions = 0
            self._single_flight_waits = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SignatureRegistry(capacity={CAPACITY}, entries={self.size()})"
