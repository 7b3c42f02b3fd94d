"""SignatureRegistry: the shared, concurrency-safe memoization store.

The per-call caches that grew inside :class:`~repro.core.context.ExecutionContext`
(measure and autotune memos, the structure-keyed trace cache, verifier
verdicts) all share one organizing idea: the sparsity *signature*
(:func:`repro.mat.sparsity.signature`) is the exact key under which
preprocessing amortizes — the same structure-only amortization
argument SELL-C-sigma makes for its inspector step.  This module lifts
that idea out of the context into a long-lived registry that thousands of
concurrent requests (the :mod:`repro.serve` front door) can share:

* **lock striping** — entries hash onto a small array of stripes, each
  with its own lock and LRU list, so unrelated signatures never contend;
* **single-flight** — concurrent misses on one key elect exactly one
  *leader* that runs the factory (records the trace, runs the tuning sweep)
  while the other threads wait and then reuse the leader's result, so an
  uncached signature is recorded/tuned exactly once however many requests
  race on it;
* **LRU eviction** — each stripe evicts its least-recently-used completed
  entries past its share of ``capacity``, bounding a long-lived server's
  footprint;
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
verifier verdicts and rounding certificates (``verify``, ``numcert``),
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
from typing import Any, Callable, Iterable

from ..mat.sparsity import signature
from ..obs.observer import obs_counter

#: Namespaces the execution stack stores under.  An unknown namespace is
#: fine (the store is open), but these are the ones with key helpers.
NAMESPACES = (
    "measure",
    "prepare",
    "trace",
    "best",
    "verify",
    "numcert",
    "default_x",
    "galerkin",
)


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


class _Stripe:
    """One lock + LRU-ordered entry map; keys hash onto stripes."""

    __slots__ = ("lock", "entries")

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.entries: OrderedDict[tuple, _Entry | _Inflight] = OrderedDict()


class SignatureRegistry:
    """Concurrency-safe, signature-keyed memoization shared across contexts.

    Parameters
    ----------
    stripes:
        Number of independently locked shards.  Keys are distributed by
        hash, so concurrent operations on different signatures proceed
        without contention.
    capacity:
        Total completed entries retained across all namespaces; each
        stripe evicts least-recently-used entries past its share.  The
        default is generous enough that the repo's figure harnesses never
        evict (their caching behavior stays exactly as before the
        refactor); long-lived servers set it to their memory budget.
    """

    def __init__(self, stripes: int = 8, capacity: int = 4096) -> None:
        if stripes < 1:
            raise ValueError("stripes must be positive")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._stripes = tuple(_Stripe() for _ in range(stripes))
        self._per_stripe_capacity = max(1, -(-capacity // stripes))
        self.capacity = capacity
        self._stats_lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}
        self._evictions = 0
        self._single_flight_waits = 0
        # Replay counts are mutable per-trace tallies, not cached values;
        # they live beside the store under their own lock.
        self._replay_lock = threading.Lock()
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
        verify_variants: bool, policy: tuple, knobs: tuple = (),
    ) -> tuple:
        """Key of an autotuned winning plan (structural + policy).

        ``knobs`` pins the searched knob space — the (slice_height,
        sigma, block_shape) candidate sets of
        :meth:`~repro.core.context.ExecutionContext.best_plan` — so a
        wider sweep never reuses a narrower sweep's winner.
        """
        return (
            cls.structure_key(csr), pool_names, scale, verify_variants,
            policy, knobs,
        )

    @classmethod
    def verify_key(
        cls, variant_name: str, csr, slice_height: int, sigma: int,
        strict_alignment: bool, block_shape: tuple[int, int] | None = None,
    ) -> tuple:
        """Key of a static-verification verdict (structural, policy-free:
        the verdict is a pure function of kernel + structure + execution
        policy, never of the machine pricing)."""
        return (
            variant_name, cls.structure_key(csr), slice_height, sigma,
            strict_alignment, block_shape,
        )

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

    # -- striping ------------------------------------------------------
    def _stripe_of(self, full_key: tuple) -> _Stripe:
        return self._stripes[hash(full_key) % len(self._stripes)]

    def _count_hit(self, namespace: str) -> None:
        with self._stats_lock:
            self._hits[namespace] = self._hits.get(namespace, 0) + 1
        obs_counter("registry.hits", labels={"namespace": namespace})

    def _count_miss(self, namespace: str) -> None:
        with self._stats_lock:
            self._misses[namespace] = self._misses.get(namespace, 0) + 1
        obs_counter("registry.misses", labels={"namespace": namespace})

    # -- core store ----------------------------------------------------
    def get_or_compute(
        self,
        namespace: str,
        key: tuple,
        factory: Callable[[], Any],
    ) -> Any:
        """The value under ``(namespace, key)``, computing it at most once.

        A hit returns the cached value.  On a miss the first caller
        becomes the *leader* and runs ``factory()`` outside the stripe
        lock; concurrent callers for the same key block until the leader
        finishes and then return the leader's value (counted as a
        single-flight wait).  A factory that raises caches nothing — the
        error propagates to the leader, and exactly one waiter is
        promoted to retry.
        """
        full_key = (namespace, *key)
        stripe = self._stripe_of(full_key)
        while True:
            with stripe.lock:
                current = stripe.entries.get(full_key)
                if isinstance(current, _Entry):
                    stripe.entries.move_to_end(full_key)
                    self._count_hit(namespace)
                    return current.value
                if current is None:
                    inflight = _Inflight()
                    stripe.entries[full_key] = inflight
                    break  # we are the leader
                waiter = current.event
            # Another thread is computing this key: wait, then re-read.
            with self._stats_lock:
                self._single_flight_waits += 1
            obs_counter(
                "registry.single_flight_waits",
                labels={"namespace": namespace},
            )
            waiter.wait()

        self._count_miss(namespace)
        try:
            value = factory()
        except BaseException:
            with stripe.lock:
                if stripe.entries.get(full_key) is inflight:
                    del stripe.entries[full_key]
            inflight.event.set()
            raise
        with stripe.lock:
            if stripe.entries.get(full_key) is inflight:
                stripe.entries[full_key] = _Entry(value)
                stripe.entries.move_to_end(full_key)
                self._evict_locked(stripe)
        inflight.event.set()
        return value

    def _evict_locked(self, stripe: _Stripe) -> None:
        """Drop LRU completed entries past the stripe's capacity share."""
        done = sum(
            1 for e in stripe.entries.values() if isinstance(e, _Entry)
        )
        if done <= self._per_stripe_capacity:
            return
        for key in list(stripe.entries):
            if done <= self._per_stripe_capacity:
                break
            if isinstance(stripe.entries[key], _Entry):
                del stripe.entries[key]
                done -= 1
                with self._stats_lock:
                    self._evictions += 1
                obs_counter("registry.evictions")

    def lookup(self, namespace: str, key: tuple) -> Any | None:
        """The cached value, or ``None`` (no computation, no hit/miss tick)."""
        full_key = (namespace, *key)
        stripe = self._stripe_of(full_key)
        with stripe.lock:
            entry = stripe.entries.get(full_key)
            if isinstance(entry, _Entry):
                stripe.entries.move_to_end(full_key)
                return entry.value
            return None

    def put(self, namespace: str, key: tuple, value: Any) -> None:
        """Store ``value`` unconditionally (replacing any entry)."""
        full_key = (namespace, *key)
        stripe = self._stripe_of(full_key)
        with stripe.lock:
            stripe.entries[full_key] = _Entry(value)
            stripe.entries.move_to_end(full_key)
            self._evict_locked(stripe)

    def invalidate(self, namespace: str, key: tuple) -> bool:
        """Drop a completed entry; True when something was removed.

        An inflight computation is left alone — its leader will publish,
        and a later invalidation can remove the published value.
        """
        full_key = (namespace, *key)
        stripe = self._stripe_of(full_key)
        with stripe.lock:
            entry = stripe.entries.get(full_key)
            removed = isinstance(entry, _Entry)
            if removed:
                del stripe.entries[full_key]
        return removed

    # -- replay tallies (mutable per-trace counters) -------------------
    def bump_replay(self, key: tuple) -> int:
        """Increment and return the replay count of a trace key."""
        with self._replay_lock:
            count = self._replay_counts.get(key, 0) + 1
            self._replay_counts[key] = count
            return count

    def clear_replay(self, key: tuple) -> None:
        """Forget the replay tally of an invalidated trace."""
        with self._replay_lock:
            self._replay_counts.pop(key, None)

    # -- introspection -------------------------------------------------
    def size(self, namespace: str | None = None) -> int:
        """Completed entries stored (in one namespace, or overall)."""
        total = 0
        for stripe in self._stripes:
            with stripe.lock:
                for full_key, entry in stripe.entries.items():
                    if not isinstance(entry, _Entry):
                        continue
                    if namespace is None or full_key[0] == namespace:
                        total += 1
        return total

    def keys(self, namespace: str) -> Iterable[tuple]:
        """Snapshot of the completed keys in one namespace."""
        out = []
        for stripe in self._stripes:
            with stripe.lock:
                out.extend(
                    full_key[1:]
                    for full_key, entry in stripe.entries.items()
                    if isinstance(entry, _Entry) and full_key[0] == namespace
                )
        return out

    def stats(self) -> dict:
        """Hit/miss/eviction/single-flight counters, JSON-safe."""
        entries = self.size()  # before the stats lock: size takes stripe locks
        with self._stats_lock:
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
                "entries": entries,
                "capacity": self.capacity,
            }

    def clear(self) -> None:
        """Drop every entry, tally, and statistic."""
        for stripe in self._stripes:
            with stripe.lock:
                stripe.entries.clear()
        with self._replay_lock:
            self._replay_counts.clear()
        with self._stats_lock:
            self._hits.clear()
            self._misses.clear()
            self._evictions = 0
            self._single_flight_waits = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SignatureRegistry(stripes={len(self._stripes)}, "
            f"capacity={self.capacity}, entries={self.size()})"
        )
