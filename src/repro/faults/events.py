"""The resilience event stream: every fault, detection, and recovery.

The fault framework's contract (docs/resilience.md) is that no injected
fault is ever silent: an injection is an ``injected`` event, a checksum or
audit catch is a ``detected`` event, a retry / cache invalidation /
rollback is a ``recovered`` event, a fallback down the dispatch ladder is
a ``degraded`` event, and a fault that cannot corrupt results (a modeled
latency spike) is a ``benign`` event.  Campaign verdicts are computed by
pairing those streams, so everything funnels through one
:class:`ResilienceLog`.

A module-level *current* log always exists; the layers that detect and
recover (context dispatch, solvers, communicators) emit into it without
having a log threaded through their signatures.  Harnesses that need an
isolated stream swap their own in with :func:`capture`::

    with capture() as log:
        ...  # solve under injection
    assert not log.of("detected")

Counts can additionally flow into a PETSc-style
:class:`~repro.obs.EventLog` (as call-count-only events) by
attaching one with :meth:`ResilienceLog.attach`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import EventLog

#: The recognized event actions, in escalation order.
ACTIONS = ("injected", "detected", "recovered", "degraded", "benign")


@dataclass(frozen=True)
class ResilienceEvent:
    """One fault-lifecycle event.

    ``site`` names where it happened (an injection site or detector
    location, e.g. ``"spmv.output"`` or ``"trace.audit"``), ``kind`` the
    fault or detector flavour (``"bitflip"``, ``"abft"``, ``"retry"``),
    ``call`` the site's call counter when known, and ``detail`` free text.
    """

    action: str
    site: str
    kind: str
    detail: str = ""
    call: int = -1

    def as_tuple(self) -> tuple[str, str, str, str, int]:
        """The comparable/sortable form used for reproducibility checks."""
        return (self.action, self.site, self.kind, self.detail, self.call)


class ResilienceLog:
    """An append-only, thread-safe stream of :class:`ResilienceEvent`.

    Thread safety matters: the simulated MPI ranks run as threads, and
    comm-fault events arrive from all of them.
    """

    def __init__(self) -> None:
        self._events: list[ResilienceEvent] = []
        self._lock = threading.Lock()
        self._event_log: "EventLog | None" = None

    def attach(self, event_log: "EventLog") -> "ResilienceLog":
        """Mirror event counts into a profiling :class:`EventLog`."""
        self._event_log = event_log
        return self

    def emit(
        self,
        action: str,
        site: str,
        kind: str,
        detail: str = "",
        call: int = -1,
    ) -> ResilienceEvent:
        """Record one event (and bump the attached profiler, if any)."""
        if action not in ACTIONS:
            raise ValueError(f"unknown event action {action!r}; known: {ACTIONS}")
        ev = ResilienceEvent(action, site, kind, detail, call)
        with self._lock:
            self._events.append(ev)
            if self._event_log is not None:
                self._event_log.bump(f"Fault:{action}:{site}")
        return ev

    @property
    def events(self) -> tuple[ResilienceEvent, ...]:
        """Snapshot of all events in emission order."""
        with self._lock:
            return tuple(self._events)

    def of(self, action: str) -> tuple[ResilienceEvent, ...]:
        """All events with the given action."""
        return tuple(ev for ev in self.events if ev.action == action)

    def counts(self) -> dict[str, int]:
        """Event count per action (zero-filled for absent actions)."""
        out = {action: 0 for action in ACTIONS}
        for ev in self.events:
            out[ev.action] += 1
        return out

    def fingerprint(self) -> tuple[tuple[str, str, str, str, int], ...]:
        """Order-independent, comparable form of the whole stream.

        Sorted rather than in emission order because comm events arrive
        from rank threads whose interleaving is scheduler-dependent; the
        *set* of events is deterministic even when the order is not.
        """
        return tuple(sorted(ev.as_tuple() for ev in self.events))

    def clear(self) -> None:
        """Drop all recorded events."""
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


#: The always-present default stream (swapped by :func:`capture`).
_DEFAULT_LOG = ResilienceLog()
_current = _DEFAULT_LOG
_swap_lock = threading.Lock()


def emit(
    action: str, site: str, kind: str, detail: str = "", call: int = -1
) -> ResilienceEvent:
    """Emit into the current log (the hook the stack's layers call)."""
    return _current.emit(action, site, kind, detail, call)


@contextmanager
def capture(log: ResilienceLog | None = None) -> Iterator[ResilienceLog]:
    """Route events into ``log`` (a fresh one by default) for the block."""
    global _current
    new = log if log is not None else ResilienceLog()
    with _swap_lock:
        prev = _current
        _current = new
    try:
        yield new
    finally:
        with _swap_lock:
            _current = prev
