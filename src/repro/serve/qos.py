"""Per-tenant QoS: admission, caps, overload shedding, circuit breaking.

The :class:`AdmissionController` is the service's front gate.  It keeps
three invariants a multi-tenant server owes its tenants:

* **bounded queue** — total admitted-but-unfinished requests never exceed
  ``queue_cap``, so the service's memory and tail latency stay bounded
  however hard clients push;
* **tenant isolation** — no tenant holds more than its policy's
  ``max_inflight`` slots, so one aggressive tenant cannot starve the
  rest;
* **graceful degradation** — past the shed watermark the controller
  refuses the lowest-priority work *before* the queue is full, and it
  reports the transition into and out of overload through the fault
  framework (:mod:`repro.faults.events`), the same ``degraded`` /
  ``recovered`` vocabulary the resilient solve stack uses.  An overload
  is an environmental fault; shedding is the planned response to it.

The :class:`CircuitBreaker` isolates failing tenants: a tenant whose
requests keep failing (timeouts, compute errors) is *opened* after a
run of consecutive failures, its traffic refused instantly instead of
queueing up to time out again.  The breaker is deterministic by
construction — states advance on request counts, never on wall-clock
time — so a seeded run replays bit-identically: ``cooldown`` refused
requests buy one half-open probe, and the probe's outcome closes or
re-opens the circuit.

Admission is thread-safe (one lock; admission decisions are tiny) and
purely synchronous — the asyncio server calls it inline before queueing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..faults.events import emit as emit_fault_event
from ..obs.observer import obs_counter
from .request import SolveRequest


@dataclass(frozen=True)
class TenantPolicy:
    """What one tenant is entitled to.

    ``max_inflight`` caps the tenant's admitted-but-unfinished requests.
    ``min_priority_under_load`` lets a tenant mark its own traffic as
    load-sheddable below a threshold: requests with priority strictly
    below it are shed *whenever the service is past the watermark*, not
    just at the global shed priority.
    """

    max_inflight: int = 64
    min_priority_under_load: int | None = None


class AdmissionController:
    """Synchronous admission gate with overload shedding.

    Parameters
    ----------
    queue_cap:
        Hard cap on admitted-but-unfinished requests across all tenants.
    shed_watermark:
        Fraction of ``queue_cap`` past which the controller enters the
        *overloaded* state and starts shedding.
    shed_priority:
        While overloaded, requests with priority <= this are refused.
    policies:
        Per-tenant :class:`TenantPolicy` overrides; unknown tenants get
        ``default_policy``.
    """

    def __init__(
        self,
        queue_cap: int = 256,
        shed_watermark: float = 0.75,
        shed_priority: int = 0,
        policies: dict[str, TenantPolicy] | None = None,
        default_policy: TenantPolicy = TenantPolicy(),
    ) -> None:
        if queue_cap < 1:
            raise ValueError("queue_cap must be positive")
        if not 0.0 < shed_watermark <= 1.0:
            raise ValueError("shed_watermark must be in (0, 1]")
        self.queue_cap = queue_cap
        self.shed_watermark = shed_watermark
        self.shed_priority = shed_priority
        self.policies = dict(policies or {})
        self.default_policy = default_policy
        self._lock = threading.Lock()
        self._inflight: dict[str, int] = {}
        self._depth = 0
        self._overloaded = False
        self._admitted = 0
        self._rejected = 0

    def policy_for(self, tenant: str) -> TenantPolicy:
        """The tenant's policy (the default when none was registered)."""
        return self.policies.get(tenant, self.default_policy)

    # -- the gate ------------------------------------------------------
    def try_admit(self, request: SolveRequest) -> str | None:
        """Admit ``request`` or return the human-readable refusal reason.

        On admission the caller owns one slot and MUST call
        :meth:`release` exactly once when the request finishes (served,
        timed out, or errored).
        """
        with self._lock:
            reason = self._refusal_locked(request)
            if reason is None:
                self._inflight[request.tenant] = (
                    self._inflight.get(request.tenant, 0) + 1
                )
                self._depth += 1
                self._admitted += 1
                self._note_load_locked()
            else:
                self._rejected += 1
        if reason is None:
            obs_counter("serve.admitted", labels={"tenant": request.tenant})
        else:
            obs_counter("serve.rejected", labels={"tenant": request.tenant})
        return reason

    def _refusal_locked(self, request: SolveRequest) -> str | None:
        if self._depth >= self.queue_cap:
            return f"queue full ({self.queue_cap} inflight)"
        policy = self.policy_for(request.tenant)
        if self._inflight.get(request.tenant, 0) >= policy.max_inflight:
            return (
                f"tenant {request.tenant!r} at its inflight cap "
                f"({policy.max_inflight})"
            )
        if self._depth >= self._watermark_depth():
            floor = self.shed_priority
            if policy.min_priority_under_load is not None:
                floor = max(floor, policy.min_priority_under_load - 1)
            if request.priority <= floor:
                return (
                    f"shed under overload (priority {request.priority} <= "
                    f"{floor} at depth {self._depth})"
                )
        return None

    def release(self, request: SolveRequest) -> None:
        """Return the slot :meth:`try_admit` granted."""
        with self._lock:
            count = self._inflight.get(request.tenant, 0)
            if count <= 1:
                self._inflight.pop(request.tenant, None)
            else:
                self._inflight[request.tenant] = count - 1
            self._depth = max(0, self._depth - 1)
            self._note_load_locked()

    def _watermark_depth(self) -> int:
        return max(1, int(self.queue_cap * self.shed_watermark))

    def _note_load_locked(self) -> None:
        """Track the overload state transition; report it as a fault event."""
        overloaded = self._depth >= self._watermark_depth()
        if overloaded and not self._overloaded:
            self._overloaded = True
            emit_fault_event(
                "degraded", "serve.overload", "shedding",
                detail=f"depth={self._depth}/{self.queue_cap}",
            )
        elif not overloaded and self._overloaded:
            self._overloaded = False
            emit_fault_event(
                "recovered", "serve.overload", "shedding",
                detail=f"depth={self._depth}/{self.queue_cap}",
            )

    # -- introspection -------------------------------------------------
    @property
    def overloaded(self) -> bool:
        """True while depth is at or past the shed watermark."""
        with self._lock:
            return self._overloaded

    def depth(self) -> int:
        """Admitted-but-unfinished requests right now."""
        with self._lock:
            return self._depth

    def stats(self) -> dict:
        """Admission tallies, JSON-safe."""
        with self._lock:
            return {
                "admitted": self._admitted,
                "rejected": self._rejected,
                "depth": self._depth,
                "queue_cap": self.queue_cap,
                "overloaded": self._overloaded,
                "inflight": dict(sorted(self._inflight.items())),
            }


@dataclass
class _TenantCircuit:
    """One tenant's breaker state (internal to :class:`CircuitBreaker`)."""

    state: str = "closed"
    failures: int = 0          #: consecutive failures while closed
    refusals: int = 0          #: refusals served while open
    probing: bool = False      #: the half-open probe is in flight


class CircuitBreaker:
    """Per-tenant request-count circuit breaker (no wall-clock state).

    States follow the classic pattern, advanced only by request
    outcomes so replays are deterministic:

    * **closed** — requests flow; ``failure_threshold`` *consecutive*
      failures trip the circuit **open** (a ``degraded`` event on the
      ``serve.breaker`` site);
    * **open** — requests are refused instantly; after ``cooldown``
      refusals the circuit goes **half-open**;
    * **half-open** — exactly one probe request is admitted; success
      closes the circuit (a ``recovered`` event), failure re-opens it.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip a closed circuit.
    cooldown:
        Refused requests an open circuit serves before allowing a probe.
    """

    def __init__(self, failure_threshold: int = 4, cooldown: int = 8) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if cooldown < 1:
            raise ValueError("cooldown must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._lock = threading.Lock()
        self._circuits: dict[str, _TenantCircuit] = {}
        self._tripped = 0
        self._refused = 0

    def _circuit(self, tenant: str) -> _TenantCircuit:
        return self._circuits.setdefault(tenant, _TenantCircuit())

    def allow(self, tenant: str) -> str | None:
        """Let the tenant's request through, or return the refusal reason."""
        with self._lock:
            c = self._circuit(tenant)
            if c.state == "closed":
                return None
            if c.state == "half-open":
                if c.probing:
                    self._refused += 1
                    return (
                        f"tenant {tenant!r} circuit half-open "
                        "(probe in flight)"
                    )
                c.probing = True
                return None
            c.refusals += 1
            self._refused += 1
            if c.refusals >= self.cooldown:
                c.state = "half-open"
                c.probing = False
            return (
                f"tenant {tenant!r} circuit open "
                f"({c.refusals}/{self.cooldown} toward probe)"
            )

    def record(self, tenant: str, ok: bool) -> None:
        """Feed one request outcome back into the tenant's circuit."""
        with self._lock:
            c = self._circuit(tenant)
            if c.state == "half-open":
                c.probing = False
                if ok:
                    c.state = "closed"
                    c.failures = 0
                    emit_fault_event(
                        "recovered", "serve.breaker", "close",
                        detail=f"tenant={tenant} probe succeeded",
                    )
                    obs_counter(
                        "serve.breaker_closes", labels={"tenant": tenant}
                    )
                else:
                    c.state = "open"
                    c.refusals = 0
                return
            if c.state == "open":
                return
            if ok:
                c.failures = 0
                return
            c.failures += 1
            if c.failures >= self.failure_threshold:
                c.state = "open"
                c.refusals = 0
                self._tripped += 1
                emit_fault_event(
                    "degraded", "serve.breaker", "open",
                    detail=f"tenant={tenant} after {c.failures} "
                    "consecutive failures",
                )
                obs_counter("serve.breaker_trips", labels={"tenant": tenant})

    def cancel(self, tenant: str) -> None:
        """Return an unused probe slot (the probe never actually ran).

        Called when a request that :meth:`allow` let through is refused
        downstream (admission shed) before producing an outcome — the
        half-open circuit keeps waiting for a real probe instead of
        treating the shed as a verdict.
        """
        with self._lock:
            self._circuit(tenant).probing = False

    def state(self, tenant: str) -> str:
        """The tenant's circuit state: closed, open, or half-open."""
        with self._lock:
            return self._circuit(tenant).state

    def stats(self) -> dict:
        """Breaker tallies, JSON-safe."""
        with self._lock:
            return {
                "tripped": self._tripped,
                "refused": self._refused,
                "open": sorted(
                    t for t, c in self._circuits.items() if c.state != "closed"
                ),
            }
