"""Seeded fault plans and the injector that fires them at named sites.

The design splits *what goes wrong* from *where it can go wrong*:

* a :class:`FaultSpec` schedules one fault — a site name, the site's call
  number to strike on, a fault kind, and corruption parameters;
* a :class:`FaultPlan` is an immutable schedule of specs, generated from a
  seed (:meth:`FaultPlan.generate`) so a campaign is bit-reproducible;
* a :class:`FaultInjector` consumes a plan at runtime: instrumented code
  calls :func:`fire` with its site name on every pass, and the injector
  returns the scheduled spec exactly when that site's private call counter
  matches.

Sites are strings.  The ones wired through the stack:

=====================  ====================================================
``spmv.output``        solver-level SpMV product (:class:`~repro.faults.abft.AbftOperator`)
``engine.output``      engine/replay execution inside ``ExecutionContext``
``trace.replay``       a trace-cache hit (models a stale/corrupt cached trace)
``comm.send@R``        rank R's point-to-point sends (drop / straggle / kill)
``network.message``    the modeled interconnect (straggler latency spikes)
=====================  ====================================================

Determinism under threads: each site has its *own* counter, and the sites
touched by the SPMD ranks are rank-qualified (``comm.send@2``), so every
counter advances along one thread's deterministic call sequence no matter
how the scheduler interleaves ranks.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .events import emit

#: Kinds that corrupt a floating-point result in place.
CORRUPTION_KINDS = ("bitflip", "nan", "zero")

#: Kinds for communication faults.
COMM_KINDS = ("drop", "straggle", "kill")

KNOWN_KINDS = CORRUPTION_KINDS + COMM_KINDS

#: Exponent-bit range for ``bitflip`` faults.  Flipping an exponent bit
#: changes the value by many orders of magnitude, so a flip on an
#: ordinary element is detectable far above the checksum tolerance.  The
#: one escape — a flip landing on a near-zero element, whose absolute
#: perturbation stays below the tolerance — is roundoff-scale and is
#: classified provably benign at injection time
#: (:func:`repro.faults.abft.corrupt_product`); mantissa bits, which
#: would make *every* flip sub-tolerance, are deliberately not generated.
_FLIP_BITS = (52, 62)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: strike site ``site`` on its ``call``-th firing."""

    site: str
    call: int
    kind: str
    index: int = 0          #: element to corrupt (taken modulo the array size)
    bit: int = 62           #: exponent bit for ``bitflip``
    magnitude: float = 4.0  #: latency multiplier for ``straggle``

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {KNOWN_KINDS}")
        if self.call < 0:
            raise ValueError("call number must be non-negative")

    def as_tuple(self) -> tuple:
        """Comparable form for schedule-reproducibility assertions."""
        return (self.site, self.call, self.kind, self.index, self.bit, self.magnitude)


def apply_corruption(spec: FaultSpec, y: np.ndarray) -> None:
    """Corrupt one element of ``y`` in place according to ``spec``."""
    if spec.kind not in CORRUPTION_KINDS:
        raise ValueError(f"{spec.kind!r} is not a corruption kind")
    if y.size == 0:
        return
    i = spec.index % y.size
    if spec.kind == "nan":
        y[i] = np.nan
    elif spec.kind == "zero":
        y[i] = 0.0
    else:  # bitflip
        bits = np.array([y[i]], dtype=np.float64).view(np.uint64)
        bits ^= np.uint64(1) << np.uint64(spec.bit % 63)
        y[i] = bits.view(np.float64)[0]


class FaultPlan:
    """An immutable, seed-reproducible schedule of :class:`FaultSpec`."""

    def __init__(self, specs: tuple[FaultSpec, ...] | list[FaultSpec]):
        specs = tuple(specs)
        seen: set[tuple[str, int]] = set()
        for spec in specs:
            key = (spec.site, spec.call)
            if key in seen:
                raise ValueError(f"duplicate fault scheduled at {key}")
            seen.add(key)
        self.specs = specs

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def as_tuples(self) -> tuple[tuple, ...]:
        """The schedule in comparable form (sorted by site, then call)."""
        return tuple(sorted(spec.as_tuple() for spec in self.specs))

    @classmethod
    def generate(
        cls,
        seed: int,
        site_budgets: Mapping[str, int],
        kinds: Mapping[str, tuple[str, ...]] | None = None,
        max_call: int = 24,
    ) -> "FaultPlan":
        """Draw a schedule from a seed: ``site_budgets[site]`` faults per site.

        ``kinds[site]`` restricts the kinds drawn for a site (default: the
        corruption kinds).  Call numbers are drawn without replacement from
        ``[0, max_call)`` so no two faults collide on one call.  Sites are
        processed in sorted order, making the schedule a pure function of
        the arguments — the reproducibility the campaign tests pin.
        """
        rng = np.random.default_rng(seed)
        kinds = dict(kinds or {})
        specs: list[FaultSpec] = []
        for site in sorted(site_budgets):
            count = site_budgets[site]
            if count < 0:
                raise ValueError(f"negative fault budget for site {site!r}")
            if count > max_call:
                raise ValueError(
                    f"cannot schedule {count} faults in {max_call} calls at {site!r}"
                )
            site_kinds = kinds.get(site, CORRUPTION_KINDS)
            calls = np.sort(rng.choice(max_call, size=count, replace=False))
            for call in calls:
                kind = str(site_kinds[int(rng.integers(len(site_kinds)))])
                specs.append(
                    FaultSpec(
                        site=site,
                        call=int(call),
                        kind=kind,
                        index=int(rng.integers(1 << 30)),
                        bit=int(rng.integers(_FLIP_BITS[0], _FLIP_BITS[1] + 1)),
                        magnitude=float(2 ** rng.integers(1, 5)),
                    )
                )
        return cls(specs)


class FaultInjector:
    """Runtime consumer of a :class:`FaultPlan` (thread-safe, single-use).

    Every instrumented pass over a site calls :meth:`fire`; the injector
    advances that site's counter and hands back the scheduled spec when
    one matches.  Fired specs are logged as ``injected`` events into the
    current :class:`~repro.faults.events.ResilienceLog`.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._pending: dict[str, dict[int, FaultSpec]] = {}
        for spec in plan:
            self._pending.setdefault(spec.site, {})[spec.call] = spec
        self._calls: dict[str, int] = {}
        self._fired: list[FaultSpec] = []
        self._lock = threading.Lock()

    def fire(self, site: str) -> FaultSpec | None:
        """Advance ``site``'s counter; return the spec striking this call."""
        with self._lock:
            n = self._calls.get(site, 0)
            self._calls[site] = n + 1
            spec = self._pending.get(site, {}).pop(n, None)
            if spec is not None:
                self._fired.append(spec)
        if spec is not None:
            emit("injected", site, spec.kind, call=n)
        return spec

    @property
    def fired(self) -> tuple[FaultSpec, ...]:
        """Specs that have struck so far."""
        with self._lock:
            return tuple(self._fired)

    def pending(self, site: str | None = None) -> int:
        """Scheduled faults not yet fired (optionally for one site)."""
        with self._lock:
            if site is not None:
                return len(self._pending.get(site, {}))
            return sum(len(d) for d in self._pending.values())

    def calls(self, site: str) -> int:
        """How many times ``site`` has fired so far."""
        with self._lock:
            return self._calls.get(site, 0)


# ---------------------------------------------------------------------------
# The active injector.  Module-global with a fast None path: with no
# campaign running, every instrumented site costs one attribute read.
# ---------------------------------------------------------------------------

_active: FaultInjector | None = None
_activation_lock = threading.Lock()


def active() -> FaultInjector | None:
    """The injector currently armed, or None."""
    return _active


def fire(site: str) -> FaultSpec | None:
    """Fire ``site`` against the active injector (None when disarmed)."""
    injector = _active
    if injector is None:
        return None
    return injector.fire(site)


@contextmanager
def inject(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Arm an injector for the duration of the block."""
    global _active
    with _activation_lock:
        if _active is not None:
            raise RuntimeError("a fault injector is already armed")
        _active = injector
    try:
        yield injector
    finally:
        with _activation_lock:
            _active = None
