"""Staged event logging in the style of PETSc's ``-log_view``.

This module subsumes the original flat profiler and extends it with
PETSc's *log stages* (``PetscLogStagePush``/``Pop``): named phases of a
run — setup, assembly, Krylov iteration, multigrid levels, fault
recovery — that the summary table breaks down by, exactly the way the
paper's published ``-log_view`` files attribute MatMult time per stage.

Three invariants hold by construction:

* the flat API is preserved: an :class:`EventLog` used without ever
  pushing a stage behaves exactly like the original profiler, with every
  event accounted to the implicit stage 0 (``"Main Stage"``);
* events nest and self-time is attributed to the innermost active event,
  so percentages add up the way PETSc's do;
* stages tile the wall clock: stage self-times (including Main Stage's
  remainder) sum to :attr:`EventLog.wall_seconds` exactly, which the
  test suite pins with a fake clock.

Use context managers for both layers::

    log = EventLog()
    with log.stage("KSPSolve"):
        with log.event("MatMult", flops=2 * nnz):
            y = a.multiply(x)
    print(log.render())
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")

#: The implicit stage 0 every un-staged event is accounted to.
MAIN_STAGE = "Main Stage"


@dataclass
class EventRecord:
    """Accumulated statistics for one named event within one stage."""

    name: str
    stage: str = MAIN_STAGE
    calls: int = 0
    total_seconds: float = 0.0    #: inclusive (with children)
    self_seconds: float = 0.0     #: exclusive (innermost attribution)
    flops: int = 0

    @property
    def gflops_rate(self) -> float:
        """Registered flops over self time, in Gflop/s."""
        if self.self_seconds <= 0:
            return 0.0
        return self.flops / self.self_seconds / 1e9


@dataclass
class StageRecord:
    """Accumulated wall time for one log stage."""

    name: str
    index: int
    pushes: int = 0
    total_seconds: float = 0.0    #: inclusive (with nested stages)
    self_seconds: float = 0.0     #: exclusive (nested stages subtracted)


@dataclass
class EventLog:
    """A ``-log_view``-style event profiler with PETSc log stages.

    Without stages this is the original flat profiler.  ``stage()`` (or
    the explicit ``push_stage``/``pop_stage`` pair) opens a named phase;
    events started while a stage is active are recorded under it, and the
    stage itself accumulates wall time with the same self/total
    distinction events have, so nested stages subtract cleanly.
    """

    clock: Callable[[], float] = time.perf_counter
    _records: dict[tuple[str, str], EventRecord] = field(default_factory=dict)
    _stages: dict[str, StageRecord] = field(default_factory=dict)
    #: Open events: (stage, name, start, accumulated child time).
    _stack: list[tuple[str, str, float, float]] = field(default_factory=list)
    #: Open stages: (name, start, accumulated child-stage time).
    _stage_stack: list[tuple[str, float, float]] = field(default_factory=list)
    _created: float | None = None

    def __post_init__(self) -> None:
        self._created = self.clock()
        self._stages[MAIN_STAGE] = StageRecord(name=MAIN_STAGE, index=0, pushes=1)

    # -- stages ------------------------------------------------------------
    @property
    def current_stage(self) -> str:
        """The innermost active stage (``"Main Stage"`` when none pushed)."""
        return self._stage_stack[-1][0] if self._stage_stack else MAIN_STAGE

    def _stage_record(self, name: str) -> StageRecord:
        rec = self._stages.get(name)
        if rec is None:
            rec = StageRecord(name=name, index=len(self._stages))
            self._stages[name] = rec
        return rec

    def push_stage(self, name: str) -> StageRecord:
        """Open stage ``name`` (PETSc's ``PetscLogStagePush``)."""
        if name == MAIN_STAGE:
            raise ValueError("Main Stage is implicit and cannot be pushed")
        rec = self._stage_record(name)
        rec.pushes += 1
        self._stage_stack.append((name, self.clock(), 0.0))
        return rec

    def pop_stage(self) -> StageRecord:
        """Close the innermost stage (PETSc's ``PetscLogStagePop``)."""
        if not self._stage_stack:
            raise ValueError("pop_stage with no stage pushed")
        name, start, child_time = self._stage_stack.pop()
        elapsed = self.clock() - start
        rec = self._stages[name]
        rec.total_seconds += elapsed
        rec.self_seconds += elapsed - child_time
        if self._stage_stack:
            parent, pstart, pchildren = self._stage_stack[-1]
            self._stage_stack[-1] = (parent, pstart, pchildren + elapsed)
        return rec

    @contextmanager
    def stage(self, name: str) -> Iterator[StageRecord]:
        """Run a block under stage ``name``; pops even when the body raises."""
        rec = self.push_stage(name)
        try:
            yield rec
        finally:
            self.pop_stage()

    # -- events ------------------------------------------------------------
    def record(self, name: str, stage: str | None = None) -> EventRecord:
        """The (auto-created) record for ``name`` in ``stage``.

        ``stage`` defaults to the currently active stage, which keeps the
        pre-stage flat API working unchanged: with no stage ever pushed,
        everything lives in ``"Main Stage"``.
        """
        key = (stage if stage is not None else self.current_stage, name)
        if key not in self._records:
            self._records[key] = EventRecord(name=name, stage=key[0])
        return self._records[key]

    @contextmanager
    def event(self, name: str, flops: int = 0) -> Iterator[EventRecord]:
        """Time a region; nested regions subtract from the parent's self time.

        Timing is attributed and the event stack popped even when the body
        raises — an exception inside a fault-recovery region must not lose
        the region's elapsed time or corrupt the nesting of its parents.
        """
        stage = self.current_stage
        rec = self.record(name, stage=stage)
        start = self.clock()
        self._stack.append((stage, name, start, 0.0))
        try:
            yield rec
        finally:
            _, _, _, child_time = self._stack.pop()
            elapsed = self.clock() - start
            rec.calls += 1
            rec.total_seconds += elapsed
            rec.self_seconds += elapsed - child_time
            rec.flops += flops
            if self._stack:
                pstage, pname, pstart, pchildren = self._stack[-1]
                self._stack[-1] = (pstage, pname, pstart, pchildren + elapsed)

    def bump(self, name: str, count: int = 1) -> EventRecord:
        """Count an occurrence of ``name`` without timing it.

        Resilience events (fault injections, detections, recoveries) are
        instantaneous from the profiler's point of view; they show up in
        the summary with call counts and zero time, the way PETSc logs
        stage markers.
        """
        rec = self.record(name)
        rec.calls += count
        return rec

    def timed(self, name: str, flops: int = 0) -> Callable[[Callable[..., T]], Callable[..., T]]:
        """Decorator form of :meth:`event`."""
        def _wrap(fn: Callable[..., T]) -> Callable[..., T]:
            @functools.wraps(fn)
            def _inner(*args, **kwargs) -> T:
                with self.event(name, flops=flops):
                    return fn(*args, **kwargs)

            return _inner

        return _wrap

    # -- reporting ---------------------------------------------------------
    @property
    def wall_seconds(self) -> float:
        """Time since the log was created."""
        return self.clock() - (self._created or 0.0)

    def summary(self) -> list[EventRecord]:
        """All records (across stages) sorted by self time, descending."""
        return sorted(
            self._records.values(), key=lambda r: r.self_seconds, reverse=True
        )

    def stage_summary(self) -> list[StageRecord]:
        """Per-stage wall-time accounting, in stage-registration order.

        Main Stage is the remainder: its total is the whole wall clock and
        its self time is whatever no pushed stage covered, so the self
        times of all stages sum to :attr:`wall_seconds` exactly — the
        invariant PETSc's stage table holds and the tests pin.
        """
        wall = self.wall_seconds
        out = []
        staged_total = 0.0
        for rec in sorted(self._stages.values(), key=lambda s: s.index):
            if rec.name == MAIN_STAGE:
                continue
            out.append(rec)
            # Only top-level stage time is subtracted from Main Stage:
            # nested stage time is already inside its parent's total.
            staged_total += rec.total_seconds
        nested = sum(r.total_seconds - r.self_seconds for r in out)
        main = self._stages[MAIN_STAGE]
        main.total_seconds = wall
        main.self_seconds = wall - (staged_total - nested)
        return [main, *out]

    def events_in(self, stage: str) -> list[EventRecord]:
        """Records of ``stage``, sorted by self time, descending."""
        return sorted(
            (r for r in self._records.values() if r.stage == stage),
            key=lambda r: r.self_seconds,
            reverse=True,
        )

    def fraction(self, name: str) -> float:
        """Self time of ``name`` (all stages) over total logged self time."""
        total = sum(r.self_seconds for r in self._records.values())
        if total <= 0:
            return 0.0
        mine = sum(
            r.self_seconds for r in self._records.values() if r.name == name
        )
        return mine / total

    def render(self) -> str:
        """The ``-log_view`` style summary table, grouped by stage."""
        from ..bench.report import format_table

        total = sum(r.self_seconds for r in self._records.values()) or 1.0
        stages = self.stage_summary()
        used_stages = any(s.name != MAIN_STAGE for s in stages)
        rows = []
        for stage in stages:
            events = self.events_in(stage.name)
            if used_stages and (events or stage.name != MAIN_STAGE):
                rows.append(
                    (
                        f"--- stage {stage.index}: {stage.name} "
                        f"({stage.self_seconds:.4f}s self)",
                        "", "", "", "", "",
                    )
                )
            for rec in events:
                rows.append(
                    (
                        rec.name,
                        rec.calls,
                        f"{rec.total_seconds:.4f}",
                        f"{rec.self_seconds:.4f}",
                        f"{100 * rec.self_seconds / total:.0f}%",
                        f"{rec.gflops_rate:.2f}" if rec.flops else "-",
                    )
                )
        return format_table(
            ("event", "calls", "time [s]", "self [s]", "%self", "Gflop/s"),
            rows,
            title="Event log (PETSc -log_view style)",
        )

    def reset(self) -> None:
        """Clear all records and stages (open events keep running)."""
        self._records.clear()
        self._stages.clear()
        self._stages[MAIN_STAGE] = StageRecord(name=MAIN_STAGE, index=0, pushes=1)
        self._created = self.clock()


@dataclass
class LogStage:
    """A named, reusable stage handle (PETSc's ``PetscLogStage``).

    Registering a stage up front gives call sites a handle that can be
    activated repeatedly on a log::

        stage = LogStage("Assembly")
        with stage.on(log):
            assemble()
    """

    name: str

    @contextmanager
    def on(self, log: EventLog) -> Iterator[StageRecord]:
        """Activate this stage on ``log`` for the block."""
        with log.stage(self.name) as rec:
            yield rec
