"""SPMD communication-schedule checker: races, leaks, and deadlocks.

Two complementary entry points share the ``COMM0xx`` diagnostic codes:

* :func:`check_schedule` analyzes a *planned* schedule — per-rank lists of
  :class:`Send` / :class:`Recv` / :class:`Coll` ops — without running any
  threads.  It executes the schedule symbolically under the World's real
  matching semantics (buffered sends always progress, receives need a
  matching mail, collectives rendezvous all ranks), maintaining vector
  clocks as it goes.  When no rank can make progress it builds the
  **wait-for graph** (a blocked receiver waits on its source; a rank in a
  collective waits on every rank not yet there) and reports its cycles as
  deadlocks — the analysis a live run cannot do, because a deadlocked run
  never returns.
* :func:`check_log` audits a :class:`~repro.comm.schedule.ScheduleLog`
  captured from a finished run: messages sent but never received, and
  wildcard receives that matched while several candidate messages raced.

The parallel GMRES/Richardson iteration is the motivating subject: each
iteration is ghost-exchange sends/recvs (:class:`~repro.comm.scatter.
VecScatter` plans) followed by dot-product ``allreduce`` collectives, and
:func:`solver_iteration_schedule` builds exactly that shape from scatter
peer lists so solver configurations can be checked before they run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..comm.schedule import ScheduleLog, concurrent
from .diagnostics import AnalysisReport, Diagnostic

#: Wildcard source/tag for static Recv ops (mirrors ``comm.ANY_TAG``).
ANY = -1


@dataclass(frozen=True)
class Send:
    """Buffered send: always completes (the World snapshots the payload)."""

    dst: int
    tag: int = 0


@dataclass(frozen=True)
class Recv:
    """Blocking receive; ``src`` or ``tag`` may be :data:`ANY`."""

    src: int
    tag: int = 0


@dataclass(frozen=True)
class Coll:
    """Synchronizing collective; ``kind`` must match across ranks."""

    kind: str = "allreduce:sum"


def solver_iteration_schedule(
    send_peers: list[list[int]],
    recv_peers: list[list[int]],
    tag: int = 7001,
    collectives: tuple[str, ...] = ("allreduce:sum",),
) -> list[list]:
    """One parallel-solver iteration as a checkable schedule.

    ``send_peers[r]`` / ``recv_peers[r]`` are rank ``r``'s scatter plans
    (:attr:`VecScatter.send_peers` / :attr:`VecScatter.recv_peers`); the
    iteration posts the ghost exchange and then joins the solver's
    dot-product collectives, the structure of every GMRES/Richardson
    sweep on a distributed operator's rank-local view.
    """
    size = len(send_peers)
    schedule: list[list] = []
    for r in range(size):
        ops: list = [Send(dst, tag) for dst in send_peers[r]]
        ops.extend(Recv(src, tag) for src in recv_peers[r])
        ops.extend(Coll(kind) for kind in collectives)
        schedule.append(ops)
    return schedule


def check_schedule(schedule: list[list]) -> AnalysisReport:
    """Symbolically execute a schedule; report every COMM defect found."""
    size = len(schedule)
    report = AnalysisReport(subject=f"schedule[{size} ranks]")
    pc = [0] * size                       # per-rank program counter
    clocks = [[0] * size for _ in range(size)]
    boxes: dict[tuple[int, int], deque] = {}  # (src, dst) -> (tag, clock)

    def tick(r: int) -> tuple[int, ...]:
        clocks[r][r] += 1
        return tuple(clocks[r])

    def finished(r: int) -> bool:
        return pc[r] >= len(schedule[r])

    def current(r: int):
        return schedule[r][pc[r]]

    def match(r: int, op: Recv):
        """(key, index) of the mail ``op`` would take, or None."""
        sources = range(size) if op.src == ANY else (op.src,)
        candidates = []
        for src in sources:
            box = boxes.get((src, r))
            if not box:
                continue
            for i, (tag, clk) in enumerate(box):
                if op.tag == ANY or tag == op.tag:
                    candidates.append(((src, r), i, clk))
                    break  # non-overtaking: first match per source
        if not candidates:
            return None
        if len(candidates) > 1:
            # Several sources could satisfy a wildcard receive; if any two
            # sends are concurrent, the winner depends on timing.
            racy = any(
                concurrent(a[2], b[2])
                for i, a in enumerate(candidates)
                for b in candidates[i + 1:]
            )
            if racy:
                report.diagnostics.append(Diagnostic(
                    "COMM005", f"rank {r} op {pc[r]}",
                    f"wildcard receive has {len(candidates)} concurrent "
                    f"candidate sends (from ranks "
                    f"{sorted(c[0][0] for c in candidates)}); the match "
                    f"is timing-dependent",
                ))
        key, i, _clk = candidates[0]  # deterministic: lowest source rank
        return key, i

    progressed = True
    while progressed:
        progressed = False
        # Point-to-point progress: sends are buffered, receives need mail.
        for r in range(size):
            while not finished(r):
                op = current(r)
                if isinstance(op, Send):
                    boxes.setdefault((r, op.dst), deque()).append(
                        (op.tag, tick(r))
                    )
                elif isinstance(op, Recv):
                    found = match(r, op)
                    if found is None:
                        break
                    key, i = found
                    _tag, send_clock = boxes[key][i]
                    del boxes[key][i]
                    for k in range(size):
                        clocks[r][k] = max(clocks[r][k], send_clock[k])
                    tick(r)
                else:  # Coll — handled at the rendezvous below
                    break
                pc[r] += 1
                progressed = True
        # Collective rendezvous: fires only when every unfinished rank
        # is parked at one.
        waiting = [r for r in range(size) if not finished(r)]
        if waiting and all(isinstance(current(r), Coll) for r in waiting):
            kinds = {current(r).kind for r in waiting}
            if len(waiting) < size:
                # Someone already ran off the end of their schedule; the
                # rendezvous can never complete.  Reported as unmatched
                # below once nothing else progresses.
                pass
            elif len(kinds) > 1:
                report.diagnostics.append(Diagnostic(
                    "COMM006", f"ranks {waiting}",
                    f"collective mismatch: kinds {sorted(kinds)} entered "
                    f"simultaneously",
                ))
                for r in waiting:  # unblock to keep finding defects
                    tick(r)
                    pc[r] += 1
                progressed = True
            else:
                joined = [max(clocks[r][k] for r in waiting) for k in range(size)]
                for r in waiting:
                    clocks[r] = list(joined)
                    tick(r)
                    pc[r] += 1
                progressed = True

    _diagnose_blocked(schedule, pc, boxes, report)
    for (src, dst), box in sorted(boxes.items()):
        for tag, _clk in box:
            report.diagnostics.append(Diagnostic(
                "COMM001", f"rank {src}",
                f"message (tag {tag}) to rank {dst} is never received",
            ))
    return report


def _diagnose_blocked(
    schedule: list[list],
    pc: list[int],
    boxes: dict[tuple[int, int], deque],
    report: AnalysisReport,
) -> None:
    """Classify every rank stuck at quiescence: cycle, tag, or no sender."""
    size = len(schedule)
    blocked = [r for r in range(size) if pc[r] < len(schedule[r])]
    if not blocked:
        return
    # Wait-for edges: receiver -> source; collective -> all absent ranks.
    waits: dict[int, set[int]] = {}
    for r in blocked:
        op = schedule[r][pc[r]]
        if isinstance(op, Recv):
            waits[r] = set(range(size)) - {r} if op.src == ANY else {op.src}
        else:  # Coll that never assembled
            waits[r] = {
                p for p in range(size)
                if p != r and (
                    pc[p] < len(schedule[p])
                    and not isinstance(schedule[p][pc[p]], Coll)
                )
            }
    cycles = _find_cycles(waits)
    in_cycle = {r for cycle in cycles for r in cycle}
    for cycle in cycles:
        path = " -> ".join(str(r) for r in cycle + (cycle[0],))
        report.diagnostics.append(Diagnostic(
            "COMM004", f"ranks {sorted(cycle)}",
            f"wait-for cycle {path}: each rank blocks on the next's "
            f"unsent message — the schedule deadlocks",
        ))
    for r in blocked:
        if r in in_cycle:
            continue
        op = schedule[r][pc[r]]
        if isinstance(op, Recv):
            pending = [
                tag
                for (src, dst), box in boxes.items()
                if dst == r and (op.src == ANY or src == op.src)
                for tag, _clk in box
            ]
            if pending:
                report.diagnostics.append(Diagnostic(
                    "COMM003", f"rank {r} op {pc[r]}",
                    f"receive wants tag {op.tag} from rank {op.src} but "
                    f"only tags {sorted(set(pending))} are in flight",
                ))
            else:
                report.diagnostics.append(Diagnostic(
                    "COMM002", f"rank {r} op {pc[r]}",
                    f"receive from rank {op.src} (tag {op.tag}) has no "
                    f"matching send anywhere in the schedule",
                ))
        else:
            report.diagnostics.append(Diagnostic(
                "COMM002", f"rank {r} op {pc[r]}",
                f"collective {op.kind!r} never completes: peers finish "
                f"their schedules without joining it",
            ))


def _find_cycles(waits: dict[int, set[int]]) -> list[tuple[int, ...]]:
    """Distinct simple cycles in the wait-for graph (DFS, deduplicated)."""
    cycles: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    for start in waits:
        stack = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            for nxt in waits.get(node, ()):
                if nxt == path[0] and len(path) > 1:
                    key = frozenset(path)
                    if key not in seen:
                        seen.add(key)
                        cycles.append(path)
                elif nxt not in path and nxt in waits:
                    stack.append((nxt, path + (nxt,)))
    return cycles


# ---------------------------------------------------------------------------
# live-log audit
# ---------------------------------------------------------------------------


def check_log(log: ScheduleLog) -> AnalysisReport:
    """Audit a finished run's :class:`ScheduleLog` for comm defects."""
    report = AnalysisReport(subject=f"schedule-log[{log.size} ranks]")
    for src, dst, tag in log.unreceived():
        report.diagnostics.append(Diagnostic(
            "COMM001", f"rank {src}",
            f"message (tag {tag}) to rank {dst} was never received",
        ))
    for event in log.ambiguous_wildcards():
        report.diagnostics.append(Diagnostic(
            "COMM005", f"rank {event.rank}",
            f"wildcard receive from rank {event.peer} matched tag "
            f"{event.tag} while tags {list(event.pending_tags)} were all "
            f"pending — the match depends on arrival order",
        ))
    return report
