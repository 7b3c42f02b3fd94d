"""Online repartitioning: layouts, migration plans, and elastic worlds.

When a rank dies mid-solve (or ranks are added), the contiguous row
partition (:class:`~repro.comm.partition.RowLayout`) must be rebuilt for
the new world size and the owned row blocks redistributed.  This module
keeps that pipeline explicit and checkable:

* :func:`plan_transfers` computes which global row ranges move between
  which (new) ranks — survivors are renumbered compactly on a shrink,
  identically on a grow, and rows whose old owner died are re-sourced
  from a designated *recovery root* (the rank that restored the global
  state from the last checkpoint);
* :func:`migration_schedule` lowers the plan to per-rank
  :class:`~repro.analysis.comm_check.Send`/``Recv`` op lists, and
  :func:`check_migration` runs the PR 4 vector-clock checker over them
  *before* any thread moves — a repartition that could deadlock or race
  is rejected as a report, not discovered as a hang;
* :func:`execute_migration` runs the same plan for real over a fresh
  :class:`~repro.comm.communicator.World` (so migration sends exercise
  the ``comm.send@R`` fault sites and the jittered retry path), with the
  run's :class:`~repro.comm.schedule.ScheduleLog` audited afterwards;
* :class:`ElasticWorld` ties it together: ``shrink()``/``grow()`` fire
  the ``world.resize`` fault site, rebuild the layout, invalidate the
  now-stale rank-block entries in the shared
  :class:`~repro.core.registry.SignatureRegistry`, and report the
  degraded/recovered transition through :mod:`repro.faults.events`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from ..analysis.comm_check import Recv, Send, check_log, check_schedule
from ..analysis.diagnostics import AnalysisReport
from ..comm.communicator import World
from ..comm.partition import RowLayout
from ..comm.schedule import ScheduleLog
from ..comm.spmd import run_spmd
from ..faults.events import emit
from ..faults.plan import fire as fire_fault
from ..mat.aij import AijMat
from ..obs.observer import obs_counter

#: Tag reserved for repartition traffic, away from solver ghost exchanges.
MIGRATION_TAG = 7321

#: Re-plans attempted when the ``world.resize`` fault site drops one.
MAX_RESIZE_RETRIES = 4


@dataclass(frozen=True)
class Transfer:
    """One contiguous row range moving to (new) rank ``dst``.

    ``src`` and ``dst`` are *new-world* rank numbers; ``src == dst``
    marks rows the destination already holds (a local keep, never sent).
    ``[start, end)`` are global row indices.
    """

    src: int
    dst: int
    start: int
    end: int

    @property
    def rows(self) -> int:
        """Number of rows in the range."""
        return self.end - self.start


def survivor_map(old_size: int, dead: Iterable[int]) -> dict[int, int]:
    """Compact renumbering of surviving old ranks into new ranks.

    Survivors keep their relative order: with rank 1 of 4 dead, old
    ranks (0, 2, 3) become new ranks (0, 1, 2).  A grow is the identity
    mapping (no dead ranks, old ranks keep their numbers).
    """
    casualties = set(dead)
    for r in casualties:
        if not 0 <= r < old_size:
            raise ValueError(f"dead rank {r} out of range for size {old_size}")
    mapping: dict[int, int] = {}
    for old in range(old_size):
        if old not in casualties:
            mapping[old] = len(mapping)
    if not mapping:
        raise ValueError("cannot shrink a world to zero survivors")
    return mapping


def plan_transfers(
    old: RowLayout,
    new: RowLayout,
    dead: Iterable[int] = (),
    recovery_root: int = 0,
) -> list[Transfer]:
    """Every row range each new rank must obtain, in (dst, start) order.

    Rows whose old owner survived are sourced from that survivor's new
    rank number; rows whose owner died are sourced from
    ``recovery_root`` — the new rank holding the restored checkpoint
    state.  Ranges the destination already holds appear as
    ``src == dst`` keeps so the plan covers every row exactly once
    (callers assemble blocks from it without consulting the old layout).
    """
    if old.n_global != new.n_global:
        raise ValueError(
            f"layouts disagree on the global size: "
            f"{old.n_global} != {new.n_global}"
        )
    if not 0 <= recovery_root < new.size:
        raise ValueError(f"recovery root {recovery_root} not in the new world")
    renumber = survivor_map(old.size, dead)
    casualties = set(dead)
    transfers: list[Transfer] = []
    for dst in range(new.size):
        lo, hi = new.range_of(dst)
        row = lo
        while row < hi:
            owner = old.owner_of(row)
            _, owner_end = old.range_of(owner)
            end = min(hi, owner_end)
            src = recovery_root if owner in casualties else renumber[owner]
            transfers.append(Transfer(src=src, dst=dst, start=row, end=end))
            row = end
    return transfers


def migration_schedule(
    transfers: list[Transfer], size: int, tag: int = MIGRATION_TAG
) -> list[list]:
    """Lower a transfer plan to per-rank Send/Recv ops for the checker.

    Each rank posts all its sends first (buffered, always progress),
    then its receives.  Both sides iterate the plan in the same
    deterministic (dst, start) order, so for any (src, dst) pair the
    send order matches the receive order — the non-overtaking transport
    then guarantees each receive takes the message its range expects.
    Local keeps (``src == dst``) move no message and are omitted.
    """
    schedule: list[list] = [[] for _ in range(size)]
    moving = [t for t in transfers if t.src != t.dst]
    for t in moving:
        if not (0 <= t.src < size and 0 <= t.dst < size):
            raise ValueError(f"transfer {t} outside world of size {size}")
        schedule[t.src].append(Send(t.dst, tag))
    for t in moving:
        schedule[t.dst].append(Recv(t.src, tag))
    return schedule


def check_migration(
    transfers: list[Transfer], size: int, tag: int = MIGRATION_TAG
) -> AnalysisReport:
    """Vector-clock check of a repartition plan before it runs."""
    return check_schedule(migration_schedule(transfers, size, tag))


def invalidate_row_blocks(registry, size: int) -> int:
    """Evict every cached row block partitioned for ``size`` ranks.

    Row blocks are cached in the shared registry's ``prepare`` namespace
    under :meth:`~repro.core.registry.SignatureRegistry.row_block_key`
    keys (the serve executor and the elastic solver share them); after a
    resize those entries describe a partition that no longer exists and
    must never be served again.
    """
    if registry is None:
        return 0
    prefix = registry.row_block_prefix(size)
    stale = [
        key
        for key in registry.keys("prepare")
        if isinstance(key, tuple) and key[: len(prefix)] == prefix
    ]
    return sum(1 for key in stale if registry.invalidate("prepare", key))


def row_block(csr: AijMat, layout: RowLayout, rank: int) -> AijMat:
    """Rank-local contiguous row block of a CSR operator."""
    start, end = layout.range_of(rank)
    lo, hi = int(csr.rowptr[start]), int(csr.rowptr[end])
    return AijMat(
        (end - start, csr.shape[1]),
        csr.rowptr[start : end + 1] - csr.rowptr[start],
        csr.colidx[lo:hi],
        csr.val[lo:hi],
        check=False,
    )


def execute_migration(
    world: World,
    transfers: list[Transfer],
    source_of: Callable[[Transfer], Any],
    tag: int = MIGRATION_TAG,
) -> tuple[list[list[tuple[Transfer, Any]]], AnalysisReport]:
    """Run a repartition plan over a live world; audit its schedule log.

    Every moving range is really sent through the communicator (so the
    ``comm.send@R`` fault sites and the jittered retry backoff apply to
    repartition traffic exactly as to solver traffic); local keeps are
    produced by ``source_of`` on the destination.  Returns each rank's
    ``(transfer, payload)`` pieces in ascending row order together with
    the :func:`~repro.analysis.comm_check.check_log` report of the
    vector-clocked traffic.
    """
    log = ScheduleLog(world.size)
    world.schedule_log = log
    ordered = sorted(transfers, key=lambda t: (t.dst, t.start))

    def rank_fn(comm):
        mine_out = [t for t in ordered if t.src == comm.rank and t.dst != t.src]
        mine_in = [t for t in ordered if t.dst == comm.rank]
        for t in mine_out:
            comm.send(source_of(t), t.dst, tag)
        pieces: list[tuple[Transfer, Any]] = []
        for t in mine_in:
            if t.src == comm.rank:
                pieces.append((t, source_of(t)))
            else:
                pieces.append((t, comm.recv(t.src, tag)))
        pieces.sort(key=lambda item: item[0].start)
        return pieces

    assembled = run_spmd(world.size, rank_fn, world=world)
    return assembled, check_log(log)


@dataclass
class ResizeEvent:
    """The full record of one world resize.

    Holds everything a driver needs to recover (the migration plan and
    its static checker report) and everything an audit needs afterwards
    (old/new layouts, casualties, how many registry entries were
    invalidated).
    """

    epoch: int
    old_size: int
    new_size: int
    dead: tuple[int, ...]
    old_layout: RowLayout
    new_layout: RowLayout
    transfers: list[Transfer] = field(default_factory=list)
    report: AnalysisReport | None = None
    invalidated: int = 0

    @property
    def kind(self) -> str:
        """``"shrink"`` or ``"grow"``."""
        return "shrink" if self.new_size < self.old_size else "grow"


class ElasticWorld:
    """A resizable SPMD world: layout, epoch, and registry hygiene.

    One instance tracks the *current* partition of a fixed global
    dimension across a varying number of ranks.  :meth:`shrink` /
    :meth:`grow` rebuild the layout, plan and statically check the
    migration, invalidate the stale per-rank block entries in the shared
    registry, and emit the degraded/recovered transition; the caller
    then executes the migration and resumes from its checkpoint.
    """

    def __init__(
        self,
        n_global: int,
        size: int,
        registry=None,
        max_send_retries: int | None = None,
        retry_seed: int = 0,
    ):
        if n_global < 1:
            raise ValueError("global size must be positive")
        self.n_global = n_global
        self.layout = RowLayout.uniform(n_global, size)
        self.registry = registry
        self.max_send_retries = max_send_retries
        self.retry_seed = retry_seed
        self.epoch = 0
        self.resizes: list[ResizeEvent] = []

    @property
    def size(self) -> int:
        """Current number of ranks."""
        return self.layout.size

    def make_world(self) -> World:
        """A fresh communicator world for the current epoch."""
        return World(
            self.size,
            max_send_retries=self.max_send_retries,
            retry_seed=self.retry_seed,
        )

    def shrink(self, dead: Iterable[int]) -> ResizeEvent:
        """Remove the ``dead`` ranks, renumbering survivors compactly."""
        casualties = tuple(sorted(set(dead)))
        if not casualties:
            raise ValueError("shrink needs at least one dead rank")
        return self.resize(self.size - len(casualties), dead=casualties)

    def grow(self, add: int = 1) -> ResizeEvent:
        """Add ``add`` fresh ranks at the top of the world."""
        if add < 1:
            raise ValueError("grow needs at least one new rank")
        return self.resize(self.size + add)

    def resize(
        self, new_size: int, dead: Iterable[int] = ()
    ) -> ResizeEvent:
        """Repartition to ``new_size`` ranks; plan + check the migration.

        This is the ``world.resize`` fault site: a scheduled ``drop``
        loses the coordinator's resize directive and is recovered by
        deterministic re-issue (a ``recovered``/``retry`` event per
        attempt); other kinds are benign — the plan below is a pure
        function of the layouts, so a delayed or corrupted directive is
        recomputed identically.
        """
        if new_size < 1:
            raise ValueError("world size must stay positive")
        casualties = tuple(sorted(set(dead)))
        if len(casualties) != self.size - new_size and casualties:
            raise ValueError(
                f"{len(casualties)} dead ranks cannot shrink "
                f"{self.size} -> {new_size}"
            )
        spec = fire_fault("world.resize")
        attempts = 0
        while spec is not None and spec.kind == "drop":
            attempts += 1
            if attempts > MAX_RESIZE_RETRIES:
                raise RuntimeError(
                    f"world.resize directive still dropped after "
                    f"{MAX_RESIZE_RETRIES} re-issues"
                )
            emit(
                "recovered", "world.resize", "retry",
                detail=f"resize {self.size}->{new_size}: "
                f"re-issue {attempts}",
            )
            spec = fire_fault("world.resize")
        if spec is not None:
            emit(
                "benign", "world.resize", spec.kind,
                detail=f"resize {self.size}->{new_size}: directive "
                "recomputed (pure function of layouts)",
            )

        old_layout = self.layout
        new_layout = RowLayout.uniform(self.n_global, new_size)
        transfers = plan_transfers(old_layout, new_layout, casualties)
        report = check_migration(transfers, new_size)
        if not report.ok:
            emit(
                "detected", "world.resize", "schedule",
                detail=f"migration schedule flagged: "
                f"{','.join(sorted(set(report.codes)))}",
            )
        invalidated = self._invalidate_blocks(old_layout.size)
        event = ResizeEvent(
            epoch=self.epoch,
            old_size=old_layout.size,
            new_size=new_size,
            dead=casualties,
            old_layout=old_layout,
            new_layout=new_layout,
            transfers=transfers,
            report=report,
            invalidated=invalidated,
        )
        moved = sum(t.rows for t in transfers if t.src != t.dst)
        action = "degraded" if event.kind == "shrink" else "recovered"
        emit(
            action, "world.resize", event.kind,
            detail=f"{event.old_size}->{event.new_size} ranks, "
            f"{moved} rows migrating, "
            f"{invalidated} cached blocks invalidated",
        )
        obs_counter("elastic.resizes", labels={"kind": event.kind})
        self.layout = new_layout
        self.epoch += 1
        self.resizes.append(event)
        return event

    def _invalidate_blocks(self, old_size: int) -> int:
        """Evict cached row blocks partitioned for the old world size."""
        return invalidate_row_blocks(self.registry, old_size)


def csr_rows_payload(csr: AijMat, start: int, end: int) -> tuple:
    """The wire form of rows ``[start, end)``: (rowptr, colidx, val)."""
    lo, hi = int(csr.rowptr[start]), int(csr.rowptr[end])
    return (
        np.array(csr.rowptr[start : end + 1] - csr.rowptr[start]),
        np.array(csr.colidx[lo:hi]),
        np.array(csr.val[lo:hi]),
    )


def assemble_block(
    pieces: list[tuple[Transfer, tuple]], n_cols: int
) -> AijMat:
    """Stitch received row-range payloads into one contiguous block."""
    if not pieces:
        return AijMat(
            (0, n_cols),
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
            check=False,
        )
    rowptr_parts = [np.zeros(1, dtype=np.int64)]
    colidx_parts = []
    val_parts = []
    nnz = 0
    for _t, (rowptr, colidx, val) in pieces:
        rowptr_parts.append(np.asarray(rowptr[1:], dtype=np.int64) + nnz)
        colidx_parts.append(colidx)
        val_parts.append(val)
        nnz += int(rowptr[-1])
    rows = sum(len(part) for part in rowptr_parts) - 1
    return AijMat(
        (rows, n_cols),
        np.concatenate(rowptr_parts),
        np.concatenate(colidx_parts).astype(np.int64, copy=False),
        np.concatenate(val_parts),
        check=False,
    )
