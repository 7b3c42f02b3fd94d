"""Static lint passes over a recorded kernel trace.

The linter walks the linear op list a
:class:`~repro.simd.trace.TraceRecorder` captured — decoding every op
through the canonical :mod:`repro.simd.trace_ir` layouts, the same ones
the tiler and the fuser decode — and emits ``VEC0xx``
:class:`~repro.analysis.diagnostics.Diagnostic` findings from four passes:

* **ISA conformance** (``VEC01x``): every op must be legal for the ISA the
  variant targets.  The interpreting engine gates most instructions with
  ``isa.require`` at execution time, but a handful are ungated (e.g.
  ``blend``, whose :class:`~repro.simd.register.MaskRegister` argument can
  be constructed directly, bypassing ``make_mask``) — the static pass
  catches those, plus anything recorded under a permissive engine.
* **dataflow** (``VEC02x``): the trace is SSA-like (every op defines a
  fresh register/scalar id), so use-before-def and dead values are exact,
  not conservative.  Dead-value accounting applies to the *scalar*
  dataflow — the lost-accumulator class, a ``reduce_add`` result that
  never reaches a store.  Dead vector registers are deliberately not
  flagged: padded formats compute and drop whole accumulator strips by
  design (a SELL trailing slice whose rows are all padding), and
  structure-derived gathers (AIJPERM's float column indices) are consumed
  as indices outside the float dataflow; a genuinely dropped vector
  accumulator still surfaces as its row's missing store (``VEC041``).
* **memory safety** (``VEC03x``): every load/store/gather cell is
  checked against the *logical* bound of its buffer.  Logical bounds
  default to the physical buffer lengths but can be overridden — that is
  how padding bugs are caught: a SELL-padded physical buffer survives the
  recording run while the analyzer still flags cells past the logical
  matrix dimension.  Aligned-tagged ops are checked against the ISA's
  vector alignment (base buffers are 64-byte allocated per
  ``repro.memory.spaces``, so the offset decides).
* **coverage** (``VEC04x``): mask-union accounting over the output
  buffer(s) — every row written exactly once, with read-modify-write
  (store, load, store) recognized as legal accumulation.

A fifth pass, :func:`lint_megakernel` (``VEC05x``), audits *fused*
megakernel programs (:mod:`repro.simd.megakernel`) — a different
artifact from recorder traces, with its own failure modes: a step
reading a register or scalar no earlier segment defines (elided by the
fusion, or a consumer placed above its region), a region whose retained
source steps are not the chain and row epilogue its plans assume, and
fused programs that fail to cover the source trace's steps exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..simd.isa import Isa
from ..simd.megakernel import FOLD_BLOCK
from ..simd.trace import TraceRecorder
from ..simd.trace_ir import (
    STEP_LAYOUT,
    lane_addresses,
    layout_of,
    op_reads,
    op_writes,
    reg_defs,
    reg_uses,
    scalar_defs,
    scalar_uses,
)
from .diagnostics import Diagnostic

#: Op kinds whose engine entry points are mask-predicated; all but
#: ``blend`` are gated by ``isa.require("masks")`` at record time, but the
#: static check covers permissively-recorded traces and the ungated ops.
_MASK_REQUIRED = ("vstore_mask", "gather_mask", "fmadd_mask", "vload_prefix",
                  "blend")


@dataclass(frozen=True)
class BufferInfo:
    """What the linter knows about one trace buffer slot."""

    name: str | None      #: bound name, or None for a const snapshot
    length: int           #: physical length in elements
    itemsize: int         #: element size in bytes

    @property
    def label(self) -> str:
        return self.name if self.name is not None else "<const>"


@dataclass(frozen=True)
class TraceSubject:
    """A trace plus the metadata the lint passes need.

    ``bounds`` maps buffer names to their *logical* element counts; any
    buffer without an entry is bounded by its physical length.  ``outputs``
    names the buffers the coverage pass accounts for (each logical cell
    written exactly once).
    """

    ops: tuple
    lanes: int
    isa: Isa
    buffers: tuple[BufferInfo, ...]
    aligned_ops: frozenset[int] = frozenset()
    emulated_ops: frozenset[int] = frozenset()
    bounds: dict[str, int] = field(default_factory=dict)
    outputs: tuple[str, ...] = ("y",)

    def bound_of(self, b: int) -> int:
        info = self.buffers[b]
        if info.name is not None and info.name in self.bounds:
            return self.bounds[info.name]
        return info.length

    @classmethod
    def from_recorder(
        cls,
        recorder: TraceRecorder,
        bounds: dict[str, int] | None = None,
        outputs: tuple[str, ...] = ("y",),
    ) -> "TraceSubject":
        infos = tuple(
            BufferInfo(
                name=slot.name,
                length=slot.nbytes // np.dtype(slot.dtype).itemsize,
                itemsize=np.dtype(slot.dtype).itemsize,
            )
            for slot in recorder.buffers
        )
        return cls(
            ops=tuple(recorder.ops),
            lanes=recorder.lanes,
            isa=recorder.isa,
            buffers=infos,
            aligned_ops=frozenset(recorder.aligned_ops),
            emulated_ops=frozenset(recorder.emulated_ops),
            bounds=dict(bounds or {}),
            outputs=outputs,
        )


def lint_trace(subject: TraceSubject) -> list[Diagnostic]:
    """Run every lint pass; findings in pass order, op order within."""
    diags: list[Diagnostic] = []
    diags.extend(isa_pass(subject))
    diags.extend(dataflow_pass(subject))
    diags.extend(memory_pass(subject))
    diags.extend(coverage_pass(subject))
    return diags


def lint_recorder(
    recorder: TraceRecorder,
    bounds: dict[str, int] | None = None,
    outputs: tuple[str, ...] = ("y",),
) -> list[Diagnostic]:
    """Lint a finished recording (the common entry point)."""
    return lint_trace(TraceSubject.from_recorder(recorder, bounds, outputs))


# ---------------------------------------------------------------------------
# pass 1: ISA conformance
# ---------------------------------------------------------------------------


def isa_pass(subject: TraceSubject) -> list[Diagnostic]:
    isa, lanes = subject.isa, subject.lanes
    lanemask_ok = isa.has_masks or isa.has_predicates  # SVE predicates count
    diags: list[Diagnostic] = []
    for i, op in enumerate(subject.ops):
        kind = op[0]
        if not lanemask_ok and kind in _MASK_REQUIRED:
            diags.append(Diagnostic(
                "VEC010", f"op {i}",
                f"{kind} is mask-predicated but ISA {isa.name} has "
                f"neither mask nor predicate registers",
            ))
        if kind == "gather" and i not in subject.emulated_ops and not isa.has_gather:
            diags.append(Diagnostic(
                "VEC011", f"op {i}",
                f"hardware gather on ISA {isa.name} (use the SSE2 "
                f"emulation sequence instead)",
            ))
        if kind in ("fmadd", "fmadd_mask") and not isa.has_fma:
            diags.append(Diagnostic(
                "VEC012", f"op {i}",
                f"{kind} on ISA {isa.name} (decompose into mul + add)",
            ))
        diags.extend(_lane_width_check(i, op, lanes))
    return diags


def _lane_width_check(i: int, op: tuple, lanes: int) -> list[Diagnostic]:
    """VEC013: every baked vector operand must span exactly ``lanes``."""
    diags: list[Diagnostic] = []

    def check(what: str, n: int) -> None:
        if n != lanes:
            diags.append(Diagnostic(
                "VEC013", f"op {i}",
                f"{op[0]} {what} spans {n} lanes on a {lanes}-lane register",
            ))

    lay = layout_of(op[0])
    if lay.idx is not None:
        check("index vector", len(np.asarray(op[lay.idx]).reshape(-1)))
    if lay.bits is not None:
        check("mask", len(np.asarray(op[lay.bits])))
    for operand in (op[i] for i in lay.ruse):
        if operand[0] == "k":
            check("constant operand", len(np.asarray(operand[1]).reshape(-1)))
    return diags


# ---------------------------------------------------------------------------
# pass 2: dataflow
# ---------------------------------------------------------------------------


def dataflow_pass(subject: TraceSubject) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    reg_def_at: dict[int, int] = {}   # rid -> defining op index
    sid_def_at: dict[int, int] = {}
    sid_used: set[int] = set()
    for i, op in enumerate(subject.ops):
        lay = layout_of(op[0])
        for rid in reg_uses(op, lay):
            if rid not in reg_def_at:
                diags.append(Diagnostic(
                    "VEC020", f"op {i}",
                    f"{op[0]} reads register r{rid} before any definition",
                ))
        for sid in scalar_uses(op, lay):
            if sid not in sid_def_at:
                diags.append(Diagnostic(
                    "VEC020", f"op {i}",
                    f"{op[0]} reads scalar s{sid} before any definition",
                ))
            sid_used.add(sid)
        for rid in reg_defs(op, lay):
            reg_def_at[rid] = i
        for sid in scalar_defs(op, lay):
            sid_def_at[sid] = i
    for sid, i in sid_def_at.items():
        if sid not in sid_used:
            diags.append(Diagnostic(
                "VEC021", f"op {i}",
                f"scalar s{sid} ({subject.ops[i][0]}) is never consumed — "
                f"a reduce result that reaches no store is a lost "
                f"accumulator",
            ))
    return diags


# ---------------------------------------------------------------------------
# pass 3: memory safety
# ---------------------------------------------------------------------------


def memory_pass(subject: TraceSubject) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    vector_bytes = subject.isa.vector_bits // 8
    for i, op in enumerate(subject.ops):
        kind = op[0]
        lay = layout_of(kind)
        for b, cells in op_reads(op, subject.lanes) + op_writes(op, subject.lanes):
            cells = np.asarray(cells)
            if cells.size == 0:
                continue
            bound = subject.bound_of(b)
            bad = cells[(cells < 0) | (cells >= bound)]
            if bad.size:
                code = "VEC030" if lay.idx is not None else "VEC031"
                label = subject.buffers[b].label
                diags.append(Diagnostic(
                    code, f"op {i}",
                    f"{kind} touches {label}[{int(bad[0])}] "
                    f"(+{bad.size - 1} more) outside its logical bound "
                    f"{bound}",
                ))
        if i in subject.aligned_ops and lay.extent:
            b = op[lay.buf]
            off = int(op[lay.off])
            byte_off = off * subject.buffers[b].itemsize
            if byte_off % vector_bytes != 0:
                diags.append(Diagnostic(
                    "VEC032", f"op {i}",
                    f"aligned {kind} of {subject.buffers[b].label} at "
                    f"element {off} (byte {byte_off}) breaks the "
                    f"{vector_bytes}-byte {subject.isa.name} contract",
                ))
    return diags


# ---------------------------------------------------------------------------
# pass 4: output coverage
# ---------------------------------------------------------------------------


def coverage_pass(subject: TraceSubject) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    out_slots = {
        b: info for b, info in enumerate(subject.buffers)
        if info.name in subject.outputs
    }
    for b, info in out_slots.items():
        bound = subject.bound_of(b)
        # Per-cell state: 0 = never stored, 1 = stored (clean),
        # 2 = stored then loaded (accumulation in flight).
        state = np.zeros(info.length, dtype=np.int8)
        for i, op in enumerate(subject.ops):
            for rb, cells in op_reads(op, subject.lanes):
                if rb != b:
                    continue
                cells = np.asarray(cells)
                cells = cells[(cells >= 0) & (cells < info.length)]
                fresh = cells[state[cells] == 0]
                if fresh.size:
                    diags.append(Diagnostic(
                        "VEC022", f"op {i}",
                        f"{op[0]} loads {info.label}[{int(fresh[0])}] "
                        f"(+{fresh.size - 1} more) before any store — the "
                        f"kernel reads stale output memory",
                    ))
                state[cells[state[cells] == 1]] = 2
            for wb, cells in op_writes(op, subject.lanes):
                if wb != b:
                    continue
                cells = np.asarray(cells)
                cells = cells[(cells >= 0) & (cells < info.length)]
                doubled = cells[state[cells] == 1]
                if doubled.size:
                    diags.append(Diagnostic(
                        "VEC040", f"op {i}",
                        f"{op[0]} stores {info.label}[{int(doubled[0])}] "
                        f"(+{doubled.size - 1} more) which was already "
                        f"written with no intervening load — mask union "
                        f"double-covers these lanes",
                    ))
                state[cells] = 1
        unwritten = np.nonzero(state[:bound] == 0)[0]
        if unwritten.size:
            runs = _runs(unwritten)
            diags.append(Diagnostic(
                "VEC041", info.label,
                f"rows {runs} of {info.label} (logical bound {bound}) are "
                f"never written",
            ))
    return diags


# ---------------------------------------------------------------------------
# pass 5: megakernel fusion (VEC05x) — lints *fused* programs
# ---------------------------------------------------------------------------


def same_payload(a, b) -> bool:
    """Exact equality of compiled-step payloads (arrays by dtype, shape, bits)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and bool(np.array_equal(a, b))
        )
    if isinstance(a, (tuple, list)):
        return (
            isinstance(b, (tuple, list))
            and len(a) == len(b)
            and all(same_payload(x, y) for x, y in zip(a, b))
        )
    return type(a) is type(b) and a == b


def lint_tiling(full, tiled) -> list[Diagnostic]:
    """Compare a tiled :class:`~repro.simd.replay.KernelTrace` with the full one.

    The trace-cache fill never records the whole matrix: it records one
    exemplar per unit key and loop body and tiles the pieces cut from
    them (:mod:`repro.simd.tiling`).  Its program must equal the compile of a
    full recording — register and scalar counts, buffer table, counters
    and every step — or the replay computes something else.  Any
    difference is **VEC060**, located at the first differing step.
    """
    for what, a, b in (
        ("nregs", full.nregs, tiled.nregs),
        ("nscalars", full.nscalars, tiled.nscalars),
        ("counters", full.counters, tiled.counters),
        (
            "buffers",
            [(s.name, s.nbytes, s.dtype) for s in full.buffers],
            [(s.name, s.nbytes, s.dtype) for s in tiled.buffers],
        ),
    ):
        if a != b:
            return [Diagnostic("VEC060", what, f"tiled {b!r} vs full {a!r}")]
    for i, (a, b) in enumerate(zip(full.steps, tiled.steps)):
        if not same_payload(a, b):
            return [
                Diagnostic("VEC060", f"step {i}", f"tiled {b[0]} differs from full {a[0]}")
            ]
    if len(full.steps) != len(tiled.steps):
        return [
            Diagnostic(
                "VEC060",
                "steps",
                f"tiled program has {len(tiled.steps)} steps, full {len(full.steps)}",
            )
        ]
    return []


def lint_megakernel(mega, source) -> list[Diagnostic]:
    """Lint a fused :class:`~repro.simd.megakernel.MegakernelTrace`.

    The fused program is a different artifact from a recorder trace —
    plain compiled steps interleaved with :class:`FusedRegion` passes —
    so it gets its own pass family:

    * **VEC050** (def before use across segments): walking the segments
      in replay order, every register or scalar a plain step, a
      region's register-file operand or its epilogue (``base=`` slots,
      stores from the scalar file) reads must have been defined by an
      earlier segment — or, for an epilogue store, by the region's own
      batched reduce.  A region defines its exits only if it writes them
      to the register file (``materialize``) and its sums only if it
      writes them to the scalar file (``scalars_out``).  This catches a
      read of an id fusion elided (interior accumulators, absorbed
      loads' destinations — their definitions no longer execute) and an
      exit consumer placed above the region that now defines its input.
    * **VEC051** (chain integrity): each region's retained
      ``source_steps`` must re-derive as the chain its plan claims:
      each level's addends a subset of the previous level's
      destinations, non-increasing prefix widths with row ``p`` of
      level ``l`` continuing row ``p`` of level ``l-1``, an exit map
      holding exactly every level's destinations that do not continue,
      and a lane plan re-derived from the source ``fmadd_mask`` masks:
      every active lane once, each lane-row's in level order, each
      register operand entry the source register's lane, each
      absorbed operand entry the cell its defining load's lane reads
      in ``source`` (the compiled trace ``mega`` was fused from),
      zero-filled exactly where that load lane is dead, and a masked
      region's fold steps padded to whole ``FOLD_BLOCK`` runs of
      ``-0.0`` products; a region swept in ``"slab"`` order also needs
      equal widths.  The fold is only bit-identical to step-by-step
      replay under that linkage.
      The row epilogue is re-derived from its source steps through the
      exit map: the batched reduce's rows, slots and ``base=`` joins in
      source order, and every stored cell's value (a row's lane or a
      scalar slot), each cell stored once.  Each **folded constant** — a
      dropped ``reduce`` — must sum ``setzero`` registers only, with no
      ``base=``, and the program's initial scalar file must hold that
      sum of zeros, ``+0.0``, in its slots; those slots count as defined
      from the start for VEC050.
    * **VEC052** (region coverage): plain steps + fused source steps +
      dropped (absorbed) steps must account for every step of the
      source program, exactly once — a hole means a replay silently
      skips work; an overlap means it does work twice.
    """
    diags: list[Diagnostic] = []
    regions = mega.regions
    loads = _load_lanes(source.steps, mega.lanes)
    for r, region in enumerate(regions):
        where = f"region {r} (source step {region.first_step})"
        diags.extend(
            Diagnostic("VEC051", where, msg)
            for msg in _chain_defects(region, loads) + _epilogue_defects(region)
        )
    folded, found = _folded_constants(mega, source)
    diags.extend(found)
    diags.extend(_use_before_def(mega, folded))

    # -- VEC052: plain + fused + dropped must cover the source exactly --
    plain_count = sum(
        len(seg) for tag, seg in mega.segments if tag == "steps"
    )
    fused_count = sum(len(r.source_steps) for r in regions)
    covered = plain_count + fused_count + len(mega.dropped_steps)
    if covered != mega.source_nsteps:
        kind = "hole" if covered < mega.source_nsteps else "overlap"
        diags.append(Diagnostic(
            "VEC052", "program",
            f"coverage {kind}: {plain_count} plain + {fused_count} fused "
            f"+ {len(mega.dropped_steps)} dropped steps account for "
            f"{covered} of the source program's {mega.source_nsteps}",
        ))
    dropped_idx = [i for i, _ in mega.dropped_steps]
    if len(set(dropped_idx)) != len(dropped_idx):
        diags.append(Diagnostic(
            "VEC052", "program",
            "a source step is dropped more than once — absorption "
            "double-counts it",
        ))
    return diags


def _chain_defects(region, loads) -> list[str]:
    """What keeps a region's source steps from re-deriving its chain.

    Every region is checked as a ragged chain — a lockstep chain is the
    case of equal widths whose plan order is the source order — plus
    the ``"slab"`` order's own demand of equal widths.  ``loads`` are
    the source program's vector loads (:func:`_load_lanes`).
    """
    links = [s for s in region.source_steps if s[0] in ("fmadd", "fmadd_mask")]
    if len(links) != region.levels:
        return [
            f"region claims {region.levels} fused levels but carries "
            f"{len(links)} fmadd source steps"
        ]
    if not links:
        return []
    plan_ids = region.level_ids()
    widths = [len(np.asarray(s[1])) for s in links]
    planned = [len(ids) for ids in plan_ids]
    if planned != widths or any(b > a for a, b in zip(widths, widths[1:])):
        return [
            f"prefix widths {planned} do not match the source levels' "
            f"{widths} or increase"
        ]
    found = []
    if region.order == "slab" and len(set(widths)) > 1:
        found.append(
            f"fused levels have mixed widths {sorted(set(widths))} — the "
            f"levels do not run in lockstep"
        )
    linked = True
    ats = []
    for level, (step, ids) in enumerate(zip(links, plan_ids)):
        dsts = np.asarray(step[1])
        # The source entry behind each plan position, by destination id.
        sorter = np.argsort(dsts)
        at = sorter[
            np.searchsorted(dsts, ids, sorter=sorter).clip(0, len(dsts) - 1)
        ]
        if not np.array_equal(dsts[at], ids):
            linked = False
            continue
        ats.append(at)
        if level:
            addend = step[4]
            if not (
                isinstance(addend, tuple)
                and addend[0] == "r"
                and np.all(np.isin(addend[1], np.asarray(links[level - 1][1])))
                and np.array_equal(
                    np.asarray(addend[1])[at], plan_ids[level - 1][: len(ids)]
                )
            ):
                linked = False
    if not linked:
        found.append(
            "chain linkage broken: a level's addends are not the previous "
            "level's destinations, row for row in plan order — the fused "
            "fold would not reproduce step-by-step replay"
        )
    else:
        found.extend(_lane_plan_defects(region, links, ats, loads))
    expect = np.empty(len(plan_ids[0]), dtype=np.int64)
    for ids in plan_ids:
        expect[: len(ids)] = ids
    continuing = [np.asarray(s[4][1]) for s in links[1:] if s[4][0] == "r"]
    every = np.concatenate([np.asarray(s[1]) for s in links])
    if not (
        np.array_equal(np.asarray(region.dsts), expect)
        and np.array_equal(
            np.sort(region.dsts),
            np.setdiff1d(every, np.concatenate([every[:0], *continuing])),
        )
    ):
        found.append(
            "exit map is not every level's destinations that do not continue "
            "— a row's final accumulator lands in the wrong register"
        )
    return found


def _load_lanes(steps, lanes: int) -> dict:
    """Per buffer, ``(ids, cells, live)`` of every vector load in ``steps``:
    the register ids it defines (sorted) and each lane's cell and
    liveness, through :func:`~repro.simd.trace_ir.lane_addresses`."""
    lane_idx = np.arange(lanes, dtype=np.int64)
    parts: dict[int, list] = {}
    for step in steps:
        lay = STEP_LAYOUT[step[0]]
        if lay.rdef and lay.buf is not None:
            addr, live = lane_addresses(step, lay, lane_idx)
            live = np.ones(addr.shape, dtype=bool) if live is None else live
            parts.setdefault(step[lay.buf], []).append((step[lay.rdef[0]], addr, live))
    out = {}
    for b, part in parts.items():
        ids, cells, live = (np.concatenate(p) for p in zip(*part))
        order = np.argsort(ids)
        out[b] = (ids[order], cells[order], live[order])
    return out


def _lane_plan_defects(region, links, ats, loads) -> list[str]:
    """What keeps a region's lane plan from re-deriving from its source.

    From the source steps, the plan is every active (level, row, lane)
    entry — an ``fmadd`` lane, or an ``fmadd_mask`` lane whose bit is
    set — once, each lane-row's entries in level order, lane-rows by
    active count, deepest first; ``ats[l]`` is the source entry behind
    each row of level ``l``.  A masked region pads each fold step to a
    multiple of ``FOLD_BLOCK`` entries that repeat its last one, with
    their products set to ``-0.0``.  Each operand's plan must then
    read, entry by entry, register ``id * lanes + lane`` of the source
    step's multiplicand, or the cell its defining load's lane reads,
    with the dead load lanes among the entries zero-filled.
    """
    lanes = int(region.shape[2])
    lane_idx = np.arange(lanes, dtype=np.int64)
    widths = [len(at) for at in ats]
    masked = any(step[0] == "fmadd_mask" for step in links)
    active = np.concatenate([
        np.asarray(step[5], dtype=bool)[at] if step[0] == "fmadd_mask"
        else np.ones((len(at), lanes), dtype=bool)
        for step, at in zip(links, ats)
    ])
    ent = np.flatnonzero(active)
    row = ent // lanes
    lane_row = (row - np.repeat(np.cumsum([0, *widths[:-1]]), widths)[row]) * lanes
    lane_row += ent % lanes
    count = np.bincount(lane_row, minlength=widths[0] * lanes)
    order = np.argsort(-count, kind="stable")[: np.count_nonzero(count)]
    real = [int(np.count_nonzero(count > k)) for k in range(int(count.max(initial=0)))]
    block = FOLD_BLOCK if masked else 1
    fold = [-(-w // block) * block for w in real]
    grouped = ent[np.argsort(lane_row, kind="stable")]
    first = np.cumsum(count) - count
    take = np.concatenate(
        [grouped[first[order[np.minimum(np.arange(f), w - 1)]] + k]
         for k, (w, f) in enumerate(zip(real, fold))] or [ent]
    )
    pad = np.concatenate(
        [o + np.arange(w, f) for o, w, f in zip(np.cumsum([0, *fold[:-1]]), real, fold)]
        or [np.zeros(0, dtype=np.int64)]
    )
    # An unmasked region folds in place: its lane-rows are in order.
    rows_ok = region.lane_rows is None if not masked else (
        region.lane_rows is not None and np.array_equal(region.lane_rows, order)
    )
    if tuple(region.fold) != tuple(fold) or not rows_ok:
        return [
            "lane plan differs from the source fmadd_mask masks' — the fold "
            "would add a masked-off lane, skip an active one, or add a "
            "lane's products out of level order"
        ]
    if not np.array_equal(pad, [] if region.pad is None else region.pad):
        return [
            f"fold steps are not padded to whole {FOLD_BLOCK}-entry runs of "
            f"-0.0 products — a step's scalar tail could keep another NaN "
            f"than plain replay's blocks"
        ]
    if region.order == "slab" and take.size != len(links) * widths[0] * lanes:
        return ['a region swept in "slab" order has masked-off lanes the sweep would fold']

    def arranged(grid) -> np.ndarray:
        """A level-major ``(sum(widths), lanes)`` grid in the plan's order."""
        vals = grid.ravel()[take]
        if region.order == "slab":
            vals = vals.reshape(len(links), widths[0], lanes).swapaxes(0, 1)
        return vals.ravel()

    found = []
    for name, slot, src in (("a", 2, region.a_src), ("b", 3, region.b_src)):
        ids = np.concatenate(
            [np.asarray(step[slot][1])[at] for step, at in zip(links, ats)]
        )
        if src[0] == "reg":
            plan, fill = src[1], None
            cells = ids[:, None] * lanes + lane_idx
            live = np.ones(cells.shape, dtype=bool)
        else:
            if src[0] == "buf":
                plan, fill = src[2], src[3]
            else:  # a slab view: the contiguous run from its start
                plan, fill = src[2] + np.arange(take.size), None
            defined, cells, live = loads.get(src[1], (np.zeros(0, dtype=np.int64),) * 3)
            at = np.searchsorted(defined, ids).clip(0, max(defined.size - 1, 0))
            if not defined.size or not np.array_equal(defined[at], ids):
                found.append(
                    f"operand {name} plan reads buffer {src[1]} but its "
                    f"multiplicands are not all loads of that buffer"
                )
                continue
            cells, live = cells[at], live[at]
        dead = np.flatnonzero(~arranged(live))
        if not np.array_equal(np.asarray(plan).ravel(), arranged(cells)):
            found.append(f"operand {name} plan reads other cells than its source lanes")
        elif not np.array_equal([] if fill is None else fill, dead):
            found.append(
                f"operand {name} zero-fills other entries than the dead load "
                f"lanes the fold adds — an active lane would multiply a stale "
                f"buffer value instead of the 0.0 the plain load leaves"
            )
    return found


def _epilogue_defects(region) -> list[str]:
    """What keeps a region's row epilogue from re-deriving its source steps.

    The epilogue's source steps (everything after the FMA levels) are
    read through the exit map ``dsts``: the batched reduce must sum each
    source reduce's rows into its scalar slots and join the same
    ``base=`` slots, and every store plan must put the same value in
    every cell — row ``p``'s lane for a vector store, the same scalar
    slot for a scalar one — each cell once.  Plan entries are
    independent, so they are compared as sets, not in order.
    """
    lanes = int(region.shape[2])
    lane_idx = np.arange(lanes, dtype=np.int64)
    exits = np.asarray(region.dsts)
    sorter = np.argsort(exits)

    def rows_of(opnd) -> np.ndarray | None:
        if not (isinstance(opnd, tuple) and opnd[0] == "r"):
            return None
        ids = np.asarray(opnd[1])
        at = sorter[np.searchsorted(exits, ids, sorter=sorter).clip(0, len(exits) - 1)]
        return at if np.array_equal(exits[at], ids) else None

    found: list[str] = []
    reduces = [np.zeros((3, 0), dtype=np.int64)]  # (slot, row, base slot or -1)
    stores: dict[tuple, list] = {}
    for step in region.source_steps[region.levels:]:
        kind = step[0]
        if kind == "sstore" and step[3][0] == "s":
            stores.setdefault((step[1], "s"), []).append((step[2], step[3][1]))
            continue
        operand = step[2] if kind == "reduce" else step[3]
        r = rows_of(operand) if kind in ("reduce", "vstore", "vstore_mask") else None
        if r is None:
            found.append(
                f"epilogue step {kind} does not read the region's exit "
                f"accumulators only"
            )
        elif kind == "reduce":
            base = np.full(len(r), -1) if step[3] is None else np.asarray(step[3][1])
            reduces.append(np.stack([np.asarray(step[1]), r, base]))
        else:
            flat = r[:, None] * lanes + lane_idx
            cells, live = lane_addresses(step, STEP_LAYOUT[kind], lane_idx)
            if live is not None:
                flat, cells = flat[live], cells[live]
            stores.setdefault((step[1], "v"), []).append((cells.ravel(), flat.ravel()))

    red = np.asarray(region.red_dsts)
    base = np.full(red.size, -1)
    if region.red_base is not None:
        at, slots = region.red_base
        base[slice(None) if at is None else at] = slots
    rows = np.arange(red.size) if region.red_rows is None else region.red_rows
    have, want = _by_key(np.stack([red, rows, base])), _by_key(np.concatenate(reduces, axis=1))
    if have.shape != want.shape or not np.array_equal(have[:2], want[:2]):
        found.append(
            "batched reduce sums other rows into other slots than the source "
            "reduces"
        )
    elif not np.array_equal(have[2], want[2]):
        found.append(
            "batched reduce joins other base= totals than the source reduces "
            "— a row's remainder would be added to another row's body"
        )

    plans: dict[tuple, list] = {}
    for b, cells, (kind, idx) in region.stores:
        idx = np.arange(len(cells)) if idx is None else np.asarray(idx)
        if kind == "p":
            if idx.size and idx.max() >= red.size:
                found.append(f"store plan on buffer {b} reads past the batched sums")
                continue
            kind, idx = "s", red[idx]
        plans.setdefault((b, kind), []).append((np.asarray(cells), idx))
    for key in set(stores) | set(plans):
        want, have = (
            np.concatenate(
                [np.stack([c, v]) for c, v in table.get(key, ())]
                or [np.zeros((2, 0), dtype=np.int64)],
                axis=1,
            )
            for table in (stores, plans)
        )
        if np.unique(want[0]).size != want.shape[1]:
            found.append(f"epilogue stores a cell of buffer {key[0]} twice")
        elif have.shape != want.shape or not np.array_equal(_by_key(have), _by_key(want)):
            found.append(
                f"store plan on buffer {key[0]} writes other values to other "
                f"cells than its source steps — a row's result lands in "
                f"another row's place"
            )
    return found


def _folded_constants(mega, source) -> tuple[np.ndarray, list[Diagnostic]]:
    """The scalar slots of the reduces ``mega`` folded into constants,
    and the VEC051 findings on them.

    A folded reduce must sum ``setzero`` registers only, with no
    ``base=``: it then defines the sum of a zero block whatever the
    inputs, and the initial scalar file must hold exactly that.
    """
    zero = np.zeros(max(source.nregs, 1), dtype=bool)
    for step in source.steps:
        if step[0] == "setzero":
            zero[step[1]] = True
    slots = [np.zeros(0, dtype=np.int64)]
    diags: list[Diagnostic] = []
    for i, kind in mega.dropped_steps:
        step = source.steps[i]
        if kind != "reduce" or step[0] != "reduce":
            continue
        where = f"folded reduce (source step {i})"
        dsts = np.asarray(step[1])
        slots.append(dsts)
        if step[3] is not None or step[2][0] != "r" or not zero[step[2][1]].all():
            diags.append(Diagnostic(
                "VEC051", where,
                "folds a reduce of registers not all defined by setzero (or "
                "with a base=) — its sum depends on the inputs, not a constant",
            ))
            continue
        want = np.sum(np.zeros((dsts.size, mega.lanes)), axis=1)
        if not np.array_equal(mega.scalars[dsts].view(np.int64), want.view(np.int64)):
            diags.append(Diagnostic(
                "VEC051", where,
                "initial scalar file holds other values than the reduce's "
                "sum of zeros, +0.0",
            ))
    return np.concatenate(slots), diags


def _by_key(table: np.ndarray) -> np.ndarray:
    """Columns of ``table`` sorted by their first row."""
    return table[:, np.argsort(table[0], kind="stable")]


def _use_before_def(mega, folded: np.ndarray) -> list[Diagnostic]:
    """VEC050: reads no earlier segment of the fused program defines.

    The ``folded`` constants' slots are defined from the start.
    """
    regs = np.zeros(max(mega.nregs, 1), dtype=bool)
    scalars = np.zeros(max(mega.nscalars, 1), dtype=bool)
    scalars[folded] = True
    diags: list[Diagnostic] = []

    def check(where: str, what: str, ids, defined, label: str) -> None:
        ids = np.asarray(ids).ravel()
        bad = ids[~defined[ids]]
        if bad.size:
            diags.append(Diagnostic(
                "VEC050", where,
                f"{what} reads {label}{int(bad[0])} (+{bad.size - 1} more) "
                f"before any segment defines it — fusion elided its "
                f"definition or moved the reader above it",
            ))

    plain_index = 0
    for tag, seg in mega.segments:
        if tag == "region":
            where = f"region (source step {seg.first_step})"
            for label, src in (("operand a", seg.a_src), ("operand b", seg.b_src)):
                if src[0] == "reg":
                    check(where, label, src[1] // seg.shape[2], regs, "register r")
            if seg.base[0] == "reg":
                check(where, "base accumulator", seg.base[1], regs, "register r")
            if seg.red_base is not None:
                check(where, "epilogue reduce base", seg.red_base[1], scalars, "scalar s")
            if seg.scalars_out:
                scalars[seg.red_dsts] = True
            for _, _, (kind, idx) in seg.stores:
                if kind == "s":
                    check(where, "epilogue store", idx, scalars, "scalar s")
            if seg.materialize:
                regs[np.asarray(seg.dsts)] = True
            continue
        for step in seg:
            where = f"plain step {plain_index}"
            lay = STEP_LAYOUT[step[0]]
            for ids in reg_uses(step, lay):
                check(where, step[0], ids, regs, "register r")
            for ids in scalar_uses(step, lay):
                check(where, step[0], ids, scalars, "scalar s")
            for ids in reg_defs(step, lay):
                regs[ids] = True
            for ids in scalar_defs(step, lay):
                scalars[ids] = True
            plain_index += 1
    return diags


def _runs(idx: np.ndarray) -> str:
    """Compress sorted indices into a 'a-b, c, d-e' range listing."""
    parts = []
    start = prev = int(idx[0])
    for v in idx[1:]:
        v = int(v)
        if v == prev + 1:
            prev = v
            continue
        parts.append(f"{start}-{prev}" if prev > start else f"{start}")
        start = prev = v
    parts.append(f"{start}-{prev}" if prev > start else f"{start}")
    return ", ".join(parts)
