"""Megakernel tier: fuse batched trace steps into whole-matrix passes.

:func:`compile_megakernel` is the second compiler tier above
:func:`~repro.simd.replay.compile_trace`.  The level scheduler already
exposes the formats' FMA chains: the compiled program issues a handful
of big batched loads and then one ``fmadd``/``fmadd_mask`` step per
level, each consuming its slice of the loads and chaining into the
accumulators of the level below, and then the reduces and stores that
consume each row's final accumulator.  Plain replay still pays one NumPy
dispatch per step — and every ``fmadd`` dispatch is itself three
fancy-index reads, a multiply, an add, and a fancy-index write —
``O(max_row_length)`` dispatches per matrix.

This compiler mines the step list for maximal chains of those steps and
collapses every chain into one :class:`FusedRegion`: a precomputed
gather *plan* — the inspector step, built once per structure — plus one
fused multiply-accumulate sweep.
A chain's level ``l+1`` reads as addends a *subset* of level ``l``'s
destinations, so rows may drop out as they finish (the CSR long tail,
irregular SELL slices, β(r,c) blocks), and a level may be an
``fmadd_mask`` (remainder lanes, β blocks built from masks).  One
layout covers every chain, SELL-C-σ's argument of one chunked layout
with a width per chunk, taken down to the lane: the plan stores one
entry per *active* (level, row, lane) triple — every lane of an
``fmadd``, the set bits of an ``fmadd_mask`` — and nothing for a
masked-off lane, β(r,c)'s "no zero padding" in the replay.  Each
(row, lane) pair, a *lane-row*, folds its active entries in level
order; lane-rows sort by their count, deepest first, so fold step
``k``'s lane-rows are a prefix of length ``w_k`` and it folds as
``np.add(P[o:o+w], acc[:w], out=acc[:w])`` on a 1-D accumulator, with
no ``where=``.  A masked chain pads each step to a multiple of
:data:`FOLD_BLOCK` entries whose products are ``-0.0``; its accumulator
starts from the base at its lane-rows and is scattered once into the
``(rows, lanes)`` block that holds the base.  An unmasked chain's
lane-rows are already in order (its rows sort by depth) and its steps
are whole ``(w, lanes)`` blocks, so it folds in place on the block.  A
lockstep chain (SELL's strips) is the case of equal widths, no masks
and rows in source order.  A plan that covers one contiguous buffer run
becomes a zero-cost slab view; a lockstep chain whose loads are
contiguous only row by row (SELL's slice-major values) sweeps in
``(width, levels, lanes)`` order instead.

Operands that are slices of vector loads or gathers of a never-written
buffer are absorbed into the plan — each lane's cell read through
:func:`~repro.simd.trace_ir.lane_addresses` — and the loads drop out of
the program when nothing else reads them.  A masked load's dead lane
that the fold adds (an ``fmadd`` over masked loads) reads a safe index
and is then set to 0.0 by a fill list built at compile time — exactly
the value the plain step leaves there; a dead lane the fold skips is
not in the plan at all.  A setzero feeding the first level folds from
literal zero.

A region also carries a **row epilogue**: the ``reduce`` (with or
without ``base=``), ``sstore``, ``vstore`` and ``vstore_mask`` steps
that consume its exit accumulators, wherever they sit in the program.
They run as one batched ``np.add.reduce`` over the sweep's
``(rows, lanes)`` accumulator block, one ``base + sum`` join, and one
store per buffer and kind.  So a chain of one level fuses too when its
epilogue absorbs something — Algorithm 1's body ``setzero → fmadd →
reduce`` and its masked remainder ``setzero → fmadd_mask →
reduce(base=total) → sstore`` are two regions, the second joining the
first's totals; a chain with neither :data:`MIN_REGION_LEVELS` levels
nor an epilogue stays plain.  Each row's final accumulator is written
to the register file only if a step outside the region reads it.

A row with no full vector never touches a register: its ``reduce`` sums
a block of ``setzero`` registers, which is the constant +0.0.  Such a
reduce (with no ``base=``) folds at compile time when no plain step
reads its scalars: the program's initial scalar file
(:attr:`MegakernelTrace.scalars`) holds the constant in its slots, the
reduce and then its ``setzero`` drop out, and the readers — a
remainder's ``base + sum`` join, kept as it is since ``+0.0 + (-0.0)``
is ``+0.0``, or an ``sstore`` of the constant, which joins a region's
epilogue — read it from there.

The fused program's order comes from the dependencies alone: every
step's dataflow (the defining step of each register and scalar it
reads) and, on the buffers the program writes, the source order of the
accesses to each cell.  A region is one node — the union of its steps'
dependencies — placed at its chain's last level or as soon after as its
inputs allow; the other steps keep their source order.  A region a
dependency cycle runs through (a step that both reads its output and
feeds it) stays plain.

Bit-identity with plain replay is preserved by construction:

* each product is formed element-wise on exactly the operands of the
  recorded step (same values whether read from the register file or
  straight from the buffer the absorbed load would have read);
* each row folds strictly left-to-right in recorded level order, seeded
  with its recorded base accumulator (never a ``np.sum``-style
  reduction, whose pairwise summation would reorder the additions), as
  ``a*b + c`` with the operands in the plain step's order — a tail
  seeded from ``setzero`` still adds ``a*b + 0.0``;
* ``fmadd_mask`` leaves a masked-off lane's addend untouched
  (``-0.0`` included), so dropping that lane from the plan drops a
  no-op: every lane still adds its active products in recorded level
  order, and reordering lane-rows only changes the memory layout;
* a padding entry adds ``-0.0``, which leaves any value bit for bit
  (``+0.0``, and a NaN's sign and payload, included), and only to a
  lane-row whose fold is done or to scratch; padded, no step has a
  scalar tail past NumPy's last 8-double vector (where an add meeting
  two NaNs keeps the second operand's, not the first's), and neither
  do plain replay's ``(rows, 8)`` blocks;
* the epilogue sums every row's lanes with ``np.add.reduce(axis=1)`` on
  the C-contiguous ``(rows, lanes)`` block the fold scattered into,
  exactly as the plain ``reduce`` step sums its own fancy-read block,
  and joins a remainder as ``base + sum``, the plain step's operand
  order;
* counters are the recorded block, returned as a copy.

The one exception is a NaN's sign where two NaNs meet in an add whose
batch is not laid out as plain replay's: the epilogue's ``base + sum``
join runs over a whole matrix's rows where plain replay joins a step's,
and a 4-lane ISA's ``(rows, 4)`` blocks may end in a scalar tail.
NumPy keeps one NaN by the element's position in its batch, so the
sign may differ there; where ``y`` is NaN agrees.

Fusion is *safe* because the trace is SSA (every op defines a fresh
register): an intermediate accumulator or an absorbed load's destination
is elided only when its use count is exactly one, which one
``np.bincount`` over the step operands decides exactly.  A trace with
nothing to fuse compiles to a program with zero regions — one plain
``steps`` segment — so every trace has exactly one compiled program,
and the trace-cache fill (:func:`repro.core.traced.acquire_trace`)
always ends here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .counters import KernelCounters
from .replay import KernelTrace, bind_buffers, execute_step
from .trace import BufferSlot
from .trace_ir import (
    STEP_LAYOUT,
    WRITE_KINDS,
    cells_of,
    lane_addresses,
    reg_defs,
    reg_uses,
    scalar_defs,
    scalar_uses,
)

#: Chains shorter than this stay plain unless a row epilogue carries them
#: — a one-level "region" alone would just re-dispatch the same
#: multiply-add with extra bookkeeping.
MIN_REGION_LEVELS = 2

#: Step kinds that can be a level of a fused chain.
_LINK_KINDS = ("fmadd", "fmadd_mask")

#: Step kinds a region's row epilogue can absorb: ``reduce`` and the stores.
_EPILOGUE_KINDS = WRITE_KINDS | {"reduce"}

_NO_IDS = np.zeros(0, dtype=np.int64)

#: A masked region pads each fold step to a multiple of this many
#: entries.  NumPy's ``add`` runs whole SIMD vectors (8 doubles on
#: AVX-512, 4 on AVX2), then a scalar tail that keeps the *second*
#: operand's NaN where two NaNs meet (the vectors keep the first's);
#: plain replay's ``(rows, 8)`` blocks have no tail, and neither has a
#: padded step.
FOLD_BLOCK = 8


@dataclass
class FusedRegion:
    """One fused FMA chain: a gather plan, one multiply-accumulate sweep
    and the row epilogue that consumes its exit accumulators.

    The plan holds one entry per *active* (level, row, lane) triple — a
    lane of an ``fmadd`` level, or a lane whose ``fmadd_mask`` bit is
    set — and nothing for a masked-off lane.  Each (row, lane) pair, a
    *lane-row*, folds its active entries in level order; ``fold[k]`` is
    the number of lane-rows with more than ``k`` of them, and since
    lane-rows sort by that count, deepest first, fold step ``k`` is the
    prefix ``acc[:fold[k]]`` of a 1-D accumulator.  In a masked region
    ``fold[k]`` is that count padded to a multiple of
    :data:`FOLD_BLOCK`; ``pad`` lists the padding positions of the plan,
    whose products are set to ``-0.0`` (``None``: no padding), and
    ``lane_rows`` maps accumulator positions to lane-rows
    (``p * lanes + j``).  An unmasked region has neither: position
    ``i`` is lane-row ``i`` and its fold runs in place on the raveled
    block.

    ``a_src``/``b_src`` name where the entries' multiplicands come from:

    * ``("buf", b, plan, dead)`` — ``bufs[b][plan]``, the precomputed
      index plan of absorbed loads; ``dead`` (or ``None``) lists the
      entries whose load lane is dead but whose fold lane is active (an
      ``fmadd`` over a masked load), set to the 0.0 the plain load
      leaves there;
    * ``("slab", b, start)`` — the plan turned out to cover one
      contiguous buffer run, so the operand is a zero-cost view of
      ``bufs[b]`` instead of a gather;
    * ``("reg", flat)`` — the register file, read at
      ``regs.ravel()[id * lanes + lane]``.

    ``order`` is the layout the sweep runs in: ``"ragged"`` plans are
    1-D, fold step by fold step; ``"slab"`` plans (equal widths, every
    lane active) are ``(width, levels, lanes)`` so a row-major slab view
    is C-contiguous, folded level by level on the ``(width, lanes)``
    block.  The element-wise products and each lane's fold order are the
    same in both — only the memory layout differs.

    ``base`` is the first level's accumulator: ``("reg", ids)``, a baked
    ``("const", block)``, or ``("zero",)`` when the feeding ``setzero``
    was absorbed.  ``dsts`` are the register ids each row's final
    accumulator is written to (the id its last level recorded); row
    ``p`` of the sweep's ``(width, lanes)`` accumulator block is
    ``dsts[p]``.  They are written to the register file only when
    ``materialize`` is set: some step outside the region reads them.
    ``widths`` are the live rows per level (non-increasing; rows sort by
    depth, deepest first) and ``chain`` every level's destination ids in
    that row order.

    The **row epilogue** is the ``reduce``, ``sstore``, ``vstore`` and
    ``vstore_mask`` steps that consume the exits, run as one batched
    reduce and one batched store per buffer and kind:

    * ``red_rows`` — the accumulator rows the absorbed reduces sum,
      sorted (``None``: every row, in order); ``red_dsts`` the
      scalar slots they define; ``red_base`` ``(at, slots)`` joins sum
      positions ``at`` (``None``: all) as ``svals[slots] + sum``, the
      plain step's operand order.  ``scalars_out`` writes the sums to
      the scalar file for readers outside the region;
    * ``stores`` — ``(b, cells, src)`` with ``src`` one of
      ``("v", flat)`` (accumulator lanes, ``flat`` into the raveled
      block or ``None`` for all of it in order), ``("p", pos)`` (the
      region's own sums, ``None`` for all in order) or ``("s", slots)``
      (scalar-file slots: those other regions' reduces or folded
      constants define).

    ``source_steps`` keeps the chain steps the region replaced (the
    levels in order, then the epilogue steps in source order) so the
    static linter can re-derive and audit the fusion; ``first_step`` is
    the chain's index in the source program.
    """

    a_src: tuple = field(repr=False)
    b_src: tuple = field(repr=False)
    base: tuple = field(repr=False)
    dsts: np.ndarray = field(repr=False)
    widths: tuple
    chain: np.ndarray = field(repr=False)
    fold: tuple = field(repr=False)
    lane_rows: np.ndarray | None = field(default=None, repr=False)
    pad: np.ndarray | None = field(default=None, repr=False)
    shape: tuple = (0, 0, 0)  #: logical (levels, width, lanes)
    order: str = "ragged"
    source_steps: tuple = field(default=(), repr=False)
    first_step: int = 0
    materialize: bool = True
    red_rows: np.ndarray | None = field(default=None, repr=False)
    red_dsts: np.ndarray = field(default_factory=lambda: _NO_IDS, repr=False)
    red_base: tuple | None = field(default=None, repr=False)
    scalars_out: bool = False
    stores: tuple = field(default=(), repr=False)

    @property
    def levels(self) -> int:
        return int(self.shape[0])

    @property
    def width(self) -> int:
        return int(self.shape[1])

    def level_ids(self) -> list[np.ndarray]:
        """Destination ids of every fused level, in plan order."""
        return np.split(self.chain, np.cumsum(self.widths)[:-1])

    def interior_ids(self) -> np.ndarray:
        """Register ids consumed inside the region, never materialized.

        The intermediate accumulators always; the final accumulators too
        when only the region's epilogue reads them.  Nothing may read an
        interior id (the VEC050 contract).
        """
        if not self.materialize:
            return self.chain
        return np.setdiff1d(self.chain, np.asarray(self.dsts))

    def _operand(self, src, bufs, regs):
        kind = src[0]
        if kind == "buf":
            _, b, plan, dead = src
            vals = bufs[b][plan]
            if dead is not None:
                vals.reshape(-1)[dead] = 0.0
            return vals
        if kind == "slab":
            _, b, start = src
            block = bufs[b][start : start + sum(self.fold)]
            if self.order == "slab":
                return block.reshape(self.width, self.levels, -1)
            return block
        return regs.reshape(-1)[src[1]]

    def execute(self, bufs, regs, svals) -> None:
        """One gather-plan read per operand, one fused FMA sweep, the epilogue.

        All active lanes' products are formed in one element-wise
        multiply, then folded into the base accumulators fold step by
        fold step — each lane's additions, in the same order, as
        step-by-step replay, which leaves a masked-off lane untouched —
        so the result is bit-identical.  Intermediate accumulators never
        exist: only each row's final one is materialized, and only when
        a step outside the region reads it.
        """
        a = self._operand(self.a_src, bufs, regs)
        b = self._operand(self.b_src, bufs, regs)
        # Fancy-index reads copy, so they make a safe multiply target;
        # slab views alias the buffer and must never be written.
        if self.a_src[0] != "slab":
            prod = a
        elif self.b_src[0] != "slab":
            prod = b
        else:
            prod = np.empty(a.shape, dtype=np.float64)
        np.multiply(a, b, out=prod)
        if self.pad is not None:
            prod[self.pad] = -0.0
        kind = self.base[0]
        if kind == "zero":
            acc = np.zeros(self.shape[1:], dtype=np.float64)
        elif kind == "reg":
            acc = regs[self.base[1]]  # fancy read: already a fresh copy
        else:
            acc = self.base[1].copy()
        if self.order == "slab":
            for t in range(prod.shape[1]):
                np.add(prod[:, t, :], acc, out=acc)
        else:
            # The fold runs on the lane-rows' 1-D accumulator: a view of
            # an unmasked block, else a gather (padded past the last
            # lane-row to the widest step) scattered back once.
            flat = acc.reshape(-1)
            if self.lane_rows is None:
                live = flat
            else:
                n = self.lane_rows.size
                live = np.zeros(self.fold[0] if self.fold else 0)
                live[:n] = flat[self.lane_rows]
            o = 0
            for w in self.fold:
                np.add(prod[o : o + w], live[:w], out=live[:w])
                o += w
            if self.lane_rows is not None:
                flat[self.lane_rows] = live[:n]
        if self.materialize:
            regs[self.dsts] = acc
        self._epilogue(acc, bufs, svals)

    def _epilogue(self, acc, bufs, svals) -> None:
        """The absorbed reduces as one row sum, then one store per plan.

        ``acc`` and ``acc[red_rows]`` are C-contiguous ``(rows, lanes)``
        blocks, so ``np.add.reduce(axis=1)`` sums each row's lanes exactly
        as the plain ``reduce`` step's ``np.sum`` over its own register
        block does (a strided block would be summed in another order).
        """
        sums = None
        if self.red_dsts.size:
            block = acc if self.red_rows is None else acc[self.red_rows]
            sums = np.add.reduce(block, axis=1)
            if self.red_base is not None:
                at, slots = self.red_base
                if at is None:
                    sums = svals[slots] + sums
                else:
                    sums[at] = svals[slots] + sums[at]
            if self.scalars_out:
                svals[self.red_dsts] = sums
        for b, cells, (kind, idx) in self.stores:
            if kind == "s":
                vals = svals[idx]
            else:
                vals = sums if kind == "p" else acc.ravel()
                if idx is not None:
                    vals = vals[idx]
            bufs[b][cells] = vals


@dataclass
class MegakernelTrace:
    """A megakernel program: plain segments interleaved with fused regions.

    ``segments`` is an ordered list of ``("steps", (step, ...))`` and
    ``("region", FusedRegion)`` entries; together with ``dropped_steps``
    (the loads whole regions absorbed into their index plans) they cover
    the source trace's step list exactly; a trace with nothing to fuse
    is one ``steps`` segment and no regions.  Replays like a
    :class:`~repro.simd.replay.KernelTrace` (same ``replay(buffers)``
    contract, same recorded counters); it is the one program the trace
    cache holds per structure.
    """

    lanes: int
    nregs: int
    nscalars: int
    segments: list = field(repr=False)
    buffers: list[BufferSlot] = field(repr=False)
    counters: KernelCounters = field(repr=False)
    #: The scalar file a replay starts from: zeros, except the slots of
    #: folded reduces, which hold their constant sums.
    scalars: np.ndarray = field(repr=False)
    nops: int = 0
    source_nsteps: int = 0  #: batched steps of the plain-replay program
    #: ``(index, kind)`` of source loads and setzeros absorbed into
    #: region plans (their index arrays live on in the plans only), and
    #: of reduces folded into constants of :attr:`scalars`.
    dropped_steps: tuple = field(default=(), repr=False)
    #: One past the highest register id the fused program still touches
    #: (0 when every register was elided; -1 means not computed).  The
    #: replay register file shrinks from ``nregs`` rows to this — a
    #: large saving: the absorbed loads are the wide ids, and a row
    #: with no full vector keeps none once its reduce of ``setzero``
    #: registers folds into a constant.
    nregs_used: int = -1

    @property
    def regions(self) -> tuple[FusedRegion, ...]:
        return tuple(seg for tag, seg in self.segments if tag == "region")

    @property
    def fused_steps(self) -> int:
        """Source-program steps absorbed into fused regions."""
        return sum(len(r.source_steps) for r in self.regions) + len(
            self.dropped_steps
        )

    @property
    def plain_steps(self) -> int:
        """Source-program steps that still replay one dispatch each."""
        return sum(len(seg) for tag, seg in self.segments if tag == "steps")

    @property
    def nsteps(self) -> int:
        """NumPy dispatch groups per replay (plain steps + one per region)."""
        return self.plain_steps + len(self.regions)

    @property
    def named_buffers(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.buffers if s.is_named)

    def replay(self, buffers: dict[str, np.ndarray]) -> KernelCounters:
        """Execute the megakernel program against fresh named buffers."""
        bufs = bind_buffers(self.buffers, buffers)
        nrows = self.nregs if self.nregs_used < 0 else self.nregs_used
        regs = np.zeros((max(nrows, 1), self.lanes), dtype=np.float64)
        svals = self.scalars.copy()
        lane_idx = np.arange(self.lanes, dtype=np.int64)
        for tag, seg in self.segments:
            if tag == "region":
                seg.execute(bufs, regs, svals)
            else:
                for step in seg:
                    execute_step(step, bufs, regs, svals, lane_idx)
        return self.counters.copy()


# ---------------------------------------------------------------------------
# fusion mining
# ---------------------------------------------------------------------------


def _use_counts(reads, nregs: int) -> np.ndarray:
    """Total read occurrences per register id across the whole program."""
    reads = [ids for regs, _ in reads for ids in regs]
    if not reads:
        return np.zeros(max(nregs, 1), dtype=np.int64)
    return np.bincount(
        np.concatenate(reads).astype(np.int64), minlength=max(nregs, 1)
    )


def _single_use(uses: np.ndarray, ids) -> bool:
    return bool(np.all(uses[np.asarray(ids)] == 1))


def _is_chain_link(step) -> bool:
    """An ``fmadd``/``fmadd_mask`` step whose multiplicands are registers."""
    return (
        step[0] in _LINK_KINDS
        and step[2][0] == "r"
        and step[3][0] == "r"
        and len(step[2][1]) == len(step[1])
        and len(step[3][1]) == len(step[1])
    )


class _DefMap:
    """Where each register id was defined, for load absorption.

    ``step_of[id]`` is the defining step index for ids written by a
    vector load or a ``setzero`` (else ``-1``), and ``zero`` marks the
    setzero ones; ``buf_of[id]`` is a load's buffer (else ``-1``) and
    ``idx_of[id]`` the cell each of its lanes reads, as
    :func:`~repro.simd.trace_ir.lane_addresses` gives it (a safe index
    on a dead lane, which ``live_of`` marks), so a chain's operand ids
    turn into a buffer plan in one vectorized lookup.
    """

    def __init__(self, steps, nregs: int, lanes: int):
        n = max(nregs, 1)
        self.step_of = np.full(n, -1, dtype=np.int64)
        self.zero = np.zeros(n, dtype=bool)
        self.buf_of = np.full(n, -1, dtype=np.int64)
        self.idx_of: np.ndarray | None = None
        self.live_of: np.ndarray | None = None
        lane_idx = np.arange(lanes, dtype=np.int64)
        for i, step in enumerate(steps):
            if step[0] == "setzero":
                self.step_of[step[1]] = i
                self.zero[step[1]] = True
                continue
            lay = STEP_LAYOUT[step[0]]
            if not lay.rdef or lay.buf is None:
                continue
            dsts = step[lay.rdef[0]]
            addr, live = lane_addresses(step, lay, lane_idx)
            if self.idx_of is None:
                self.idx_of = np.empty((n, lanes), dtype=np.int64)
            self.step_of[dsts] = i
            self.buf_of[dsts] = step[lay.buf]
            self.idx_of[dsts] = addr
            if live is not None:
                if self.live_of is None:
                    self.live_of = np.ones((n, lanes), dtype=bool)
                self.live_of[dsts] = live

    def absorb(self, ids: np.ndarray, written_bufs):
        """The cells a chain's operand ids read, for an index plan.

        Returns ``(b, addr, live, load_steps)`` when every id comes from
        vector loads of one never-written buffer ``b`` — ``addr`` and
        ``live`` (``None``: every lane live) are ``(len(ids), lanes)`` —
        else ``None``: the caller falls back to reading the register
        file.
        """
        bufs = self.buf_of[ids]
        b = int(bufs[0])
        if b < 0 or b in written_bufs or not np.all(bufs == b):
            return None
        live = None if self.live_of is None else self.live_of[ids]
        return b, self.idx_of[ids], live, self._steps(ids)

    def _steps(self, flat) -> set:
        """The distinct defining steps of ``flat`` (few, small indices)."""
        return set(np.flatnonzero(np.bincount(self.step_of[flat])).tolist())

    def zero_defined(self, ids) -> tuple[set, np.ndarray] | None:
        """Setzero steps defining every id, or ``None`` if any id isn't."""
        flat = np.asarray(ids).ravel()
        if not np.all(self.zero[flat]):
            return None
        return self._steps(flat), flat


def _slab_start(plan: np.ndarray):
    """Start offset when a plan covers one contiguous buffer run, else None."""
    flat = plan.ravel()
    if not flat.size:
        return None
    start = int(flat[0])
    if np.array_equal(flat, np.arange(start, start + flat.size)):
        return start
    return None


def _pick_layout(srcs, widths, full):
    """Upgrade contiguous index plans to slab views; pick the sweep order.

    A ``("buf", ...)`` plan with no dead-lane fill whose indices are one
    contiguous run in plan order becomes a zero-cost view of the buffer,
    and the region sweeps ``"ragged"``.  SELL-style value arrays are
    slice-major, so a lockstep chain's strided loads are contiguous only
    row by row, in ``(width, levels, lanes)`` order; when that is the
    only slab available and the levels have equal widths with every
    lane active (``full``), the whole region sweeps in ``"slab"`` order
    and the other operand's plan, dead mask or register plan is
    transposed to match (same element-wise products, same fold order —
    only the memory layout changes).  Dead masks become the index lists
    :meth:`FusedRegion._operand` fills.
    """

    def starts(arrange):
        return [
            _slab_start(arrange(src[2])) if src[0] == "buf" and src[3] is None else None
            for src in srcs
        ]

    found, order = starts(np.asarray), "ragged"
    if found == [None, None] and full and len(set(widths)) == 1:
        levels, width = len(widths), widths[0]

        def rowwise(a):
            return np.ascontiguousarray(a.reshape(levels, width, -1).swapaxes(0, 1))

        found = starts(rowwise)
        if found != [None, None]:
            order = "slab"
            srcs = [
                ("reg", rowwise(src[1])) if src[0] == "reg"
                else ("buf", src[1], rowwise(src[2]), src[3] if src[3] is None else rowwise(src[3]))
                for src in srcs
            ]
    return [
        ("slab", src[1], start) if start is not None
        else src if src[0] == "reg" or src[3] is None
        else ("buf", src[1], src[2], np.flatnonzero(src[3]))
        for src, start in zip(srcs, found)
    ], order


def _addend_readers(steps, nregs: int) -> np.ndarray:
    """Per register id, the first chain-link step reading it as addend."""
    reader = np.full(max(nregs, 1), -1, dtype=np.int64)
    for j in range(len(steps) - 1, -1, -1):
        step = steps[j]
        if _is_chain_link(step) and step[4][0] == "r":
            reader[step[4][1]] = j
    return reader


def _mine_chain(steps, i, uses, readers, slot):
    """Longest chain of link steps from step ``i``, and each level's rows.

    Level ``l+1`` is the first link step reading any of level ``l``'s
    destinations as addends; it extends the chain when all its addends
    are level-``l`` destinations read nowhere else.  ``rows[l][j]`` is
    the level-0 row the ``j``-th destination of level ``l`` continues.
    """
    chain = [i]
    rows = [np.arange(len(steps[i][1]), dtype=np.int64)]
    while True:
        dsts = steps[chain[-1]][1]
        nxt = readers[dsts]
        nxt = nxt[nxt >= 0]
        if not nxt.size:
            break
        j = int(nxt.min())
        addends = steps[j][4][1]
        slot[dsts] = np.arange(len(dsts))
        pos = slot[addends]
        slot[dsts] = -1
        if np.any(pos < 0) or not _single_use(uses, addends):
            break
        chain.append(j)
        rows.append(rows[-1][pos])
    return chain, rows


def _row_layout(links, rows):
    """Depth-sorted row layout of a chain: ``(perms, exits)``.

    Rows sort deepest first (stably), so level ``l``'s live rows are the
    prefix of length ``len(rows[l])``; ``perms[l]`` lists level ``l``'s
    step entries in that prefix order.  ``exits[p]`` is the register id
    row ``p``'s last level defines.
    """
    w0 = len(rows[0])
    depth = np.zeros(w0, dtype=np.int64)
    for level, r in enumerate(rows):
        depth[r] = level + 1
    rank = np.empty(w0, dtype=np.int64)
    rank[np.argsort(-depth, kind="stable")] = np.arange(w0)
    perms = []
    exits = np.empty(w0, dtype=np.int64)
    for level, (step, r) in enumerate(zip(links, rows)):
        perm = np.empty(len(r), dtype=np.int64)
        perm[rank[r]] = np.arange(len(r))
        perms.append(perm)
        fin = depth[r] == level + 1
        exits[rank[r[fin]]] = step[1][fin]
    return perms, exits


def _lane_plan(links, perms, lanes):
    """Lane-compacted fold layout of a chain: ``(take, fold, lane_rows, pad)``.

    An entry is an active (level, row, lane) triple: a lane of an
    ``fmadd`` level, or one whose ``fmadd_mask`` bit is set.  Each
    lane-row (row ``p``, lane ``j``: ``p * lanes + j``, rows in
    :func:`_row_layout` order) folds its active entries in level order,
    so its ``k``-th fold step is its ``k``-th active entry.  Lane-rows
    sort by active count, deepest first (stably), so fold step ``k``'s
    lane-rows are a prefix; ``lane_rows`` lists those with any entry.
    Each step is padded to a multiple of :data:`FOLD_BLOCK` entries,
    ``fold[k]`` wide: a pad entry repeats the step's last real entry and
    its product is set to ``-0.0`` at the plan positions ``pad`` (or
    ``None``).  ``take`` is each plan entry's flat index into the
    chain's level-major ``(sum(widths), lanes)`` grid, fold step by fold
    step.  An unmasked chain's layout is the identity (its rows sort by
    depth) and its steps are whole ``(w, lanes)`` blocks, as plain
    replay's: ``(None, fold, None, None)``.
    """
    widths = [len(perm) for perm in perms]
    if all(s[0] == "fmadd" for s in links):
        return None, tuple(w * lanes for w in widths), None, None
    active = np.concatenate([
        np.asarray(s[5])[perm] if s[0] == "fmadd_mask"
        else np.ones((len(perm), lanes), dtype=bool)
        for s, perm in zip(links, perms)
    ])
    ent = np.flatnonzero(active)
    row = ent // lanes
    level_start = np.repeat(np.cumsum([0, *widths[:-1]]), widths)
    lr = (row - level_start[row]) * lanes + ent % lanes
    count = np.bincount(lr, minlength=widths[0] * lanes)
    order = np.argsort(-count, kind="stable")[: np.count_nonzero(count)]
    pos = np.empty(count.size, dtype=np.int64)
    pos[order] = np.arange(order.size)
    real = np.bincount(count[order] - 1)[::-1].cumsum()[::-1]
    # Entries are level-major, so a stable sort by lane-row keeps each
    # lane-row's entries in level order: its rank among them.
    by_lr = np.argsort(lr, kind="stable")
    rank = np.empty(ent.size, dtype=np.int64)
    rank[by_lr] = np.arange(ent.size) - (np.cumsum(count) - count)[lr[by_lr]]
    take = np.empty(ent.size, dtype=np.int64)
    take[np.cumsum([0, *real[:-1]])[rank] + pos[lr]] = ent
    fold = -(-real // FOLD_BLOCK) * FOLD_BLOCK
    step = np.repeat(np.arange(real.size), fold)
    j = np.arange(fold.sum()) - np.repeat(np.cumsum([0, *fold[:-1]]), fold)
    take = take[np.cumsum([0, *real[:-1]])[step] + np.minimum(j, real[step] - 1)]
    pad = np.flatnonzero(j >= real[step])
    return take, tuple(fold.tolist()), order, pad if pad.size else None


def _assign_epilogues(steps, exits_of, linked, nregs, const, buf_len, lane_idx):
    """Per chain, the indices of the steps its row epilogue absorbs.

    A ``reduce``, ``vstore`` or ``vstore_mask`` joins the epilogue of
    the chain whose exits are all it reads; a reduce's ``base=`` must
    come from outside that epilogue, whose sums form in one batch.  An
    ``sstore`` joins when regions' reduces or folded constants (the
    scalar slots ``const`` marks) define all of its values, in the
    region furthest down the chain of ``base=`` joins (CSR: the masked
    remainder, which adds the body's total); one that stores constants
    only joins the furthest region with an epilogue.  A store that meets
    a cell the same epilogue already stores stays plain: one batched
    store has no order.
    """
    owner = np.full(max(nregs, 1), -1, dtype=np.int64)
    for c, exits in enumerate(exits_of):
        owner[exits] = c
    sowner = np.full(len(const), -1, dtype=np.int64)
    joins: set[tuple[int, int]] = set()  # (base region, joining region)
    epilogues: list[list[int]] = [[] for _ in exits_of]
    consumers = []
    hosts: set[int] = set()  # chains whose exits a consumer reads
    for k, step in enumerate(steps):
        kind = step[0]
        if linked[k] or kind not in _EPILOGUE_KINDS:
            continue
        if kind == "sstore":
            if step[3][0] == "s":
                consumers.append(k)
            continue
        src = step[2] if kind == "reduce" else step[3]
        if src[0] != "r":
            continue
        own = owner[src[1]]
        c = int(own[0])
        if c < 0 or np.any(own != c):
            continue
        if kind == "reduce":
            base = step[3]
            if base is not None:
                if base[0] != "s":
                    continue
                bown = sowner[base[1]]
                if np.any(bown == c):
                    continue
                joins.update((o, c) for o in np.unique(bown[bown >= 0]).tolist())
            sowner[step[1]] = c
        hosts.add(c)
        consumers.append(k)
    depth = [0] * len(exits_of)
    for _ in exits_of:
        for o, c in joins:
            depth[c] = max(depth[c], depth[o] + 1)
    claimed: dict[tuple[int, int], np.ndarray] = {}
    for k in consumers:
        step = steps[k]
        if step[0] == "reduce":
            epilogues[int(sowner[step[1][0]])].append(k)
            continue
        if step[0] == "sstore":
            slots = np.asarray(step[3][1])
            own = np.unique(sowner[slots[~const[slots]]]).tolist() or sorted(hosts)
            if not own or own[0] < 0:
                continue
            c = max(own, key=lambda o: (depth[o], o))
            cells = step[2]
        else:
            c = int(owner[step[3][1][0]])
            cells = cells_of(step, STEP_LAYOUT[step[0]], lane_idx)
        mask = claimed.get((c, step[1]))
        if mask is None:
            mask = claimed[c, step[1]] = np.zeros(buf_len[step[1]], dtype=bool)
        if mask[cells].any():
            continue
        mask[cells] = True
        epilogues[c].append(k)
    return [sorted(e) for e in epilogues]


def _step_deps(steps, reads, nregs, nscalars, buf_len, written_bufs, lane_idx):
    """``(before, after)`` step-index pairs: what must run before what.

    Dataflow: the step defining each register and scalar a step reads
    (the trace is SSA, so each id has one).  Memory: on a buffer the
    program writes, the previous step touching any of the same cells, so
    every access to such a cell keeps its source order.  Buffers nothing
    writes impose no order.
    """
    n = len(steps)
    reg_def = np.full(max(nregs, 1), n, dtype=np.int64)
    scal_def = np.full(max(nscalars, 1), n, dtype=np.int64)
    last = {b: np.full(buf_len[b], n, dtype=np.int64) for b in written_bufs}
    before, after = [], []
    for k, step in enumerate(steps):
        lay = STEP_LAYOUT[step[0]]
        for ids in reg_defs(step, lay):
            reg_def[ids] = k
        for ids in scalar_defs(step, lay):
            scal_def[ids] = k
        if lay.buf is not None and step[lay.buf] in last:
            b = step[lay.buf]
            cells = cells_of(step, lay, lane_idx)
            before.append(last[b][cells])
            after.append((k, len(cells)))
            last[b][cells] = k
    for which, defs in ((0, reg_def), (1, scal_def)):
        for k, step_reads in enumerate(reads):
            for ids in step_reads[which]:
                before.append(defs[ids])
                after.append((k, len(ids)))
    # One flag per (before, after) pair; ``n`` stands for "no step".
    seen = np.zeros((n + 1) * (n + 1), dtype=bool)
    if before:
        ks, lens = zip(*after)
        seen[np.concatenate(before) * (n + 1) + np.repeat(ks, lens)] = True
    before, after = np.divmod(np.flatnonzero(seen), n + 1)
    keep = (before < n) & (before != after)
    return before[keep], after[keep]


def _schedule(deps, node_of, keys) -> tuple[list, set]:
    """Replay order of the program's nodes: dependencies first, then key.

    ``deps`` are :func:`_step_deps`' pairs and ``node_of[k]`` is step
    ``k``'s node (``-1``: dropped); a region's steps share one node, so
    its dependencies are the union of theirs.  Among ready nodes the
    lowest key goes first: a plain step keeps its source position, a
    region sits at its chain's last level.  Returns the nodes in order
    and those a cycle through a region left unscheduled.
    """
    u, v = node_of[deps[0]], node_of[deps[1]]
    keep = (u >= 0) & (v >= 0) & (u != v)
    left = {int(w): 0 for w in node_of[node_of >= 0]}
    succs: dict[int, list] = {}
    for a, b in set(zip(u[keep].tolist(), v[keep].tolist())):
        succs.setdefault(a, []).append(b)
        left[b] += 1
    ready = [(keys[w], w) for w, n_pred in left.items() if not n_pred]
    heapq.heapify(ready)
    order = []
    while ready:
        _, w = heapq.heappop(ready)
        order.append(w)
        for x in succs.get(w, ()):
            left[x] -= 1
            if not left[x]:
                heapq.heappush(ready, (keys[x], x))
    return order, {w for w, n_pred in left.items() if n_pred}


def compile_megakernel(trace: KernelTrace) -> MegakernelTrace:
    """Mine a compiled trace for FMA chains and fuse them.

    A chain fuses when it has :data:`MIN_REGION_LEVELS` levels or more,
    or when its exits feed a row epilogue; a trace with neither compiles
    to a zero-region program that replays step by step.  A reduce of
    ``setzero`` registers that only epilogues read folds into the
    program's initial scalar file.
    """
    steps = trace.steps
    n = len(steps)
    layouts = [STEP_LAYOUT[step[0]] for step in steps]
    reads = [
        (
            [ids.ravel() for ids in reg_uses(step, lay)],
            [ids.ravel() for ids in scalar_uses(step, lay)],
        )
        for step, lay in zip(steps, layouts)
    ]
    uses = _use_counts(reads, trace.nregs)
    lane_idx = np.arange(trace.lanes, dtype=np.int64)
    buf_len = [s.nbytes // np.dtype(s.dtype).itemsize for s in trace.buffers]
    # Sources for load absorption must come from buffers no step writes.
    written_bufs = {step[1] for step in steps if step[0] in WRITE_KINDS}
    readers = _addend_readers(steps, trace.nregs)
    slot = np.full(max(trace.nregs, 1), -1, dtype=np.int64)

    chains = []  # (step indices, perms, exits)
    linked = np.zeros(max(n, 1), dtype=bool)
    for i in range(n):
        if linked[i] or not _is_chain_link(steps[i]):
            continue
        chain, rows = _mine_chain(steps, i, uses, readers, slot)
        linked[chain] = True
        chains.append((chain, *_row_layout([steps[j] for j in chain], rows)))
    defs = _DefMap(steps, trace.nregs, trace.lanes) if chains else None
    folds = _zero_reduces(steps, defs.zero) if defs else []
    const = np.zeros(max(trace.nscalars, 1), dtype=bool)
    for k in folds:
        const[steps[k][1]] = True
    epilogues = _assign_epilogues(
        steps, [c[2] for c in chains], linked, trace.nregs, const,
        buf_len, lane_idx,
    )
    keep = [
        c for c, (chain, *_) in enumerate(chains)
        if len(chain) >= MIN_REGION_LEVELS or epilogues[c]
    ]
    segments: list = [("steps", tuple(steps))] if n else []
    dropped: list = []
    if keep:
        built = {
            c: _chain_region(steps, *chains[c], defs, written_bufs, trace.lanes)
            for c in keep
        }
        deps = _step_deps(
            steps, reads, trace.nregs, trace.nscalars, buf_len, written_bufs,
            lane_idx,
        )
        keys = list(range(n)) + [chain[-1] for chain, *_ in chains]
        while True:
            node_of = np.arange(n, dtype=np.int64)
            for c in keep:
                node_of[chains[c][0]] = n + c
                node_of[epilogues[c]] = n + c
            folded = _unread_by_plain(steps, reads, folds, node_of, trace.nscalars)
            dropped = _dead_feeders(
                steps, uses, node_of >= n,
                [hit for c in keep for hit in built[c][1]],
                [hit for c in keep for hit in built[c][2]]
                + [defs.zero_defined(steps[k][2][1]) for k in folded],
            )
            dropped = sorted(dropped + [(k, "reduce") for k in folded])
            node_of[[si for si, _ in dropped]] = -1
            order, stuck = _schedule(deps, node_of, keys)
            if not stuck:
                break
            # Every dependency points forward in the source, so a cycle
            # runs through a region; its regions stay plain.
            keep = [c for c in keep if n + c not in stuck]
        regions = {c: built[c][0] for c in keep}
        _plan_epilogues(steps, reads, regions, epilogues, node_of, trace)
        segments, plain = [], []
        for u in order:
            if u < n:
                plain.append(steps[u])
                continue
            if plain:
                segments.append(("steps", tuple(plain)))
                plain = []
            segments.append(("region", regions[u - n]))
        if plain:
            segments.append(("steps", tuple(plain)))

    return MegakernelTrace(
        lanes=trace.lanes,
        nregs=trace.nregs,
        nscalars=trace.nscalars,
        segments=segments,
        buffers=trace.buffers,
        counters=trace.counters.copy(),
        scalars=_fold_constants(steps, dropped, trace.nscalars, trace.lanes),
        nops=trace.nops,
        source_nsteps=trace.nsteps,
        dropped_steps=tuple(dropped),
        nregs_used=_regs_touched(segments),
    )


def _chain_region(steps, chain, perms, exits, defs, written_bufs, lanes):
    """A mined chain's region, plus the loads and setzeros it absorbs.

    The plan holds one entry per active (level, row, lane) triple, laid
    out by :func:`_lane_plan`; a lockstep chain is the case of equal
    widths, no masks and identity perms.  Returns ``(region,
    absorbable, zeroable)``: the last two list the ``(defining steps,
    ids)`` of operands and base registers the plans absorbed, for
    :func:`_dead_feeders`.
    """
    links = [steps[j] for j in chain]
    take, fold, lane_rows, pad = _lane_plan(links, perms, lanes)

    def entries(grid):
        """A level-major ``(sum(widths), lanes)`` grid in plan order."""
        return grid.ravel() if take is None else grid.ravel()[take]

    absorbable: list[tuple[set, np.ndarray]] = []
    zeroable: list[tuple[set, np.ndarray]] = []
    # Turn operand slices of never-written buffers into index plans;
    # the feeding loads can then drop out of the program entirely.
    srcs = []
    for slot_idx in (2, 3):
        ids = np.concatenate(
            [s[slot_idx][1][perm] for s, perm in zip(links, perms)]
        )
        hit = defs.absorb(ids, written_bufs)
        if hit is None:
            srcs.append(("reg", entries(ids[:, None] * lanes + np.arange(lanes))))
            continue
        b, addr, live, load_steps = hit
        dead = None if live is None else ~entries(live)
        srcs.append(("buf", b, entries(addr), dead if dead is not None and dead.any() else None))
        absorbable.append((load_steps, ids))
    widths = tuple(len(perm) for perm in perms)
    (a_src, b_src), order = _pick_layout(srcs, widths, take is None)
    region = FusedRegion(
        a_src=a_src,
        b_src=b_src,
        base=("zero",),
        dsts=exits,
        widths=widths,
        chain=np.concatenate([s[1][perm] for s, perm in zip(links, perms)]),
        fold=fold,
        lane_rows=lane_rows,
        pad=pad,
        shape=(len(links), len(exits), lanes),
        order=order,
    )
    # A chain seeded from setzero registers folds from literal zero
    # (SSA: those registers are 0.0 forever); if nothing else reads
    # them, the setzero drops out of the program too.
    base_op = links[0][4]
    if base_op[0] != "r":
        region.base = ("const", base_op[1][perms[0]])
    elif (zero_hit := defs.zero_defined(base_op[1])) is not None:
        region.base = ("zero",)
        zeroable.append(zero_hit)
    else:
        region.base = ("reg", np.asarray(base_op[1])[perms[0]])
    region.source_steps = tuple(links)
    region.first_step = chain[0]
    return region, absorbable, zeroable


def _plan_epilogues(steps, reads, regions, epilogues, node_of, trace) -> None:
    """Give every region its epilogue plans and its boundary writes.

    A region writes its exits to the register file (``materialize``)
    and its sums to the scalar file (``scalars_out``) only when a step
    outside it, or its own store from the scalar file, reads them.
    """
    n = len(steps)
    owner = np.full(max(trace.nregs, 1), -1, dtype=np.int64)
    sowner = np.full(max(trace.nscalars, 1), -1, dtype=np.int64)
    from_svals = []
    for c, region in regions.items():
        owner[region.dsts] = c
        epi = [steps[k] for k in epilogues[c]]
        _epilogue_plan(region, epi, trace.nregs, trace.nscalars)
        sowner[region.red_dsts] = c
        region.source_steps += tuple(epi)
        from_svals += [idx for _, _, (kind, idx) in region.stores if kind == "s"]
    live = [k for k in range(n) if node_of[k] >= 0]
    read_out = _read_outside(
        [(ids, node_of[k] - n) for k in live for ids in reads[k][0]], owner
    )
    sread_out = _read_outside(
        [(ids, node_of[k] - n) for k in live for ids in reads[k][1]], sowner
    )
    for idx in from_svals:
        sread_out[idx] = True
    for region in regions.values():
        region.materialize = bool(read_out[region.dsts].any())
        region.scalars_out = bool(sread_out[region.red_dsts].any())


def _read_outside(reads, owner) -> np.ndarray:
    """Per id, whether a step outside the region that defines it reads it.

    ``reads`` pairs each read id array with the reading step's region
    (negative for a plain step); ``owner`` maps ids to regions (``-1``:
    none).
    """
    out = np.zeros(len(owner), dtype=bool)
    if reads:
        ids = np.concatenate([r[0] for r in reads])
        reader = np.repeat([r[1] for r in reads], [len(r[0]) for r in reads])
        defined_by = owner[ids]
        out[ids[(defined_by >= 0) & (defined_by != reader)]] = True
    return out


def _in_order(keys: np.ndarray, size: int, *rest: np.ndarray):
    """Sort plan entries by ``keys``; ``None`` replaces keys ``0..size-1``.

    The entries of one batched reduce or store are independent (each
    slot and each cell occurs once), so their order is free; sorted by
    the accumulator row or lane they read, a plan that reads every one
    in order becomes a plain slice of the whole block.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    iota = keys.size == size and bool(np.array_equal(keys, np.arange(size)))
    return (None if iota else keys, *(a[order] for a in rest))


def _epilogue_plan(region, epi, nregs, nscalars) -> None:
    """Fill ``region``'s batched reduce and store plans from its epilogue."""
    lanes = region.shape[2]
    lane_idx = np.arange(lanes, dtype=np.int64)
    rowpos = np.full(max(nregs, 1), -1, dtype=np.int64)
    rowpos[region.dsts] = np.arange(len(region.dsts))
    rows, dsts, bases = [], [], []
    stores: dict[tuple, tuple[list, list]] = {}
    for step in epi:
        kind = step[0]
        if kind == "reduce":
            rows.append(rowpos[step[2][1]])
            dsts.append(np.asarray(step[1]))
            bases.append(
                np.full(len(step[1]), -1) if step[3] is None else np.asarray(step[3][1])
            )
            continue
        if kind == "sstore":
            tag, cells, src = "s", step[2], np.asarray(step[3][1])
        else:
            lay = STEP_LAYOUT[kind]
            cells, live = lane_addresses(step, lay, lane_idx)
            flat = rowpos[step[lay.ruse[0]][1]][:, None] * lanes + lane_idx
            if live is not None:
                flat, cells = flat[live], cells[live]
            tag, cells, src = "v", cells.ravel(), flat.ravel()
        entry = stores.setdefault((step[1], tag), ([], []))
        entry[0].append(cells)
        entry[1].append(src)
    if rows:
        region.red_rows, region.red_dsts, base = _in_order(
            np.concatenate(rows), region.width, np.concatenate(dsts),
            np.concatenate(bases),
        )
        joined = base >= 0
        if joined.any():
            region.red_base = (
                None if joined.all() else np.flatnonzero(joined), base[joined]
            )
    total = region.red_dsts.size
    spos = np.full(max(nscalars, 1), -1, dtype=np.int64)
    spos[region.red_dsts] = np.arange(total)
    plans = []
    for (b, tag), (cells, srcs) in stores.items():
        cells, src = np.concatenate(cells), np.concatenate(srcs)
        if tag == "v":
            flat, cells = _in_order(src, region.width * lanes, cells)
            plans.append((b, cells, ("v", flat)))
            continue
        # A scalar store takes the region's own sums from the batch, the
        # rest (other regions' sums, folded constants) from the scalar file.
        own = spos[src] >= 0
        if own.any():
            pos, at = _in_order(spos[src[own]], total, cells[own])
            plans.append((b, at, ("p", pos)))
        if not own.all():
            plans.append((b, cells[~own], ("s", src[~own])))
    region.stores = tuple(plans)


def _dead_feeders(steps, uses, consumed, absorbable, zeroable) -> list:
    """Loads and setzeros every reader of which a region absorbed.

    A load drops out only when every destination register is consumed
    by region index plans — single reader each, all inside plans; a
    setzero likewise when its registers only seeded zero-folded bases.
    Marks them consumed; returns ``(index, kind)`` pairs in index order.
    """
    dropped: list[tuple[int, str]] = []
    for feeders, def_slot in ((absorbable, 2), (zeroable, 1)):
        if not feeders:
            continue
        covered = np.zeros(len(uses), dtype=bool)
        for _, ids in feeders:
            covered[ids] = True
        for step_set, _ in feeders:
            for si in sorted(step_set):
                if consumed[si]:
                    continue
                dsts = np.asarray(steps[si][def_slot])
                if _single_use(uses, dsts) and bool(np.all(covered[dsts])):
                    consumed[si] = True
                    dropped.append((si, steps[si][0]))
    dropped.sort(key=lambda pair: pair[0])
    return dropped


def _zero_reduces(steps, zero: np.ndarray) -> list[int]:
    """The ``reduce`` steps with no ``base=`` that sum ``setzero``
    registers only (``zero`` marks them): each defines the constant sum
    of a zero block, whatever the inputs."""
    return [
        k for k, step in enumerate(steps)
        if step[0] == "reduce" and step[3] is None and step[2][0] == "r"
        and bool(zero[step[2][1]].all())
    ]


def _unread_by_plain(steps, reads, folds, node_of, nscalars: int) -> list[int]:
    """The reduces of ``folds`` whose scalars no plain step reads.

    Only a region's epilogue reads them (a ``base=`` join or an
    ``sstore``), and it reads them from the scalar file, so they fold
    into the program's constants and drop out.
    """
    n = len(steps)
    read = np.zeros(max(nscalars, 1), dtype=bool)
    for k, (_, sids) in enumerate(reads):
        if 0 <= node_of[k] < n:
            for ids in sids:
                read[ids] = True
    return [k for k in folds if not read[steps[k][1]].any()]


def _fold_constants(steps, dropped, nscalars: int, lanes: int) -> np.ndarray:
    """The initial scalar file: each folded reduce's slots hold its sum.

    A folded reduce sums a block of zeros, as the plain step would:
    ``+0.0`` in every slot.
    """
    scalars = np.zeros(max(nscalars, 1), dtype=np.float64)
    for k, kind in dropped:
        if kind == "reduce":
            dsts = steps[k][1]
            scalars[dsts] = np.sum(np.zeros((len(dsts), lanes)), axis=1)
    return scalars


def _regs_touched(segments) -> int:
    """One past the highest register id the fused program references."""
    top = -1

    def see(ids):
        nonlocal top
        arr = np.asarray(ids)
        if arr.size:
            top = max(top, int(arr.max()))

    for tag, seg in segments:
        if tag == "region":
            for src in (seg.a_src, seg.b_src):
                if src[0] == "reg":
                    see(src[1] // seg.shape[2])
            if seg.base[0] == "reg":
                see(seg.base[1])
            if seg.materialize:
                see(seg.dsts)
        else:
            for step in seg:
                lay = STEP_LAYOUT[step[0]]
                for ids in reg_defs(step, lay) + reg_uses(step, lay):
                    see(ids)
    return top + 1
