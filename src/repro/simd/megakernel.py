"""Megakernel tier: fuse batched trace steps into whole-matrix passes.

:func:`compile_megakernel` is the second compiler tier above
:func:`~repro.simd.replay.compile_trace`.  The level scheduler already
exposes the formats' lockstep FMA chains: the compiled program issues a
handful of big batched loads and then one ``fmadd`` step per level, each
consuming its slice of the loads and chaining into the accumulator of
the level below.  Plain replay still pays one NumPy dispatch per step —
and every ``fmadd`` dispatch is itself three fancy-index reads, a
multiply, an add, and a fancy-index write — ``O(max_row_length)``
dispatches per matrix.

This compiler mines the step list for maximal runs of those chained
``fmadd`` steps (same group width, each level's addend ``c`` exactly the
previous level's destinations) and collapses every run into one
:class:`FusedRegion`: a precomputed gather *plan* — the full
``(levels, k, lanes)`` index arrays, the inspector step persisted by
:mod:`repro.simd.plan_cache` — plus one fused multiply-accumulate
sweep.  When a chain's operands are slices of ``vload``/``gather``
steps whose registers have no other readers, those loads are absorbed
into the plan and dropped from the program entirely; a trailing
``vstore`` consuming only the final accumulators is likewise absorbed
so the sweep writes the output buffer directly.  A region replays in a
handful of NumPy calls regardless of row length.

Bit-identity with plain replay is preserved by construction:

* the per-level products are computed element-wise on exactly the
  operands of the recorded ``fmadd`` steps (same values whether read
  from the register file or straight from the buffer the absorbed load
  would have read);
* the chain is folded by an explicit sequential in-place loop of
  ``np.add`` calls — a strictly left-to-right fold seeded with the
  recorded base accumulator (never a ``np.sum``-style reduction, whose
  pairwise summation would reorder the additions).  Plain replay
  computes ``(a * b) + c`` per level; the fold computes ``c + (a *
  b)``: IEEE addition is commutative bit-for-bit (including signed
  zeros), so every intermediate sum is identical;
* counters are the recorded block, returned as a copy, exactly as
  plain replay returns them.

Fusion is *safe* because the trace is SSA (every op defines a fresh
register): a register may be elided — an intermediate accumulator, an
absorbed load's destinations — only when its use count is exactly one,
which one ``np.bincount`` over the step operands decides exactly, not
conservatively.  Loads are only absorbed from buffers the program never
writes.  Masked steps (partial slices, remainder lanes) never fuse;
they run as plain steps between regions through the shared
:func:`~repro.simd.replay.execute_step`.  A trace with no fusible run
compiles to a program with zero regions — one plain ``steps`` segment —
so every trace has exactly one compiled program, and the trace-cache
fill (:func:`repro.core.traced.acquire_trace`) always ends here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counters import KernelCounters
from .replay import KernelTrace, bind_buffers, execute_step
from .trace import BufferSlot

#: Bump when the fused execution semantics change: the revision is part
#: of the on-disk plan address (:mod:`repro.simd.plan_cache`), so stale
#: persisted plans from an older compiler never replay under a newer one.
MEGAKERNEL_REVISION = 1

#: Chains shorter than this stay plain — a one-level "region" would just
#: re-dispatch the same multiply-add with extra bookkeeping.
MIN_REGION_LEVELS = 2


def step_reg_reads(step):
    """Yield the register-id arrays a *compiled* step reads.

    The compiled-step analogue of the recorder-op dataflow helpers in
    :mod:`repro.simd.trace_ir`: used by the fusion safety analysis here
    and by the megakernel lint pass (:mod:`repro.analysis.trace_lint`).
    """
    kind = step[0]
    if kind in ("fmadd", "fmadd_mask"):
        operands = step[2:5]
    elif kind in ("mul", "add"):
        operands = step[2:4]
    elif kind in ("vstore", "vstore_mask", "scatter"):
        operands = (step[3],)
    elif kind in ("reduce", "reduce_sel", "extract", "blend", "lane_add"):
        operands = (step[2],)
    else:
        operands = ()
    for opnd in operands:
        if isinstance(opnd, tuple) and len(opnd) == 2 and opnd[0] == "r":
            yield np.asarray(opnd[1])


def step_reg_defs(step):
    """Yield the register-id arrays a *compiled* step defines."""
    kind = step[0]
    if kind in ("vload", "gather", "vload_prefix", "gather_mask"):
        yield np.asarray(step[2])
    elif kind in (
        "fmadd", "fmadd_mask", "mul", "add", "setzero", "set1", "blend",
        "lane_add",
    ):
        yield np.asarray(step[1])


#: Step kinds that write a buffer — sources for load absorption must
#: come from buffers no step ever writes.
_WRITE_KINDS = ("vstore", "vstore_mask", "sstore", "scatter")


@dataclass
class FusedRegion:
    """One fused run of chained FMA levels: a gather plan + one sweep.

    ``a_src``/``b_src`` name where each level's multiplicands come from:

    * ``("buf", b, plan3d)`` — ``bufs[b][plan3d]``, the precomputed
      ``(levels, width, lanes)``-shaped index plan of an absorbed load;
    * ``("slab", b, start)`` — the plan turned out to cover one
      contiguous buffer run, so the operand is a zero-cost reshape view
      of ``bufs[b]`` instead of a gather;
    * ``("reg", ids2d)`` — the register block a plain load left in the
      register file.

    ``order`` is the axis layout the sweep runs in: ``"level"`` blocks
    are ``(levels, width, lanes)``; ``"slab"`` blocks are transposed to
    ``(width, levels, lanes)`` so a slab view is C-contiguous (the
    element-wise products and the per-level fold order are unchanged —
    only the memory layout differs).

    ``base`` is the first level's accumulator: ``("reg", ids)``, a baked
    ``("const", block)``, or ``("zero",)`` when the feeding ``setzero``
    was absorbed.  ``dsts`` are the final accumulator register ids; when
    ``store`` is set, the trailing ``vstore`` was absorbed and the sweep
    writes ``bufs[store[0]]`` at the precomputed flat indices instead of
    materializing them.

    ``source_steps`` keeps the chain steps the region replaced (the
    ``fmadd`` run plus an absorbed store) so the static linter can
    re-derive and audit the fusion; ``first_step`` is the chain's index
    in the source program.
    """

    a_src: tuple = field(repr=False)
    b_src: tuple = field(repr=False)
    base: tuple = field(repr=False)
    dsts: np.ndarray = field(repr=False)
    shape: tuple = (0, 0, 0)  #: logical (levels, width, lanes)
    order: str = "level"
    store: tuple | None = field(default=None, repr=False)
    source_steps: tuple = field(default=(), repr=False)
    first_step: int = 0

    @property
    def levels(self) -> int:
        return int(self.shape[0])

    @property
    def width(self) -> int:
        return int(self.shape[1])

    def chain_ids(self) -> np.ndarray:
        """Destination ids of every fused ``fmadd`` level, in order."""
        return np.stack(
            [np.asarray(s[1]) for s in self.source_steps if s[0] == "fmadd"]
        )

    def interior_ids(self) -> np.ndarray:
        """Register ids consumed inside the region, never materialized.

        The intermediate accumulators always; with an absorbed store the
        final accumulators too — the sweep writes the output buffer
        directly.  Nothing outside the region may read an interior id
        (the VEC050 contract).
        """
        chain = self.chain_ids().ravel()
        if self.store is not None:
            return chain
        return np.setdiff1d(chain, np.asarray(self.dsts))

    def _operand(self, src, bufs, regs):
        kind, *payload = src
        if kind == "buf":
            b, plan = payload
            return bufs[b][plan]
        if kind == "slab":
            b, start = payload
            levels, k, lanes = self.shape
            block = bufs[b][start : start + levels * k * lanes]
            if self.order == "slab":
                return block.reshape(k, levels, lanes)
            return block.reshape(levels, k, lanes)
        return regs[payload[0]]

    def execute(self, bufs, regs) -> None:
        """One gather-plan read per operand + one fused FMA sweep.

        All levels' products are formed in one element-wise multiply,
        then folded into the base accumulator strictly left-to-right —
        the same per-level additions, in the same order, as step-by-step
        replay, so the result is bit-identical.  Intermediate
        accumulators never exist: only the final one is materialized (or
        written straight to the absorbed store's buffer).
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
        kind = self.base[0]
        if kind == "zero":
            acc = np.zeros(self.shape[1:], dtype=np.float64)
        elif kind == "reg":
            acc = regs[self.base[1]]  # fancy read: already a fresh copy
        else:
            acc = self.base[1].copy()
        if self.order == "level":
            for level in prod:
                np.add(acc, level, out=acc)
        else:
            for t in range(prod.shape[1]):
                np.add(acc, prod[:, t, :], out=acc)
        if self.store is not None:
            b_out, flat = self.store
            bufs[b_out][flat] = acc.ravel()
        else:
            regs[self.dsts] = acc


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
    nops: int = 0
    source_nsteps: int = 0  #: batched steps of the plain-replay program
    #: ``(index, step)`` of source loads absorbed into region plans.
    dropped_steps: tuple = field(default=(), repr=False)
    #: One past the highest register id the fused program still touches
    #: (0 when every register was elided; -1 means not computed).  The
    #: replay register file shrinks from ``nregs`` rows to this — a
    #: large saving: the absorbed loads are the wide ids.
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
    def nsteps(self) -> int:
        """NumPy dispatch groups per replay (plain steps + one per region)."""
        total = 0
        for tag, seg in self.segments:
            total += 1 if tag == "region" else len(seg)
        return total

    @property
    def named_buffers(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.buffers if s.is_named)

    def elided_ids(self) -> np.ndarray:
        """Every register id the fused program never materializes."""
        parts = [r.interior_ids() for r in self.regions]
        parts += [
            a.ravel() for _, s in self.dropped_steps for a in step_reg_defs(s)
        ]
        if not parts:
            return np.asarray([], dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def replay(self, buffers: dict[str, np.ndarray]) -> KernelCounters:
        """Execute the megakernel program against fresh named buffers."""
        bufs = bind_buffers(self.buffers, buffers)
        nrows = self.nregs if self.nregs_used < 0 else self.nregs_used
        regs = np.zeros((max(nrows, 1), self.lanes), dtype=np.float64)
        svals = np.zeros(max(self.nscalars, 1), dtype=np.float64)
        lane_idx = np.arange(self.lanes, dtype=np.int64)
        for tag, seg in self.segments:
            if tag == "region":
                seg.execute(bufs, regs)
            else:
                for step in seg:
                    execute_step(step, bufs, regs, svals, lane_idx)
        return self.counters.copy()


# ---------------------------------------------------------------------------
# fusion mining
# ---------------------------------------------------------------------------


def _use_counts(steps, nregs: int) -> np.ndarray:
    """Total read occurrences per register id across the whole program."""
    reads = [a.ravel() for step in steps for a in step_reg_reads(step)]
    if not reads:
        return np.zeros(max(nregs, 1), dtype=np.int64)
    return np.bincount(
        np.concatenate(reads).astype(np.int64), minlength=max(nregs, 1)
    )


def _single_use(uses: np.ndarray, ids) -> bool:
    return bool(np.all(uses[np.asarray(ids)] == 1))


def _is_chain_link(step) -> bool:
    return (
        step[0] == "fmadd"
        and step[2][0] == "r"
        and step[3][0] == "r"
        and len(step[2][1]) == len(step[1])
        and len(step[3][1]) == len(step[1])
    )


class _DefMap:
    """Where each register id was defined, for load absorption.

    ``step_of[id]`` is the defining step index for ids written by an
    unmasked ``vload``/``gather`` or a ``setzero`` (else ``-1``);
    ``off_of``/``idx_of`` carry the per-id strided offset / gather row
    so a chain's operand slices can be turned into a ``(levels, k,
    lanes)`` buffer plan in one vectorized lookup.
    """

    def __init__(self, steps, nregs: int, lanes: int):
        n = max(nregs, 1)
        self.step_of = np.full(n, -1, dtype=np.int64)
        self.kind_of = np.zeros(n, dtype=np.int8)  # 1=vload 2=gather 3=zero
        self.buf_of = np.full(n, -1, dtype=np.int64)
        self.off_of = np.zeros(n, dtype=np.int64)
        self.idx_of: np.ndarray | None = None
        for i, step in enumerate(steps):
            if step[0] == "vload":
                _, b, dsts, offs = step
                self.step_of[dsts] = i
                self.kind_of[dsts] = 1
                self.buf_of[dsts] = b
                self.off_of[dsts] = offs
            elif step[0] == "gather":
                _, b, dsts, idx2d = step
                if self.idx_of is None:
                    self.idx_of = np.zeros((n, lanes), dtype=np.int64)
                self.step_of[dsts] = i
                self.kind_of[dsts] = 2
                self.buf_of[dsts] = b
                self.idx_of[dsts] = idx2d
            elif step[0] == "setzero":
                dsts = step[1]
                self.step_of[dsts] = i
                self.kind_of[dsts] = 3

    def absorb(self, ids2d: np.ndarray, written_bufs, lane_idx):
        """Build a ``("buf", b, plan3d)`` source for a chain's operand ids.

        Returns ``(source, load_step_indices)`` when every id comes from
        unmasked loads of one never-written buffer, else ``None`` — the
        caller falls back to reading the register file.
        """
        flat = ids2d.ravel()
        kinds = self.kind_of[flat]
        if kinds[0] not in (1, 2) or not np.all(kinds == kinds[0]):
            return None
        bufs = self.buf_of[flat]
        b = int(bufs[0])
        if b in written_bufs or not np.all(bufs == b):
            return None
        if kinds[0] == 1:
            plan3d = self.off_of[ids2d][:, :, None] + lane_idx
        else:
            plan3d = self.idx_of[ids2d]
        return (
            ("buf", b, np.ascontiguousarray(plan3d)),
            set(int(s) for s in self.step_of[flat]),
        )

    def zero_defined(self, ids) -> tuple[set, np.ndarray] | None:
        """Setzero steps defining every id, or ``None`` if any id isn't."""
        flat = np.asarray(ids).ravel()
        if not np.all(self.kind_of[flat] == 3):
            return None
        return set(int(s) for s in self.step_of[flat]), flat


def _slab_start(plan3d: np.ndarray):
    """Start offset when a plan covers one contiguous buffer run, else None."""
    flat = plan3d.ravel()
    start = int(flat[0])
    if np.array_equal(flat, np.arange(start, start + flat.size)):
        return start
    return None


def _pick_layout(a_src, b_src):
    """Upgrade contiguous index plans to slab views; pick the sweep order.

    A ``("buf", ...)`` plan whose flattened indices are one contiguous
    run — in ``(level, k, lanes)`` order or transposed ``(k, level,
    lanes)`` order — becomes a zero-cost reshape view of the buffer.
    SELL-style value arrays are slice-major, so their strided loads are
    contiguous only in the transposed order; when that is the only slab
    available the whole region sweeps in ``"slab"`` order and the other
    operand's plan is transposed to match (same element-wise products,
    same fold order — only the memory layout changes).
    """
    srcs = [a_src, b_src]
    starts = [
        _slab_start(s[2]) if s[0] == "buf" else None for s in srcs
    ]
    if starts[0] is not None or starts[1] is not None:
        for j, start in enumerate(starts):
            if start is not None:
                srcs[j] = ("slab", srcs[j][1], start)
        return srcs[0], srcs[1], "level"
    tstarts = [
        _slab_start(s[2].transpose(1, 0, 2)) if s[0] == "buf" else None
        for s in srcs
    ]
    if tstarts[0] is None and tstarts[1] is None:
        return a_src, b_src, "level"
    for j, start in enumerate(tstarts):
        if start is not None:
            srcs[j] = ("slab", srcs[j][1], start)
        elif srcs[j][0] == "buf":
            srcs[j] = (
                "buf",
                srcs[j][1],
                np.ascontiguousarray(srcs[j][2].transpose(1, 0, 2)),
            )
        else:
            srcs[j] = ("reg", np.ascontiguousarray(srcs[j][1].T))
    return srcs[0], srcs[1], "slab"


def _mine_chain(steps, i, uses):
    """Longest fusible fmadd chain starting at step ``i`` (step indices)."""
    chain = [i]
    width = len(steps[i][1])
    while True:
        j = chain[-1] + 1
        if j >= len(steps):
            break
        nxt = steps[j]
        prev_dsts = steps[chain[-1]][1]
        if (
            not _is_chain_link(nxt)
            or len(nxt[1]) != width
            or nxt[4][0] != "r"
            or not np.array_equal(nxt[4][1], prev_dsts)
            or not _single_use(uses, prev_dsts)
        ):
            break
        chain.append(j)
    return chain


def compile_megakernel(
    trace: KernelTrace, min_levels: int = MIN_REGION_LEVELS
) -> MegakernelTrace:
    """Mine a compiled trace for chained FMA runs and fuse them.

    Chains shorter than ``min_levels`` stay plain; a trace with none
    compiles to a zero-region program that replays step by step.
    """
    steps = trace.steps
    n = len(steps)
    uses = _use_counts(steps, trace.nregs)
    lane_idx = np.arange(trace.lanes, dtype=np.int64)
    defs = _DefMap(steps, trace.nregs, trace.lanes)
    written_bufs = {step[1] for step in steps if step[0] in _WRITE_KINDS}

    regions: dict[int, FusedRegion] = {}  # chain start index -> region
    consumed = np.zeros(max(n, 1), dtype=bool)  # replaced or absorbed
    absorbable: list[tuple[set, np.ndarray]] = []  # (load steps, operand ids)
    zeroable: list[tuple[set, np.ndarray]] = []  # (setzero steps, base ids)

    i = 0
    while i < n:
        if consumed[i] or not _is_chain_link(steps[i]):
            i += 1
            continue
        chain = _mine_chain(steps, i, uses)
        if len(chain) < min_levels:
            i += 1
            continue
        a2d = np.stack([steps[j][2][1] for j in chain])
        b2d = np.stack([steps[j][3][1] for j in chain])
        final_dsts = np.asarray(steps[chain[-1]][1])
        source = [steps[j] for j in chain]

        # Absorb a trailing vstore that consumes only the final
        # accumulators: the sweep then writes the output directly.
        store = None
        j = chain[-1] + 1
        if j < n:
            cand = steps[j]
            if (
                cand[0] == "vstore"
                and cand[3][0] == "r"
                and np.array_equal(cand[3][1], final_dsts)
                and _single_use(uses, final_dsts)
            ):
                store = (cand[1], (cand[2][:, None] + lane_idx).ravel())
                source.append(cand)
                consumed[j] = True

        # Turn operand slices of never-written buffers into index plans;
        # the feeding loads can then drop out of the program entirely.
        a_src = ("reg", a2d)
        b_src = ("reg", b2d)
        hit = defs.absorb(a2d, written_bufs, lane_idx)
        if hit is not None:
            a_src, load_steps = hit
            absorbable.append((load_steps, a2d.ravel()))
        hit = defs.absorb(b2d, written_bufs, lane_idx)
        if hit is not None:
            b_src, load_steps = hit
            absorbable.append((load_steps, b2d.ravel()))
        a_src, b_src, order = _pick_layout(a_src, b_src)

        # A chain seeded from setzero registers folds from literal zero
        # (SSA: those registers are 0.0 forever); if nothing else reads
        # them, the setzero drops out of the program too.
        base_op = steps[i][4]
        if base_op[0] == "r":
            base = ("reg", np.asarray(base_op[1]))
            zero_hit = defs.zero_defined(base_op[1])
            if zero_hit is not None:
                base = ("zero",)
                zeroable.append(zero_hit)
        else:
            base = ("const", base_op[1])
        regions[i] = FusedRegion(
            a_src=a_src,
            b_src=b_src,
            base=base,
            dsts=final_dsts,
            shape=(len(chain), len(final_dsts), trace.lanes),
            order=order,
            store=store,
            source_steps=tuple(source),
            first_step=i,
        )
        consumed[np.asarray(chain)] = True
        i = chain[-1] + 1

    # A load drops out only when every destination register is consumed
    # by region index plans — single reader each, all inside plans.
    absorbed_ids = (
        np.concatenate([ids for _, ids in absorbable])
        if absorbable
        else np.asarray([], dtype=np.int64)
    )
    dropped: list[tuple[int, tuple]] = []
    for load_steps, _ in absorbable:
        for si in load_steps:
            if consumed[si]:
                continue
            dsts = np.asarray(steps[si][2])
            if _single_use(uses, dsts) and bool(
                np.all(np.isin(dsts, absorbed_ids))
            ):
                consumed[si] = True
                dropped.append((si, steps[si]))

    # Same for setzero steps whose registers only seeded zero-folded
    # region bases: every reader is gone, so the write is dead.
    zeroed_ids = (
        np.concatenate([ids for _, ids in zeroable])
        if zeroable
        else np.asarray([], dtype=np.int64)
    )
    for zero_steps, _ in zeroable:
        for si in zero_steps:
            if consumed[si]:
                continue
            dsts = np.asarray(steps[si][1])
            if _single_use(uses, dsts) and bool(
                np.all(np.isin(dsts, zeroed_ids))
            ):
                consumed[si] = True
                dropped.append((si, steps[si]))
    dropped.sort(key=lambda pair: pair[0])

    segments: list = []
    plain: list = []
    for i in range(n):
        if i in regions:
            if plain:
                segments.append(("steps", tuple(plain)))
                plain = []
            segments.append(("region", regions[i]))
        elif not consumed[i]:
            plain.append(steps[i])
    if plain:
        segments.append(("steps", tuple(plain)))

    return MegakernelTrace(
        lanes=trace.lanes,
        nregs=trace.nregs,
        nscalars=trace.nscalars,
        segments=segments,
        buffers=trace.buffers,
        counters=trace.counters.copy(),
        nops=trace.nops,
        source_nsteps=trace.nsteps,
        dropped_steps=tuple(dropped),
        nregs_used=_regs_touched(segments),
    )


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
                    see(src[1])
            if seg.base[0] == "reg":
                see(seg.base[1])
            if seg.store is None:
                see(seg.dsts)
        else:
            for step in seg:
                for ids in step_reg_defs(step):
                    see(ids)
                for ids in step_reg_reads(step):
                    see(ids)
    return top + 1
