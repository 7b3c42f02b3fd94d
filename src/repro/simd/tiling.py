"""Tiling: compile a whole-matrix program from one template per unit shape.

A SpMV kernel issues one instruction stream per row (CSR), slice or
strip (SELL) or block (β), and that stream depends only on the unit's
*shape*.  So the program of a whole matrix is a tiling of a few
templates cut from exemplar recordings.  A :class:`Tiling` holds

* the **templates** — the recorded ops of each distinct unit shape, with
  registers and scalars numbered locally (:class:`Template`), or a
  :class:`Loop`: a head, a body issued once per *pass* and a tail, so
  that one loop serves a CSR row or SELL strip of any length (the
  vector kernels walk either as one accumulator chain, one full vector
  or one column per pass);
* the **unit sequence** — which template every unit of the matrix
  instantiates, in the kernel's op order, and each loop unit's number
  of passes;
* the **address maps** — per buffer, how a template's recorded address
  becomes the unit's: a shift (``val``/``y`` offsets, β anchors, and a
  stride per pass) or a lookup through a structure array of the target
  (gather columns through ``colidx``, sorted rows through ``perm``).
  Exemplars carry position-valued ``colidx``, so each recorded gather
  index names the source position it came from.

:meth:`Tiling.tile` instantiates every template piece over its
instances with NumPy address arithmetic — registers and scalars
renumbered by running sums, addresses shifted or looked up, β
accumulators chained through *ports* (registers a template reads but an
earlier unit defines), a loop's chain through its passes — and
:meth:`Tiling.emit` cuts the columns into the level-scheduled steps of
:mod:`repro.simd.replay` directly.  An instance's levels are its piece's
levels offset by the depth of the chains it continues: a max-plus scan
over β's row chains, and in closed form along a loop, where pass ``j``
sits ``j`` body depths deeper — so the schedule costs one pass per
template piece, not per op, and nothing is scheduled per length.  The
op list (:meth:`Tiling.ops`) and the steps are exactly those of a full
recording of the same matrix.

A full recording is itself a one-unit tiling (:meth:`Tiling.whole`), and
:func:`~repro.simd.replay.compile_trace` compiles it through the same
code — there is one scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .counters import KernelCounters
from .replay import KernelTrace
from .trace import BufferSlot, TraceError, TraceRecorder
from .trace_ir import (
    BITS,
    BUF,
    IDX,
    INT,
    OFF,
    OP_FIELDS,
    OP_LAYOUT,
    RDEF,
    ROP,
    SDEF,
    SEL,
    SOP,
    SOPN,
    STEP_INDEX,
    cells_of,
)

#: A level nothing reaches: "this op does not depend on that port".
NEG = -(1 << 60)
#: The probe level of one port when a template's level function is solved.
_HIGH = 1 << 40
#: Below every level an input can have, ports at :data:`NEG` included.
_BELOW = -(1 << 62)

#: Per kind, the layout slots :func:`op_levels` reads, unpacked once.
_LEVEL_SLOTS = {
    k: (lay.ruse, lay.suse, lay.rdef, lay.sdef, lay.buf, lay.store, lay)
    for k, lay in OP_LAYOUT.items()
}


def op_levels(
    ops: list[tuple],
    lanes: int,
    nbuf: int,
    nregs: int,
    nscalars: int,
    port_levels=(),
) -> tuple[list[int], list[int]]:
    """The dependency level of every op, and of every register.

    The scheduling model of :mod:`repro.simd.replay`: one more than the
    deepest register or scalar input, plus memory hazards (a load sits
    above the last store to its cells; a store above every prior read of
    its buffer and the last store to its cells).  Registers ``nregs + p``
    are ports, defined outside ``ops`` at ``port_levels[p]``.
    """
    reg_lvl = [0] * nregs + list(port_levels)
    s_lvl = [0] * nscalars
    cell_w: list[dict[int, int]] = [dict() for _ in range(nbuf)]
    read_max = [0] * nbuf
    lane_idx = np.arange(lanes, dtype=np.int64)
    levels: list[int] = []
    append = levels.append
    for op in ops:
        try:
            ruse, suse, rdef, sdef, buf, store, lay = _LEVEL_SLOTS[op[0]]
        except KeyError:
            raise TraceError(f"unknown trace op {op[0]!r}") from None
        lvl = 0  # the deepest input, or 0 when the op reads none
        if ruse or suse:
            lvl = _BELOW
            for i in ruse:
                o = op[i]
                v = reg_lvl[o[1]] if o[0] == "r" else 0
                if v > lvl:
                    lvl = v
            for i in suse:
                o = op[i]
                v = s_lvl[o[1]] if o is not None and o[0] == "s" else 0
                if v > lvl:
                    lvl = v
        if buf is not None:
            b = op[buf]
            cw = cell_w[b]
            if store:
                cells = cells_of(op, lay, lane_idx).tolist()
                lvl = max(lvl, read_max[b], *(cw.get(c, 0) for c in cells))
                for c in cells:
                    cw[c] = lvl + 1
            else:
                if cw:  # a buffer nothing has stored to has no hazard to decode
                    cells = cells_of(op, lay, lane_idx).tolist()
                    lvl = max(lvl, max((cw.get(c, 0) for c in cells), default=0))
                if lvl >= read_max[b]:
                    read_max[b] = lvl + 1
        lvl += 1
        for r in rdef:
            reg_lvl[op[r]] = lvl
        for r in sdef:
            s_lvl[op[r]] = lvl
        append(lvl)
    return levels, reg_lvl


def _group_key(op: tuple) -> tuple:
    """What splits one level into steps: the kind, its buffer and lane
    groups, and its operands' kinds (register id or constant, scalar slot
    or literal)."""
    key = [op[0]]
    for i, by_value in OP_LAYOUT[op[0]].group:
        v = op[i]
        key.append(v if by_value else ("none" if v is None else v[0]))
    return tuple(key)


def _remap(op: tuple, reg, sid) -> tuple:
    """``op`` with its register and scalar ids passed through ``reg``/``sid``."""
    out = [op[0]]
    for f, v in zip(OP_FIELDS[op[0]], op[1:]):
        if f == RDEF:
            v = reg(v)
        elif f == SDEF:
            v = sid(v)
        elif f == ROP and v[0] == "r":
            v = ("r", reg(v[1]))
        elif f in (SOP, SOPN) and v is not None and v[0] == "s":
            v = ("s", sid(v[1]))
        out.append(v)
    return tuple(out)


@dataclass
class Template:
    """The recorded instruction stream of one unit shape.

    Registers ``0..nregs-1`` and scalars ``0..nscalars-1`` are the
    template's own, numbered in definition order.  Registers
    ``nregs + p`` are *ports*: the value chain ``p`` holds when the unit
    starts (a β row accumulator).  ``outputs`` maps each chain the
    template advances to the local register holding its new value.
    """

    ops: list[tuple]
    nregs: int
    nscalars: int
    buffers: list[BufferSlot]
    counters: KernelCounters
    nports: int = 0
    outputs: dict[int, int] = field(default_factory=dict)
    aligned_ops: frozenset[int] = frozenset()
    emulated_ops: frozenset[int] = frozenset()

    @classmethod
    def cut(
        cls,
        recorder: TraceRecorder,
        start: int = 0,
        stop: int | None = None,
        counters: KernelCounters | None = None,
    ) -> "Template":
        """Ops ``[start, stop)`` of a recording as a template.

        Registers defined before ``start`` become ports (port ``p`` is the
        recording's register ``p``); a scalar defined before ``start``
        cannot cross a unit boundary and raises :class:`TraceError`.
        """
        ops = recorder.ops
        stop = len(ops) if stop is None else stop
        body = ops[start:stop]
        if start == 0 and stop == len(ops):
            reg0 = sid0 = 0
            nregs, nscalars = recorder.nregs, recorder.nscalars
        else:
            reg0 = sum(1 for op in ops[:start] if OP_LAYOUT[op[0]].rdef)
            sid0 = sum(1 for op in ops[:start] if OP_LAYOUT[op[0]].sdef)
            nregs = sum(1 for op in body if OP_LAYOUT[op[0]].rdef)
            nscalars = sum(1 for op in body if OP_LAYOUT[op[0]].sdef)

        def reg(r: int) -> int:
            return r - reg0 if r >= reg0 else nregs + r

        def sid(s: int) -> int:
            if s < sid0:
                raise TraceError("a scalar crosses a unit boundary")
            return s - sid0

        if reg0 or sid0:
            body = [_remap(op, reg, sid) for op in body]
        return cls(
            ops=list(body),
            nregs=nregs,
            nscalars=nscalars,
            buffers=recorder.buffers,
            counters=(recorder.counters if counters is None else counters).copy(),
            nports=reg0,
            aligned_ops=frozenset(
                i - start for i in recorder.aligned_ops if start <= i < stop
            ),
            emulated_ops=frozenset(
                i - start for i in recorder.emulated_ops if start <= i < stop
            ),
        )

    @property
    def nops(self) -> int:
        return len(self.ops)

    def plan(self, lanes: int, nbuf: int) -> "_Plan":
        """The template's schedule, solved once (cached per geometry)."""
        cache = self.__dict__.setdefault("_plans", {})
        plan = cache.get((lanes, nbuf))
        if plan is None:
            plan = cache[lanes, nbuf] = _Plan(self, lanes, nbuf)
        return plan


@dataclass
class Loop:
    """A unit shape with a loop: a head, a body issued once per pass, a tail.

    A vector kernel walks a CSR row or a SELL strip as one accumulator
    chain, and a unit of ``n`` passes issues ``head``, ``n`` bodies and
    ``tail`` — so one loop serves every length.  The body's and the
    tail's ports are the chains: port ``c`` reads the head's
    ``outputs[c]`` register before the first pass and the body's
    ``outputs[c]`` after each.  The pieces' levels compose in closed
    form (:meth:`Tiling._loop_ports`), so nothing is scheduled per
    length.
    """

    # A loop's chains stay inside its unit: it reads no port, starts none.
    nports: ClassVar[int] = 0
    outputs: ClassVar[dict[int, int]] = {}

    head: Template
    body: Template
    tail: Template

    @property
    def pieces(self) -> tuple[Template, Template, Template]:
        return self.head, self.body, self.tail

    # Per unit: the head and the tail once, the body once per pass.
    @property
    def nregs(self) -> int:
        return self.head.nregs + self.tail.nregs

    @property
    def nscalars(self) -> int:
        return self.head.nscalars + self.tail.nscalars

    @property
    def nops(self) -> int:
        return self.head.nops + self.tail.nops

    @property
    def counters(self) -> KernelCounters:
        return self.head.counters + self.tail.counters


class _Plan:
    """A template's ops as columns per step group, with level functions.

    Every op's level is ``max(L0, max_p(port_p + D[p]))`` — the scheduler
    only takes maxima and adds one, so its levels are max-plus affine in
    the port levels.  The coefficients are solved by scheduling the
    template once with every port at ``NEG`` (giving ``L0``) and once per
    port with that port at a probe height (giving ``D``).
    """

    def __init__(self, tpl: Template, lanes: int, nbuf: int):
        low, nports, nregs = NEG // 2, tpl.nports, tpl.nregs
        levels, reg_levels = op_levels(
            tpl.ops, lanes, nbuf, nregs, tpl.nscalars, [NEG] * nports
        )
        self.L0 = np.asarray([v if v > low else NEG for v in levels], dtype=np.int64)
        D: list[list[int]] = []  # per port, per op
        rD: list[list[int]] = []  # per port, per register
        for p in range(nports):
            probe = [0] * nports
            probe[p] = _HIGH
            lv, rl = op_levels(tpl.ops, lanes, nbuf, nregs, tpl.nscalars, probe)
            D.append([v - _HIGH if v >= _HIGH // 2 else NEG for v in lv])
            rD.append([v - _HIGH if v >= _HIGH // 2 else NEG for v in rl[:nregs]])
        self.D = np.asarray(D, dtype=np.int64).T.reshape(len(tpl.ops), nports)
        # Chain outputs: the new value of chain c may depend on port c only.
        self.out_L0: dict[int, int] = {}
        self.out_D: dict[int, int] = {}
        for c, rid in tpl.outputs.items():
            if any(rD[p][rid] > low for p in range(nports) if p != c):
                raise TraceError("a chain output depends on another chain")
            self.out_L0[c] = reg_levels[rid] if reg_levels[rid] > low else NEG
            self.out_D[c] = rD[c][rid] if c < nports else NEG
        self.used_ports = np.asarray(
            [p for p in range(nports) if max(D[p], default=NEG) > low], dtype=np.int64
        )
        # Step groups: op positions and operand columns, in op order.
        members: dict[tuple, list[int]] = {}
        for i, op in enumerate(tpl.ops):
            members.setdefault(_group_key(op), []).append(i)
        self.groups = {
            key: (np.asarray(pos, dtype=np.int64), _columns(tpl.ops, pos))
            for key, pos in members.items()
        }


def _columns(ops: list[tuple], pos: list[int]) -> list:
    """The operand columns of ops ``pos`` (one kind), field by field."""
    rows = [ops[i] for i in pos]
    cols: list = []
    for j, f in enumerate(OP_FIELDS[rows[0][0]], start=1):
        vals = [op[j] for op in rows]
        if f in (RDEF, SDEF, OFF, INT):
            cols.append(np.asarray(vals, dtype=np.int64))
        elif f == IDX:
            cols.append(np.stack(vals).astype(np.int64, copy=False))
        elif f == BITS:
            cols.append(np.stack(vals))
        elif f == ROP:
            kind = vals[0][0]
            payload = [v[1] for v in vals]
            cols.append(
                (kind, np.asarray(payload, dtype=np.int64) if kind == "r"
                 else np.stack(payload))
            )
        elif f in (SOP, SOPN):
            if vals[0] is None:
                cols.append(None)
                continue
            kind = vals[0][0]
            dtype = np.int64 if kind == "s" else np.float64
            cols.append((kind, np.asarray([v[1] for v in vals], dtype=dtype)))
        else:  # BUF, SEL: constant across the group, kept in its key
            cols.append(None)
    return cols


@dataclass
class _Placement:
    """One template piece and all its instances: per instance its unit,
    body passes before it (``None`` outside a loop's body and tail),
    first register, scalar and op, and the (register, level) pairs its
    ports read (``None`` without ports)."""

    piece: Template
    units: np.ndarray
    passes: np.ndarray | None
    reg0: np.ndarray
    sid0: np.ndarray
    op0: np.ndarray
    ports: tuple[np.ndarray, np.ndarray] | None


@dataclass
class Tiling:
    """A matrix's program as templates tiled over its units.

    ``seq[u]`` is the template of unit ``u`` (units in kernel order),
    and ``reps[u]`` its number of body passes when that is a
    :class:`Loop`.  ``maps[b] = (delta, table)`` re-addresses buffer
    slot ``b`` for each unit: a recorded address ``a`` becomes ``a +
    delta[u]``, or ``table[a + delta[u]]`` when a lookup table is given;
    body pass ``j`` (and a loop's tail, with ``j`` the unit's passes)
    adds ``j * strides[b]`` before the lookup.  ``frame`` holds
    whole-matrix counters no unit owns.
    """

    templates: list[Template | Loop]
    seq: np.ndarray
    lanes: int
    buffers: list[BufferSlot]
    maps: dict[int, tuple[np.ndarray, np.ndarray | None]] = field(default_factory=dict)
    frame: KernelCounters | None = None
    reps: np.ndarray | None = None
    strides: dict[int, int] = field(default_factory=dict)

    @classmethod
    def whole(cls, recorder: TraceRecorder) -> "Tiling":
        """A full recording as a one-unit tiling."""
        return cls(
            templates=[Template.cut(recorder)],
            seq=np.zeros(1, dtype=np.int64),
            lanes=recorder.lanes,
            buffers=recorder.buffers,
        )

    # -- totals --------------------------------------------------------------
    @cached_property
    def passes(self) -> np.ndarray:
        """Body passes per unit (0 outside loops)."""
        return np.zeros_like(self.seq) if self.reps is None else self.reps

    def _bases(self, attr: str) -> np.ndarray:
        sizes = np.asarray([getattr(t, attr) for t in self.templates], dtype=np.int64)
        per_pass = [getattr(t.body, attr) if isinstance(t, Loop) else 0 for t in self.templates]
        per_unit = sizes[self.seq] + np.asarray(per_pass, dtype=np.int64)[self.seq] * self.passes
        return np.concatenate(([0], np.cumsum(per_unit)))

    @cached_property
    def reg_base(self) -> np.ndarray:
        return self._bases("nregs")

    @cached_property
    def sid_base(self) -> np.ndarray:
        return self._bases("nscalars")

    @cached_property
    def op_start(self) -> np.ndarray:
        return self._bases("nops")

    @property
    def nregs(self) -> int:
        return int(self.reg_base[-1])

    @property
    def nscalars(self) -> int:
        return int(self.sid_base[-1])

    @property
    def nops(self) -> int:
        return int(self.op_start[-1])

    @cached_property
    def uses(self) -> np.ndarray:
        """How many units instantiate each template."""
        return np.bincount(self.seq, minlength=len(self.templates))

    @property
    def counters(self) -> KernelCounters:
        """The frame's counters plus every template's, once per use (a
        loop's body once per pass)."""
        total = self.frame.copy() if self.frame is not None else KernelCounters()
        passes = np.bincount(self.seq, weights=self.passes, minlength=len(self.templates))
        for t, tpl in enumerate(self.templates):
            total += tpl.counters.scaled(int(self.uses[t]))
            if isinstance(tpl, Loop):
                total += tpl.body.counters.scaled(int(passes[t]))
        return total

    # -- chains --------------------------------------------------------------
    @cached_property
    def _ports(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(register, level) every unit's ports read, per (unit, chain).

        Chain ``c`` holds the output of the last earlier unit advancing
        it.  Its level after unit ``u`` is ``max(L0_u, level + D_u)``,
        a max-plus scan: with ``S`` the running sum of ``D`` since the
        last reset (an output that ignores its port), the level is
        ``S_u + max_j (L0_j - S_j)`` over the segment — vectorized as a
        running maximum over segment-offset keys.
        """
        nch = max((t.nports for t in self.templates), default=0)
        nch = max([nch] + [c + 1 for t in self.templates for c in t.outputs])
        if nch == 0:
            return None
        ntpl = len(self.templates)
        writes = np.zeros((ntpl, nch), dtype=bool)
        out_rid = np.zeros((ntpl, nch), dtype=np.int64)
        out_L0 = np.full((ntpl, nch), NEG, dtype=np.int64)
        out_D = np.full((ntpl, nch), NEG, dtype=np.int64)
        for t, tpl in enumerate(self.templates):
            if isinstance(tpl, Loop) or not tpl.outputs:
                continue
            plan = tpl.plan(self.lanes, len(self.buffers))
            for c, rid in tpl.outputs.items():
                writes[t, c] = True
                out_rid[t, c] = rid
                out_L0[t, c] = plan.out_L0[c]
                out_D[t, c] = plan.out_D[c]
        n = self.seq.shape[0]
        W = writes[self.seq]
        last = np.maximum.accumulate(
            np.where(W, np.arange(n)[:, None], -1), axis=0
        )
        prev = np.vstack([np.full((1, nch), -1), last[:-1]])
        safe = np.maximum(prev, 0)
        chains = np.arange(nch)[None, :]
        port_rid = self.reg_base[safe] + out_rid[self.seq[safe], chains]
        # Chain levels after every unit (a segmented max-plus scan).
        D = out_D[self.seq]
        reset = W & (D <= NEG // 2)
        step = np.where(W & ~reset, D, 0)
        S = np.cumsum(step, axis=0)
        seg = np.cumsum(reset, axis=0)
        L0 = np.where(W, out_L0[self.seq], NEG)
        live = L0 > NEG // 2
        key = np.where(live, L0 - S, 0)
        low = int(key[live].min()) if live.any() else 0
        span = int(key[live].max()) - low + 1 if live.any() else 1
        if int(seg.max(initial=0)) * span >= 1 << 62:
            raise TraceError("too many chain segments to schedule")
        key = np.where(live, key - low, 0) + seg * span
        best = np.maximum.accumulate(key, axis=0) - seg * span + low
        after = S + best
        port_lvl = after[safe, chains]
        # Every port a unit reads must continue a started chain.
        reads = np.zeros((ntpl, nch), dtype=bool)
        for t, tpl in enumerate(self.templates):
            if isinstance(tpl, Template) and tpl.nports:
                reads[t, tpl.plan(self.lanes, len(self.buffers)).used_ports] = True
        if np.any(reads[self.seq] & ((seg[safe, chains] == 0) | (prev < 0))):
            raise TraceError("a unit reads a chain nothing started")
        return port_rid, port_lvl

    # -- tiling --------------------------------------------------------------
    def _map(self, b: int, units: np.ndarray, addr: np.ndarray, active=None, passes=None):
        """Addresses ``addr`` (one row per op) of slot ``b`` in every instance.

        Instance ``i`` belongs to unit ``units[i]`` after ``passes[i]``
        body passes.  The result holds one row per (op, instance),
        op-major; a dead lane of a masked gather keeps its recorded
        address.
        """
        n = units.shape[0]
        entry = self.maps.get(b)
        if entry is None:
            return np.repeat(addr, n, axis=0)
        delta, table = entry
        d = delta[units]
        if passes is not None and self.strides.get(b):
            d = d + passes * self.strides[b]
        if active is None:
            moved = addr[:, None] + d.reshape((1, n) + (1,) * (addr.ndim - 1))
            if table is not None:
                moved = table[moved].astype(np.int64, copy=False)
            return moved.reshape((-1,) + addr.shape[1:])
        ops, lanes = np.nonzero(active)
        moved = addr[ops, lanes][:, None] + d[None, :]
        out = np.repeat(addr[:, None], n, axis=1)
        out[ops, :, lanes] = moved if table is None else table[moved]
        return out.reshape((-1,) + addr.shape[1:])

    def _after(self, tpl: Loop, units: np.ndarray, passes: np.ndarray) -> tuple:
        """Where the registers, scalars and ops of a loop's piece start in
        ``units``, after its head and ``passes`` body passes."""
        h, b = tpl.head, tpl.body
        return (
            self.reg_base[units] + h.nregs + passes * b.nregs,
            self.sid_base[units] + h.nscalars + passes * b.nscalars,
            self.op_start[units] + h.nops + passes * b.nops,
        )

    def _loop_ports(self, tpl: Loop, passes: np.ndarray, reg0: np.ndarray):
        """(register, level) of every chain entering a body pass or a tail,
        whose first register is ``reg0``, after ``passes`` passes.

        The head's output ``c`` starts chain ``c`` at level ``h``; each pass
        sets it to ``max(L0, level + D)`` from the body's level function,
        so after ``j >= 1`` passes it is ``max(h + j*D, L0 + (j-1)*D)``,
        that is ``j*D + max(h, L0 - D)``.
        """
        lanes, nbuf = self.lanes, len(self.buffers)
        head, body = tpl.head.plan(lanes, nbuf), tpl.body.plan(lanes, nbuf)
        nch = tpl.body.nports
        rid = np.empty((passes.shape[0], nch), dtype=np.int64)
        lvl = np.empty((passes.shape[0], nch), dtype=np.int64)
        unit0 = reg0 - tpl.head.nregs - passes * tpl.body.nregs
        looped = passes > 0
        for c in range(nch):
            h, start = head.out_L0[c], unit0 + tpl.head.outputs[c]
            if c not in tpl.body.outputs:
                rid[:, c], lvl[:, c] = start, h
                continue
            last = reg0 + (tpl.body.outputs[c] - tpl.body.nregs)
            rid[:, c] = np.where(looped, last, start)
            L0, D = body.out_L0[c], body.out_D[c]
            deep = passes * D + max(h, L0 - D) if D > NEG // 2 else L0
            lvl[:, c] = np.where(looped, deep, h)
        return rid, lvl

    @cached_property
    def _placements(self) -> list[_Placement]:
        """Every used template piece with all its instances.

        A plain template is its own piece, one instance per unit.  A
        loop's head and tail have one instance per unit and its body one
        per pass; a head or body that several loops share (they differ
        in their tails) is placed once over all their units.
        """
        ports = self._ports
        order = np.argsort(self.seq, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(self.uses)))
        bases = (self.reg_base, self.sid_base, self.op_start)
        out: list[_Placement] = []
        heads: dict[int, list] = {}
        bodies: dict[int, list] = {}
        for t, tpl in enumerate(self.templates):
            units = order[bounds[t] : bounds[t + 1]]
            if units.size == 0:
                continue
            if isinstance(tpl, Loop):
                heads.setdefault(id(tpl.head), [tpl]).append(units)
                bodies.setdefault(id(tpl.body), [tpl]).append(units)
                n = self.passes[units]
                at = self._after(tpl, units, n)
                reads = self._loop_ports(tpl, n, at[0]) if tpl.tail.nports else None
                out.append(_Placement(tpl.tail, units, n, *at, reads))
            else:
                reads = None
                if tpl.nports and ports is not None:
                    reads = (ports[0][units], ports[1][units])
                out.append(_Placement(tpl, units, None, *(b[units] for b in bases), reads))
        for tpl, *groups in heads.values():
            units = np.concatenate(groups)
            out.append(_Placement(tpl.head, units, None, *(b[units] for b in bases), None))
        for tpl, *groups in bodies.values():
            units = np.concatenate(groups)
            n = self.passes[units]
            each = np.repeat(units, n)
            if each.size:
                passes = np.arange(each.shape[0]) - np.repeat(np.cumsum(n) - n, n)
                at = self._after(tpl, each, passes)
                reads = self._loop_ports(tpl, passes, at[0]) if tpl.body.nports else None
                out.append(_Placement(tpl.body, each, passes, *at, reads))
        return out

    def tile(self) -> dict[tuple, list]:
        """Every template piece's columns instantiated over its instances,
        per step group.

        Each group holds ``(levels, op positions, columns)`` pieces, one per
        template piece that issues it; :meth:`emit` cuts them into steps.
        """
        target = [(s.name, s.dtype) for s in self.buffers]
        for t in self.templates:
            for piece in t.pieces if isinstance(t, Loop) else (t,):
                if [(s.name, s.dtype) for s in piece.buffers] != target or (
                    len(self.seq) > 1 and any(not s.is_named for s in piece.buffers)
                ):
                    raise TraceError("a template's buffers do not match the target's")
        if self._ports is None and any(t.nports for t in self.templates):
            raise TraceError("a template reads ports no unit defines")
        out: dict[tuple, list] = {}
        for pl in self._placements:
            self._instantiate(pl, out)
        return out

    def _instantiate(self, pl: _Placement, out: dict) -> None:
        """``pl.piece``'s columns over its instances, appended to ``out`` by group."""
        tpl = pl.piece
        plan = tpl.plan(self.lanes, len(self.buffers))
        nI = pl.units.size
        for key, (pos, cols) in plan.groups.items():
            level = np.repeat(plan.L0[pos], nI)
            if pl.ports is not None:
                D = plan.D[pos]
                dep = np.flatnonzero((D > NEG // 2).any(axis=1))
                if dep.size:
                    via = (D[dep][:, :, None] + pl.ports[1].T[None, : tpl.nports, :]).max(axis=1)
                    level = level.reshape(pos.size, nI)
                    level[dep] = np.maximum(level[dep], via)
                    level = level.ravel()
            gop = (pos[:, None] + pl.op0[None, :]).ravel()
            out.setdefault(key, []).append((level, gop, self._tile_columns(pl, key, cols)))

    def _tile_columns(self, pl: _Placement, key, cols) -> list:
        """The operand columns of ``pl``'s instances of ops ``cols`` (one
        row per (op, instance), op-major)."""
        tpl, nI = pl.piece, pl.units.size
        fields, lay = OP_FIELDS[key[0]], OP_LAYOUT[key[0]]
        b = key[1] if lay.buf is not None else None

        def each(a: np.ndarray) -> np.ndarray:
            return np.repeat(a, nI, axis=0)

        def regs(ids: np.ndarray) -> np.ndarray:
            own = ids[:, None] + pl.reg0[None, :]
            if pl.ports is None or ids.max(initial=-1) < tpl.nregs:
                return own.ravel()
            via = pl.ports[0][:, np.clip(ids - tpl.nregs, 0, None)].T
            return np.where((ids < tpl.nregs)[:, None], own, via).ravel()

        bits = None if lay.bits is None else cols[lay.bits - 1]
        tiled: list = []
        for f, c in zip(fields, cols):
            if f == RDEF:
                tiled.append(regs(c))
            elif f == SDEF:
                tiled.append((c[:, None] + pl.sid0[None, :]).ravel())
            elif f == ROP:
                k, payload = c
                tiled.append((k, regs(payload) if k == "r" else each(payload)))
            elif f in (SOP, SOPN):
                if c is None:
                    tiled.append(None)
                    continue
                k, payload = c
                if k == "s":
                    tiled.append((k, (payload[:, None] + pl.sid0[None, :]).ravel()))
                else:
                    tiled.append((k, each(payload)))
            elif f == OFF:
                entry = self.maps.get(b)
                if lay.extent and entry is not None and entry[1] is not None:
                    raise TraceError("a vector access cannot be looked up lane by lane")
                tiled.append(self._map(b, pl.units, c, passes=pl.passes))
            elif f == IDX:
                tiled.append(self._map(b, pl.units, c, bits, pl.passes))
            elif f in (BITS, INT):
                tiled.append(each(c))
            else:
                tiled.append(None)
        return tiled

    # -- the op list ---------------------------------------------------------
    def ops(self) -> list[tuple]:
        """The tiled op list — a full recording's, op for op."""
        out: list = [None] * self.nops
        for pl in self._placements:
            n = pl.piece.nregs
            for i, u in enumerate(pl.units.tolist()):
                rb, sb, ob = int(pl.reg0[i]), int(pl.sid0[i]), int(pl.op0[i])
                prow = pl.ports[0][i].tolist() if pl.ports is not None else []
                p = None if pl.passes is None else pl.passes[i : i + 1]

                def reg(r: int, rb: int = rb, n: int = n, prow: list = prow) -> int:
                    return r + rb if r < n else prow[r - n]

                def sid(s: int, sb: int = sb) -> int:
                    return s + sb

                for k, op in enumerate(pl.piece.ops):
                    out[ob + k] = self._readdress(_remap(op, reg, sid), u, p)
        return out

    def _readdress(self, op: tuple, u: int, passes) -> tuple:
        lay = OP_LAYOUT[op[0]]
        if lay.buf is None or op[lay.buf] not in self.maps:
            return op
        b = op[lay.buf]
        units = np.array([u])
        bits = None if lay.bits is None else op[lay.bits]
        out = list(op)
        for j, f in enumerate(OP_FIELDS[op[0]], start=1):
            if f == OFF:
                out[j] = int(self._map(b, units, np.array([op[j]]), passes=passes)[0])
            elif f == IDX:
                active = None if bits is None else np.asarray(bits)[None, :]
                out[j] = self._map(b, units, np.asarray(op[j])[None, :], active, passes)[0]
        return tuple(out)

    def side_ops(self, attr: str) -> set[int]:
        """Op indices in a template side table (``aligned_ops``/``emulated_ops``)."""
        out: set[int] = set()
        for pl in self._placements:
            marks = np.asarray(sorted(getattr(pl.piece, attr)), dtype=np.int64)
            if marks.size:
                out.update((pl.op0[:, None] + marks[None, :]).ravel().tolist())
        return out

    def compile(self) -> KernelTrace:
        """The level-scheduled program (tile, then emit the steps)."""
        return self.emit(self.tile())

    def emit(self, parts: dict[tuple, list]) -> KernelTrace:
        """The batched steps of tiled columns: groups by level, then first op."""
        groups = []
        for key, pieces in parts.items():
            if len(pieces) == 1:
                level, gop, cols = pieces[0]
            else:
                level = np.concatenate([p[0] for p in pieces])
                gop = np.concatenate([p[1] for p in pieces])
                cols = [
                    _concat([p[2][j] for p in pieces]) for j in range(len(pieces[0][2]))
                ]
            order = np.lexsort((gop, level))
            level, gop = level[order], gop[order]
            cols = [_take(c, order) for c in cols]
            cuts = np.flatnonzero(level[1:] != level[:-1]) + 1
            starts = [0, *cuts.tolist()]
            ends = [*cuts.tolist(), level.shape[0]]
            for s, e in zip(starts, ends):
                groups.append((int(level[s]), int(gop[s]), key, cols, s, e))
        groups.sort(key=lambda g: (g[0], g[1]))
        return KernelTrace(
            lanes=self.lanes,
            nregs=self.nregs,
            nscalars=self.nscalars,
            steps=[_step(key, cols, s, e) for _, _, key, cols, s, e in groups],
            buffers=self.buffers,
            counters=self.counters,
            nops=self.nops,
        )


def _concat(cols: list):
    first = cols[0]
    if first is None:
        return None
    if isinstance(first, tuple):
        return (first[0], np.concatenate([c[1] for c in cols]))
    return np.concatenate(cols)


def _take(col, order: np.ndarray):
    if col is None:
        return None
    if isinstance(col, tuple):
        return (col[0], col[1][order])
    return col[order]


def _cut(col, s: int, e: int):
    if col is None:
        return None
    if isinstance(col, tuple):
        return (col[0], col[1][s:e])
    return col[s:e]


def _step(key: tuple, cols: list, s: int, e: int) -> tuple:
    """One batched step: each field's column at its :data:`STEP_INDEX`
    slot; the buffer and ``reduce_sel``'s lane groups come from the
    group key."""
    kind = key[0]
    step: list = [kind] + [None] * len(cols)
    for f, c, at in zip(OP_FIELDS[kind], cols, STEP_INDEX[kind]):
        step[at] = key[1] if f == BUF else key[-1] if f == SEL else _cut(c, s, e)
    return tuple(step)
