"""Tiling: compile a whole-matrix program from one template per unit shape.

A SpMV kernel issues one instruction stream per row (CSR), slice (SELL)
or block (β), and that stream depends only on the unit's *shape*: its
length, width or mask word.  So the program of a whole matrix is a tiling
of a few templates, each recorded once on an exemplar.  A :class:`Tiling`
holds

* the **templates** — the recorded ops of each distinct unit shape, with
  registers and scalars numbered locally (:class:`Template`);
* the **unit sequence** — which template every unit of the matrix
  instantiates, in the kernel's op order;
* the **address maps** — per buffer, how a template's recorded address
  becomes the unit's: a shift (``val``/``y`` offsets, β anchors) or a
  lookup through a structure array of the target (gather columns through
  ``colidx``, sorted rows through ``perm``).  Exemplars carry
  position-valued ``colidx``, so each recorded gather index names the
  source position it came from.

:meth:`Tiling.tile` instantiates every template over its units with NumPy
address arithmetic — registers and scalars renumbered by running sums,
addresses shifted or looked up, β accumulators chained through *ports*
(registers a template reads but an earlier unit defines) — and
:meth:`Tiling.emit` cuts the columns into the level-scheduled steps of
:mod:`repro.simd.replay` directly: a unit's levels are its template's
levels offset by the depth of the chains it continues, so the schedule
costs one pass per template, not per op.  The op list (:meth:`Tiling.ops`)
and the steps are exactly those of a full recording of the same matrix.

A full recording is itself a one-unit tiling (:meth:`Tiling.whole`), and
:func:`~repro.simd.replay.compile_trace` compiles it through the same
code — there is one scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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


class _Plan:
    """A template's ops as columns per step group, with level functions.

    Every op's level is ``max(L0, max_p(port_p + D[p]))`` — the scheduler
    only takes maxima and adds one, so its levels are max-plus affine in
    the port levels.  The coefficients are solved by scheduling the
    template once with every port at ``NEG`` (giving ``L0``) and once per
    port with that port at a probe height (giving ``D``).
    """

    def __init__(self, tpl: Template, lanes: int, nbuf: int):
        levels, reg_levels = op_levels(
            tpl.ops, lanes, nbuf, tpl.nregs, tpl.nscalars, [NEG] * tpl.nports
        )
        L0 = np.asarray(levels, dtype=np.int64)
        rL0 = np.asarray(reg_levels[: tpl.nregs], dtype=np.int64)
        self.L0 = np.where(L0 > NEG // 2, L0, NEG)
        self.D = np.full((len(tpl.ops), tpl.nports), NEG, dtype=np.int64)
        rD = np.full((tpl.nregs, tpl.nports), NEG, dtype=np.int64)
        for p in range(tpl.nports):
            probe = [0] * tpl.nports
            probe[p] = _HIGH
            lv, rl = op_levels(tpl.ops, lanes, nbuf, tpl.nregs, tpl.nscalars, probe)
            lv = np.asarray(lv, dtype=np.int64)
            rl = np.asarray(rl[: tpl.nregs], dtype=np.int64)
            self.D[:, p] = np.where(lv >= _HIGH // 2, lv - _HIGH, NEG)
            rD[:, p] = np.where(rl >= _HIGH // 2, rl - _HIGH, NEG)
        # Chain outputs: the new value of chain c may depend on port c only.
        self.out_L0: dict[int, int] = {}
        self.out_D: dict[int, int] = {}
        for c, rid in tpl.outputs.items():
            others = np.delete(rD[rid], c) if c < tpl.nports else rD[rid]
            if np.any(others > NEG // 2):
                raise TraceError("a chain output depends on another chain")
            self.out_L0[c] = int(np.where(rL0[rid] > NEG // 2, rL0[rid], NEG))
            self.out_D[c] = int(rD[rid, c]) if c < tpl.nports else NEG
        self.used_ports = np.flatnonzero((self.D > NEG // 2).any(axis=0))
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
class Tiling:
    """A matrix's program as templates tiled over its units.

    ``seq[u]`` is the template of unit ``u`` (units in kernel order);
    ``maps[b] = (delta, table)`` re-addresses buffer slot ``b`` for each
    unit: a recorded address ``a`` becomes ``a + delta[u]``, or
    ``table[a + delta[u]]`` when a lookup table is given.  ``frame``
    holds whole-matrix counters no unit owns.
    """

    templates: list[Template]
    seq: np.ndarray
    lanes: int
    buffers: list[BufferSlot]
    maps: dict[int, tuple[np.ndarray, np.ndarray | None]] = field(default_factory=dict)
    frame: KernelCounters | None = None

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
    def _bases(self, attr: str) -> np.ndarray:
        sizes = np.asarray([getattr(t, attr) for t in self.templates], dtype=np.int64)
        per_unit = sizes[self.seq]
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
        """The frame's counters plus every template's, once per use."""
        total = self.frame.copy() if self.frame is not None else KernelCounters()
        for t, n in zip(self.templates, self.uses.tolist()):
            total += t.counters.scaled(n)
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
        for t, tpl in enumerate(self.templates):
            used = tpl.plan(self.lanes, len(self.buffers)).used_ports
            if used.size:
                units = np.flatnonzero(self.seq == t)
                if np.any(seg[safe[units][:, used], used] == 0) or np.any(
                    prev[units][:, used] < 0
                ):
                    raise TraceError("a unit reads a chain nothing started")
        return port_rid, port_lvl

    # -- tiling --------------------------------------------------------------
    def _map(self, b: int, units: np.ndarray, addr: np.ndarray, active=None):
        """Addresses ``addr`` (one row per op, one column per unit) of slot ``b``."""
        entry = self.maps.get(b)
        if entry is None:
            return addr
        delta, table = entry
        d = delta[units]
        shape = (1, -1) + (1,) * (addr.ndim - 2)
        moved = addr + d.reshape(shape)
        if active is not None:
            moved = np.where(active, moved, addr)
        if table is None:
            return moved
        looked = table[np.where(active, moved, 0) if active is not None else moved]
        looked = looked.astype(np.int64, copy=False)
        return np.where(active, looked, addr) if active is not None else looked

    def tile(self) -> dict[tuple, list]:
        """Every template's columns instantiated over its units, per step group.

        Each group holds ``(levels, op positions, columns)`` pieces, one per
        template that issues it; :meth:`emit` cuts them into steps.
        """
        lanes, nbuf = self.lanes, len(self.buffers)
        for t in self.templates:
            if [(s.name, s.dtype) for s in t.buffers] != [
                (s.name, s.dtype) for s in self.buffers
            ] or (len(self.seq) > 1 and any(not s.is_named for s in t.buffers)):
                raise TraceError("a template's buffers do not match the target's")
        ports = self._ports
        if ports is None and any(t.nports for t in self.templates):
            raise TraceError("a template reads ports no unit defines")
        order = np.argsort(self.seq, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(self.uses)))
        out: dict[tuple, list] = {}
        for t, tpl in enumerate(self.templates):
            units = order[bounds[t] : bounds[t + 1]]
            if units.size == 0:
                continue
            plan = tpl.plan(lanes, nbuf)
            nI = units.size
            for key, (pos, cols) in plan.groups.items():
                level = np.broadcast_to(plan.L0[pos][:, None], (pos.size, nI))
                if tpl.nports and ports is not None:
                    plv = ports[1][units].T  # (chains, units)
                    D = plan.D[pos][:, :, None]
                    via = (D + plv[None, : tpl.nports, :]).max(axis=1)
                    level = np.maximum(level, via)
                gop = self.op_start[units][None, :] + pos[:, None]
                tiled = self._tile_columns(tpl, key, cols, units, ports)
                out.setdefault(key, []).append((level.ravel(), gop.ravel(), tiled))
        return out

    def _tile_columns(self, tpl: Template, key, cols, units, ports) -> list:
        nI = units.size
        fields, lay = OP_FIELDS[key[0]], OP_LAYOUT[key[0]]
        b = key[1] if lay.buf is not None else None

        def spread(a: np.ndarray) -> np.ndarray:
            if nI == 1:
                return a[:, None]
            return np.broadcast_to(a[:, None], (a.shape[0], nI) + a.shape[1:])

        def flat(a: np.ndarray) -> np.ndarray:
            return a.reshape((-1,) + a.shape[2:])

        def regs(ids: np.ndarray) -> np.ndarray:
            own = ids[:, None] + self.reg_base[units][None, :]
            if ports is None or np.all(ids < tpl.nregs):
                return own
            port = np.clip(ids - tpl.nregs, 0, None)
            via = ports[0][units][:, port].T
            return np.where((ids < tpl.nregs)[:, None], own, via)

        bits = None if lay.bits is None else cols[lay.bits - 1]
        tiled: list = []
        for f, c in zip(fields, cols):
            if f == RDEF:
                tiled.append(flat(regs(c)))
            elif f == SDEF:
                tiled.append(flat(c[:, None] + self.sid_base[units][None, :]))
            elif f == ROP:
                k, payload = c
                tiled.append((k, flat(regs(payload) if k == "r" else spread(payload))))
            elif f in (SOP, SOPN):
                if c is None:
                    tiled.append(None)
                    continue
                k, payload = c
                if k == "s":
                    payload = payload[:, None] + self.sid_base[units][None, :]
                    tiled.append((k, flat(payload)))
                else:
                    tiled.append((k, flat(spread(payload))))
            elif f == OFF:
                entry = self.maps.get(b)
                if lay.extent and entry is not None and entry[1] is not None:
                    raise TraceError("a vector access cannot be looked up lane by lane")
                tiled.append(flat(self._map(b, units, spread(c))))
            elif f == IDX:
                active = None if bits is None else spread(bits)
                tiled.append(flat(self._map(b, units, spread(c), active)))
            elif f in (BITS, INT):
                tiled.append(flat(spread(c)))
            else:
                tiled.append(None)
        return tiled

    # -- the op list ---------------------------------------------------------
    def ops(self) -> list[tuple]:
        """The tiled op list — a full recording's, op for op."""
        ports = self._ports
        out: list[tuple] = []
        for u, t in enumerate(self.seq.tolist()):
            tpl = self.templates[t]
            rb, sb, n = int(self.reg_base[u]), int(self.sid_base[u]), tpl.nregs
            prow = ports[0][u].tolist() if ports is not None else []

            def reg(r: int, rb: int = rb, n: int = n, prow: list = prow) -> int:
                return r + rb if r < n else prow[r - n]

            def sid(s: int, sb: int = sb) -> int:
                return s + sb

            for op in tpl.ops:
                out.append(self._readdress(_remap(op, reg, sid), u))
        return out

    def _readdress(self, op: tuple, u: int) -> tuple:
        lay = OP_LAYOUT[op[0]]
        if lay.buf is None or op[lay.buf] not in self.maps:
            return op
        b = op[lay.buf]
        units = np.array([u])
        bits = None if lay.bits is None else op[lay.bits]
        out = list(op)
        for j, f in enumerate(OP_FIELDS[op[0]], start=1):
            if f == OFF:
                out[j] = int(self._map(b, units, np.array([[op[j]]]))[0, 0])
            elif f == IDX:
                active = None if bits is None else np.asarray(bits)[None, None, :]
                out[j] = self._map(b, units, np.asarray(op[j])[None, None, :], active)[0, 0]
        return tuple(out)

    def side_ops(self, attr: str) -> set[int]:
        """Op indices in a template side table (``aligned_ops``/``emulated_ops``)."""
        out: set[int] = set()
        for t, tpl in enumerate(self.templates):
            marks = np.asarray(sorted(getattr(tpl, attr)), dtype=np.int64)
            if marks.size and self.uses[t]:
                starts = self.op_start[:-1][self.seq == t]
                out.update((starts[:, None] + marks[None, :]).ravel().tolist())
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
