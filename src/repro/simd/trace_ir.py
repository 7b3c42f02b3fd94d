"""Canonical decoding of the recorded trace IR.

One linear trace — the ``ops`` list a :class:`~repro.simd.trace.TraceRecorder`
captures — has five clients: the tiler (:mod:`repro.simd.tiling`)
renumbers, re-addresses and level-schedules it into batched steps;
replay (:mod:`repro.simd.replay`) executes those steps; the megakernel
fuser (:mod:`repro.simd.megakernel`) mines them for FMA chains; the
trace linter (:mod:`repro.analysis.trace_lint`) and the rounding
certifier (:mod:`repro.analysis.numlint`) check the ops.  Each of them
decodes an op or a step through this module, so the analyzer reads the
same dataflow that replay executes.

:data:`OP_FIELDS` is the one statement of the op layout: the field type
of every operand, by kind.  Everything else is derived from it:

* :data:`READ_KINDS` / :data:`WRITE_KINDS` / :data:`MASKED_KINDS` — the
  kinds with a buffer and a defined value, a buffer and none, a mask;
* :data:`OP_LAYOUT` / :data:`STEP_LAYOUT` — per kind, the :class:`Layout`
  of an op tuple and of a compiled step (the op's fields as columns,
  with the buffer hoisted to position 1);
* :data:`STEP_INDEX` — per kind, where each field sits in a compiled
  step, the one statement of the step column order;
* :func:`reg_defs` / :func:`reg_uses` / :func:`scalar_defs` /
  :func:`scalar_uses` — the register and scalar dataflow of one op or
  one step, read through its layout;
* :func:`lane_addresses` — the one addressing rule: the cell every lane
  of a buffer access addresses (a dead lane its safe base) and which
  lanes are live; :func:`cells_of` keeps the live ones, and
  :func:`op_reads` / :func:`op_writes` list one op's cells.

The op tuples themselves are documented in :mod:`repro.simd.trace`; the
operand encodings are ``("r", rid)`` / ``("k", ndarray)`` for registers and
``("s", sid)`` / ``("l", float)`` for scalars.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

import numpy as np


class TraceError(RuntimeError):
    """A kernel action the trace layer cannot represent."""


def flat_view(buf: np.ndarray, name: str) -> np.ndarray:
    """The 1-D view a buffer is addressed through, never a copy.

    Replays address buffers as dense flat arrays, so only C-contiguous
    storage is bindable — a strided slice would replay against the wrong
    cells even when NumPy can express its flattening as a view.
    """
    if not buf.flags["C_CONTIGUOUS"]:
        raise TraceError(
            f"buffer {name!r} is not C-contiguous; bind its flat view instead"
        )
    return buf if buf.ndim == 1 else buf.reshape(-1)


#: Field types of an op tuple's operands (``op[1:]``), by kind: a defined
#: register or scalar, a register operand, a scalar operand (``SOPN``: or
#: ``None``), a buffer slot, an offset, an index vector, a mask-bit array,
#: an integer (a load's live-lane count, ``extract``'s lane) and
#: ``reduce_sel``'s lane groups.
RDEF, SDEF, ROP, SOP, SOPN, BUF, OFF, IDX, BITS, INT, SEL = (
    "rdef", "sdef", "rop", "sop", "sop?", "buf", "off", "idx", "bits",
    "int", "sel",
)
OP_FIELDS: dict[str, tuple[str, ...]] = {
    "setzero": (RDEF,),
    "set1": (RDEF, SOP),
    "vload": (RDEF, BUF, OFF),
    "vload_prefix": (RDEF, BUF, OFF, INT),
    "gather": (RDEF, BUF, IDX),
    "gather_mask": (RDEF, BUF, IDX, BITS),
    "vstore": (BUF, OFF, ROP),
    "vstore_mask": (BUF, OFF, ROP, BITS),
    "fmadd": (RDEF, ROP, ROP, ROP),
    "fmadd_mask": (RDEF, ROP, ROP, ROP, BITS),
    "mul": (RDEF, ROP, ROP),
    "add": (RDEF, ROP, ROP),
    "reduce": (SDEF, ROP, SOPN),
    "reduce_sel": (SDEF, ROP, SEL),
    "extract": (SDEF, ROP, INT),
    "blend": (RDEF, ROP, BITS),
    "sload": (SDEF, BUF, OFF),
    "sstore": (BUF, OFF, SOP),
    "sfma": (SDEF, SOP, SOP, SOP),
}

#: Op kinds that load memory (a buffer and a defined value).
READ_KINDS = frozenset(
    k for k, f in OP_FIELDS.items() if BUF in f and (RDEF in f or SDEF in f)
)
#: Op kinds that store to memory (a buffer and no defined value).
WRITE_KINDS = frozenset(k for k, f in OP_FIELDS.items() if BUF in f) - READ_KINDS
#: Op kinds carrying a mask-bit array (AVX-512 predication).
MASKED_KINDS = frozenset(k for k, f in OP_FIELDS.items() if BITS in f)


class Layout(NamedTuple):
    """Where one kind keeps each role, as indices into an op or a step."""

    rdef: tuple[int, ...]  #: the defined register id (SSA: at most one)
    sdef: tuple[int, ...]  #: the defined scalar slot
    ruse: tuple[int, ...]  #: register operands, ``("r", id)`` or ``("k", data)``
    suse: tuple[int, ...]  #: scalar operands, ``("s", id)``, ``("l", value)`` or None
    buf: int | None  #: the buffer slot index
    store: bool  #: the buffer access writes (no defined value)
    off: int | None  #: the offset of a contiguous access
    idx: int | None  #: the index vector of a gather
    count: int | None  #: the live-lane count of a prefix access
    bits: int | None  #: the mask-bit array
    extent: bool  #: the offset addresses a run of lanes, not one cell
    #: What splits one scheduler level into steps, in field order:
    #: ``(index, True)`` keys on the value (buffer, lane groups),
    #: ``(index, False)`` on the operand kind.
    group: tuple[tuple[int, bool], ...]


def _layout(fields: tuple[str, ...], at: Sequence[int]) -> Layout:
    """The layout of ``fields`` when field ``i`` sits at index ``at[i]``."""

    def where(*types: str) -> tuple[int, ...]:
        return tuple(at[i] for i, f in enumerate(fields) if f in types)

    def one(t: str) -> int | None:
        return next(iter(where(t)), None)

    memory = BUF in fields
    defines = RDEF in fields or SDEF in fields
    return Layout(
        rdef=where(RDEF),
        sdef=where(SDEF),
        ruse=where(ROP),
        suse=where(SOP, SOPN),
        buf=one(BUF),
        store=memory and not defines,
        off=one(OFF),
        idx=one(IDX),
        count=one(INT) if memory else None,
        bits=one(BITS),
        extent=OFF in fields and (RDEF in fields or ROP in fields),
        group=tuple(
            (at[i], f in (BUF, SEL))
            for i, f in enumerate(fields)
            if f in (BUF, SEL, ROP, SOP, SOPN)
        ),
    )


def _step_index(fields: tuple[str, ...]) -> list[int]:
    """Each field's index in a compiled step: the kind, the buffer at 1,
    then the other fields in op order."""
    rest = iter(range(1 + (BUF in fields), 1 + len(fields)))
    return [1 if f == BUF else next(rest) for f in fields]


#: Per kind, the :class:`Layout` of an op tuple (field ``i`` at ``i + 1``).
OP_LAYOUT: dict[str, Layout] = {
    k: _layout(f, range(1, len(f) + 1)) for k, f in OP_FIELDS.items()
}
#: Per kind, the index of each field (in op order) in a compiled step.
STEP_INDEX: dict[str, list[int]] = {k: _step_index(f) for k, f in OP_FIELDS.items()}
#: Per kind, the :class:`Layout` of a compiled step.
STEP_LAYOUT: dict[str, Layout] = {
    k: _layout(f, STEP_INDEX[k]) for k, f in OP_FIELDS.items()
}


def layout_of(kind: str) -> Layout:
    """``OP_LAYOUT[kind]``; an unknown kind raises :class:`TraceError`."""
    try:
        return OP_LAYOUT[kind]
    except KeyError:
        raise TraceError(f"unknown trace op {kind!r}") from None


# ---------------------------------------------------------------------------
# decoding one op or one step through its layout
# ---------------------------------------------------------------------------
#
# An op holds one unit's values: ids, an offset, one index vector.  A
# compiled step holds the same fields as columns with one row per op, so
# the decoders below return id arrays for a step and cells in op order.


def reg_defs(row: Sequence, lay: Layout) -> list[Any]:
    """The register ids ``row`` defines."""
    return [row[i] for i in lay.rdef]


def scalar_defs(row: Sequence, lay: Layout) -> list[Any]:
    """The scalar slots ``row`` defines."""
    return [row[i] for i in lay.sdef]


def reg_uses(row: Sequence, lay: Layout) -> list[Any]:
    """The register ids ``row`` reads (constant operands excluded)."""
    return [row[i][1] for i in lay.ruse if row[i][0] == "r"]


def scalar_uses(row: Sequence, lay: Layout) -> list[Any]:
    """The scalar slots ``row`` reads (literal and absent operands excluded)."""
    return [row[i][1] for i in lay.suse if row[i] is not None and row[i][0] == "s"]


def lane_addresses(
    row: Sequence, lay: Layout, lane_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(addr, live)``: the cell of buffer ``row[lay.buf]`` each lane addresses.

    A vector access addresses ``lane_idx`` from its offset, a gather its
    index vector, a scalar access its offset (one lane).  ``live`` is
    ``None`` when every lane is live, else the boolean live prefix (from
    the live-lane count) or mask; a dead lane addresses the access's
    base — its offset, or cell 0 for a gather — so ``addr`` is always a
    safe index.  ``row`` is one op (addresses per lane) or one compiled
    step (one row of addresses per op).
    """
    base: Any = 0  # a gather's dead lanes read cell 0
    if lay.idx is not None:
        addr = np.asarray(row[lay.idx])
    else:
        base = np.asarray(row[lay.off])[..., None]
        addr = base + lane_idx if lay.extent else base
    if lay.count is not None:
        live = lane_idx < np.asarray(row[lay.count])[..., None]
    elif lay.bits is not None:
        live = np.asarray(row[lay.bits], dtype=bool)
    else:
        return addr, None
    return np.where(live, addr, base), live


def cells_of(row: Sequence, lay: Layout, lane_idx: np.ndarray) -> np.ndarray:
    """The flat cells of buffer ``row[lay.buf]`` that ``row`` touches: the
    live lanes' :func:`lane_addresses`; a kind without a buffer none."""
    if lay.buf is None:
        return np.zeros(0, dtype=np.int64)
    addr, live = lane_addresses(row, lay, lane_idx)
    return addr.ravel() if live is None else addr[live]


def op_reads(op: tuple, lanes: int) -> list[tuple[int, np.ndarray]]:
    """``[(buffer_index, cells), ...]`` the op loads from.

    ``cells`` are flat element offsets, exactly the cells the tiler's
    read-after-write hazard levelling accounts for.
    """
    lay = layout_of(op[0])
    if lay.buf is None or lay.store:
        return []
    return [(op[lay.buf], cells_of(op, lay, np.arange(lanes)))]


def op_writes(op: tuple, lanes: int) -> list[tuple[int, np.ndarray]]:
    """``[(buffer_index, cells), ...]`` the op stores to."""
    lay = layout_of(op[0])
    if lay.buf is None or not lay.store:
        return []
    return [(op[lay.buf], cells_of(op, lay, np.arange(lanes)))]


# ---------------------------------------------------------------------------
# reduction shape (consumed by repro.analysis.numlint)
# ---------------------------------------------------------------------------


def op_fold_order(op: tuple, lanes: int) -> tuple[tuple[int, ...], ...] | None:
    """The lane groups a reduction folds, in fold order, or ``None``.

    Each inner tuple is one group summed by a single NumPy reduction; the
    group partial sums are then added left to right.  ``reduce`` folds all
    lanes as one group and ``reduce_sel`` replays its recorded group
    order.  The shape is structure-derived, so it is identical for every
    replay of the trace — the property that lets one certificate cover all
    compiler tiers.
    """
    kind = op[0]
    if kind == "reduce":
        return (tuple(range(lanes)),)
    if kind == "reduce_sel":
        return tuple(tuple(g) for g in op[3])
    return None
