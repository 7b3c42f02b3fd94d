"""Canonical decoding of the recorded trace IR.

One linear trace — the ``ops`` list a :class:`~repro.simd.trace.TraceRecorder`
captures — is consumed by three clients: the replay compiler
(:mod:`repro.simd.replay`) level-schedules it into batched NumPy steps, the
static analyzer (:mod:`repro.analysis`) lints it, and tests poke at it
directly.  Before this module each client re-derived the same facts (which
buffer cells an op touches, which registers it reads and defines) with its
own inline arithmetic; a drift between those copies would make the analyzer
certify a trace the replayer executes differently.  This module is the one
canonical decoding path:

* :func:`flat_view` / :func:`mask_bits` — the buffer-flattening and
  mask-freezing helpers shared by recording and replay binding;
* :func:`op_reads` / :func:`op_writes` — the exact buffer cells an op
  loads from or stores to, as the replay hazard levelling sees them;
* :func:`op_reg_defs` / :func:`op_reg_uses` / :func:`op_scalar_defs` /
  :func:`op_scalar_uses` — the register/scalar dataflow of one op.

The op tuples themselves are documented in :mod:`repro.simd.trace`; the
operand encodings are ``("r", rid)`` / ``("k", ndarray)`` for registers and
``("s", sid)`` / ``("l", float)`` for scalars.
"""

from __future__ import annotations

import numpy as np

#: Op kinds that read memory, and the operand slot holding the buffer index.
READ_KINDS = ("vload", "vload_prefix", "gather", "gather_mask", "sload")

#: Op kinds that write memory.
WRITE_KINDS = ("vstore", "vstore_mask", "sstore")

#: Op kinds carrying a mask-bit array (AVX-512 predication).
MASKED_KINDS = ("vstore_mask", "gather_mask", "fmadd_mask", "blend")


class TraceDecodeError(ValueError):
    """An op tuple the decoder does not recognize."""


def flat_view(buf: np.ndarray, name: str) -> np.ndarray:
    """The 1-D view a buffer is addressed through, never a copy.

    Replays address buffers as dense flat arrays, so only C-contiguous
    storage is bindable — a strided slice would replay against the wrong
    cells even when NumPy can express its flattening as a view.
    """
    from .trace import TraceError

    if not buf.flags["C_CONTIGUOUS"]:
        raise TraceError(
            f"buffer {name!r} is not C-contiguous; bind its flat view instead"
        )
    return buf if buf.ndim == 1 else buf.reshape(-1)


def mask_bits(mask) -> np.ndarray:
    """A mask's frozen lane predicate (structure-derived).

    :class:`~repro.simd.register.MaskRegister` bits are a private
    read-only copy, so ops can share them.
    """
    return mask.bits


# ---------------------------------------------------------------------------
# memory effects: which cells of which buffer an op touches
# ---------------------------------------------------------------------------


def op_reads(op: tuple, lanes: int) -> list[tuple[int, np.ndarray]]:
    """``[(buffer_index, cells), ...]`` the op loads from.

    ``cells`` are flat element offsets, exactly the cells the replay
    compiler's read-after-write hazard levelling accounts for.
    """
    kind = op[0]
    if kind == "vload":
        _, _dst, b, off = op
        return [(b, np.arange(off, off + lanes))]
    if kind == "vload_prefix":
        _, _dst, b, off, active = op
        return [(b, np.arange(off, off + active))]
    if kind == "gather":
        _, _dst, b, idx = op
        return [(b, np.asarray(idx))]
    if kind == "gather_mask":
        _, _dst, b, idx, bits = op
        return [(b, np.asarray(idx)[np.asarray(bits, dtype=bool)])]
    if kind == "sload":
        _, _dst, b, off = op
        return [(b, np.array([off]))]
    return []


def op_writes(op: tuple, lanes: int) -> list[tuple[int, np.ndarray]]:
    """``[(buffer_index, cells), ...]`` the op stores to."""
    kind = op[0]
    if kind == "vstore":
        _, b, off, _src = op
        return [(b, np.arange(off, off + lanes))]
    if kind == "vstore_mask":
        _, b, off, _src, bits = op
        return [(b, off + np.nonzero(np.asarray(bits, dtype=bool))[0])]
    if kind == "sstore":
        _, b, off, _val = op
        return [(b, np.array([off]))]
    return []


# ---------------------------------------------------------------------------
# register / scalar dataflow
# ---------------------------------------------------------------------------

#: kind -> index of the defined register id in the op tuple.
_REG_DEF_SLOT = {
    "setzero": 1, "set1": 1, "vload": 1, "vload_prefix": 1,
    "gather": 1, "gather_mask": 1, "fmadd": 1, "fmadd_mask": 1,
    "mul": 1, "add": 1, "blend": 1,
}

#: kind -> index of the defined scalar slot in the op tuple.
_SCALAR_DEF_SLOT = {
    "reduce": 1, "reduce_sel": 1, "extract": 1, "sload": 1, "sfma": 1,
}

#: kind -> tuple indices holding register operands (("r", rid) or ("k", data)).
_REG_USE_SLOTS = {
    "fmadd": (2, 3, 4), "fmadd_mask": (2, 3, 4), "mul": (2, 3),
    "add": (2, 3), "reduce": (2,), "reduce_sel": (2,), "extract": (2,),
    "blend": (2,), "vstore": (3,), "vstore_mask": (3,),
}

#: kind -> tuple indices holding scalar operands (("s", sid) or ("l", value)).
_SCALAR_USE_SLOTS = {
    "set1": (2,), "sstore": (3,), "sfma": (2, 3, 4), "reduce": (3,),
}

#: Every op kind the recorder can emit (for validation).
ALL_KINDS = frozenset(_REG_DEF_SLOT) | frozenset(_SCALAR_DEF_SLOT) | {
    "vstore", "vstore_mask", "sstore",
}


#: Field types of an op tuple's operands (``op[1:]``), by kind: the one
#: table the tiler (:mod:`repro.simd.tiling`) renumbers and re-addresses
#: ops through, and that orders a compiled step's columns.
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


def op_reg_defs(op: tuple) -> tuple[int, ...]:
    """Register ids this op defines (SSA: at most one)."""
    slot = _REG_DEF_SLOT.get(op[0])
    return () if slot is None else (op[slot],)


def op_scalar_defs(op: tuple) -> tuple[int, ...]:
    """Scalar slot ids this op defines (at most one)."""
    slot = _SCALAR_DEF_SLOT.get(op[0])
    return () if slot is None else (op[slot],)


def op_reg_uses(op: tuple) -> tuple[int, ...]:
    """Register ids this op reads (constant operands excluded)."""
    uses = []
    for slot in _REG_USE_SLOTS.get(op[0], ()):
        operand = op[slot]
        if operand is not None and operand[0] == "r":
            uses.append(operand[1])
    return tuple(uses)


def op_scalar_uses(op: tuple) -> tuple[int, ...]:
    """Scalar slot ids this op reads (literal operands excluded)."""
    uses = []
    for slot in _SCALAR_USE_SLOTS.get(op[0], ()):
        operand = op[slot]
        if operand is not None and operand[0] == "s":
            uses.append(operand[1])
    return tuple(uses)


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


def op_mask(op: tuple) -> np.ndarray | None:
    """The mask-bit array an op carries, if any."""
    if op[0] in MASKED_KINDS:
        return np.asarray(op[-1], dtype=bool)
    return None
