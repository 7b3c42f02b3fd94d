"""Record/replay wiring: per-format buffer maps and variant-level helpers.

The trace layer (:mod:`repro.simd.trace` / :mod:`repro.simd.replay`)
identifies the arrays a kernel touches by *name* so a recorded trace can be
re-bound to fresh data.  Which arrays those are is a property of the
matrix *format*, so this module keeps a registry parallel to the format
converter table: :func:`register_trace_buffers` maps a format name to a
function returning the format's value-carrying float buffers.  Only float
buffers appear — column indices, slice pointers, row lengths and mask bits
are structure-derived and get baked into the trace by value.

:func:`register_trace_units` is the second table, keyed by format *and*
kernel: a *unit decomposition* cuts a prepared matrix into rows (CSR),
strips or slices (SELL) or block-band pieces (β) whose instruction
streams, under the kernels it is registered for, depend only on a key.
A vector kernel's row or strip is a loop — a head, one body per full
vector or column, a tail — keyed by what its tail reads (the remainder
modulo the lanes; the live rows and prefetch guard), not by its length.
:func:`record_trace` records one exemplar per key and one per body,
cuts the pieces from them and tiles them over the matrix
(:mod:`repro.simd.tiling`) — the op list and compiled steps of a full
recording, at the cost of a few short ones.
:func:`replay_trace` executes a compiled trace against a same-structure
matrix and a new input vector.  :func:`acquire_trace` is the trace-cache
fill: tile, fuse, replay — one
:class:`~repro.simd.megakernel.MegakernelTrace` per structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..mat.aij import AijMat
from ..mat.base import Mat
from ..memory.spaces import aligned_alloc
from ..obs.observer import obs_counter, obs_event
from ..simd import megakernel
from ..simd.counters import KernelCounters
from ..simd.isa import Isa
from ..simd.replay import KernelTrace
from ..simd.tiling import Loop, Template, Tiling
from ..simd.trace import BufferSlot, TraceError, TraceRecorder
from ..simd.trace_ir import OP_LAYOUT
from .beta import BetaMat
from .kernels_beta import spmv_beta
from .kernels_csr import spmv_csr_compiler, spmv_csr_scalar, spmv_csr_vectorized
from .kernels_mkl import spmv_csr_mkl
from .kernels_sell import spmv_sell
from .kernels_sve import spmv_sell_sve
from .sell import SellMat

#: format name -> fn(mat) returning the format's named value buffers.
TRACE_BUFFERS: dict[str, Callable[[Mat], dict[str, np.ndarray]]] = {}


def register_trace_buffers(*fmts: str):
    """Register a format's value-buffer map (decorator).

    The returned dict must name every float array the kernel loads matrix
    values from or stores results to, excluding ``x``/``y`` (bound by the
    harness).  A format without a registered map cannot be traced and
    falls back to interpreted execution.
    """

    def decorate(fn: Callable[[Mat], dict[str, np.ndarray]]):
        for fmt in fmts:
            TRACE_BUFFERS[fmt] = fn
        return fn

    return decorate


def trace_buffers(fmt: str, mat: Mat) -> dict[str, np.ndarray]:
    """The named value buffers of a prepared matrix, by format name."""
    fn = TRACE_BUFFERS.get(fmt)
    if fn is None:
        raise TraceError(f"format {fmt!r} has no registered trace buffers")
    return fn(mat)


@register_trace_buffers("SELL", "ESB", "CSR", "MKL", "BETA", "BAIJ")
def _val_buffer(mat: Mat) -> dict[str, np.ndarray]:
    return {"val": mat.val}


@register_trace_buffers("CSRPerm")
def _csrperm_buffers(mat) -> dict[str, np.ndarray]:
    return {"val": mat.csr.val}


# ---------------------------------------------------------------------------
# unit decompositions: one template per unit shape
# ---------------------------------------------------------------------------


@dataclass
class UnitPlan:
    """A prepared matrix cut into units whose op streams depend only on a key.

    ``seq[u]`` is the template index of unit ``u``, units in kernel order;
    ``templates(record)`` records the exemplars (``record`` runs the
    variant's kernel on a matrix and returns the recorder) and returns
    one :class:`~repro.simd.tiling.Template` or
    :class:`~repro.simd.tiling.Loop` per index, and ``reps[u]`` counts a
    loop unit's body passes.  ``maps`` re-addresses each named buffer
    per unit: ``(delta, table)`` turns a recorded address ``a`` into ``a
    + delta[u]``, or ``table[a + delta[u]]``, after ``j * strides[name]``
    is added in body pass ``j`` (and in the tail, ``j`` the unit's
    passes).  ``frame`` is the matrix with every unit removed, kept for
    the counters a kernel charges once per matrix.
    """

    seq: np.ndarray
    templates: Callable[[Callable[[Mat], TraceRecorder]], list[Template | Loop]]
    maps: dict[str, tuple[np.ndarray, np.ndarray | None]]
    frame: Mat | None = None
    reps: np.ndarray | None = None
    strides: dict[str, int] = field(default_factory=dict)


#: (format name, kernel) -> fn(mat, isa) returning its UnitPlan, or None
#: to record whole.
TRACE_UNITS: dict[tuple[str, Callable], Callable[[Mat, Isa], UnitPlan | None]] = {}


def register_trace_units(fmt: str, *kernels: Callable):
    """Register a unit decomposition for ``kernels`` on ``fmt`` (decorator).

    The decomposition is called with the prepared matrix and the
    variant's ISA.  The instruction stream of a unit must depend only on
    the key that picks its template: everything the kernel reads for it
    besides the addresses the maps rewrite.  That is a property of the
    kernel, so a decomposition serves only the kernels it names; any
    other variant on the format — one added with
    :func:`~repro.core.dispatch.register_variant` — or a decomposition
    that returns ``None`` for a matrix records whole, as one unit.  A
    decomposition the tiler cannot place raises
    :class:`~repro.simd.trace.TraceError` when the tiling is compiled.
    """

    def decorate(fn: Callable[[Mat, Isa], UnitPlan | None]):
        for kernel in kernels:
            TRACE_UNITS[fmt, kernel] = fn
        return fn

    return decorate


# -- loops: a head, a body per pass, a tail ---------------------------------
#
# A vector kernel walks a CSR row or a SELL strip as one accumulator
# chain: a head zeroes the accumulator, each body pass (one vector of a
# row, one column of a strip) advances it, and a tail reduces or stores
# it.  A :class:`~repro.simd.tiling.Loop` of the three serves every
# length, so exemplars are recorded per tail key, not per length.


def _loops(
    record, empties: list[Mat], fulls: list[tuple[Mat, int]], body_of: list[int]
) -> list[Template | Loop]:
    """One loop per tail key, cut from exemplar units.

    ``empties`` hold one unit per tail key with no body pass; ``fulls``
    pair one unit per body key, holding one pass, with the index of the
    empty unit it extends; ``body_of[k]`` is tail key ``k``'s body key.
    Every exemplar starts with the same head; a tail is the rest of an
    empty unit and carries its counters, and a body is what a full unit
    adds to its empty one.  With no ``fulls`` (no unit makes a pass)
    each key's program is its empty unit, whole.
    """
    empty = [record(e) for e in empties]
    if not fulls:
        return [Template.cut(e) for e in empty]
    full = [(record(f), k) for f, k in fulls]
    head = _head(empty[full[0][1]], full[0][0])
    kinds = [op[0] for op in head.ops]
    recorded = [*empty, *(f for f, _ in full)]
    if any([op[0] for op in r.ops[: head.nops]] != kinds for r in recorded):
        raise TraceError("exemplar units start with different heads")
    tails = [Template.cut(e, head.nops) for e in empty]
    bodies = [_body(empty[k], f, head.nops, tails[k].nops) for f, k in full]
    return [Loop(head, bodies[b], tail) for b, tail in zip(body_of, tails)]


def _head(empty: TraceRecorder, full: TraceRecorder) -> Template:
    """The ops two exemplars share before the first body, as a template
    whose registers start one chain each; its counters go to the tails."""
    head = Template.cut(
        empty, 0, _common_prefix(empty.ops, full.ops), counters=KernelCounters()
    )
    head.outputs = {i: i for i in range(head.nregs)}
    return head


def _body(empty: TraceRecorder, full: TraceRecorder, cut: int, tail: int) -> Template:
    """The ops ``full`` adds between a ``cut``-op head and a ``tail``-op tail."""
    body = Template.cut(
        full, cut, len(full.ops) - tail, counters=full.counters - empty.counters
    )
    body.outputs = _chain_outputs(body)
    return body


def _common_prefix(a: list[tuple], b: list[tuple]) -> int:
    """How many leading ops two recordings share (compared by kind)."""
    n = 0
    for x, y in zip(a, b):
        if x[0] != y[0]:
            break
        n += 1
    return n


def _chain_outputs(body: Template) -> dict[int, int]:
    """Chain -> the last register of ``body`` computed from that chain's port."""
    chain_of = {body.nregs + p: p for p in range(body.nports)}
    out: dict[int, int] = {}
    for op in body.ops:
        lay = OP_LAYOUT[op[0]]
        read = {
            chain_of[op[i][1]]
            for i in lay.ruse
            if op[i][0] == "r" and op[i][1] in chain_of
        }
        if len(read) == 1:
            (c,) = read
            for i in lay.rdef:
                chain_of[op[i]] = c
                out[c] = op[i]
    return out


# -- CSR ---------------------------------------------------------------------


@register_trace_units("CSR", spmv_csr_scalar, spmv_csr_vectorized, spmv_csr_compiler)
@register_trace_units("MKL", spmv_csr_mkl)
def _csr_units(a: AijMat, isa: Isa) -> UnitPlan:
    """One unit per row: a loop under a vector kernel, else keyed by length.

    A vector kernel's row is a loop with one body pass per full vector
    of entries, keyed by the remainder ``length % lanes`` (its tail is
    the masked or scalar remainder and the store): one exemplar row per
    remainder and one row with a pass.  The scalar kernel's running sum
    is a scalar, which cannot cross pieces, so its rows are keyed by
    length, one exemplar each.
    """
    starts = a.rowptr[:-1]
    rows = np.arange(a.shape[0], dtype=np.int64)
    lengths = np.diff(a.rowptr)
    maps = {"val": (starts, None), "x": (starts, a.colidx), "y": (rows, None)}
    if not isa.is_vector:
        keys, seq = np.unique(lengths, return_inverse=True)

        def whole(record) -> list[Template]:
            return [Template.cut(record(_csr_exemplar(int(k)))) for k in keys]

        return UnitPlan(seq=seq.astype(np.int64), templates=whole, maps=maps)
    lanes = isa.lanes(8)
    rems, seq = np.unique(lengths % lanes, return_inverse=True)
    looped = lengths.max(initial=0) >= lanes

    def templates(record) -> list[Template | Loop]:
        return _loops(
            record,
            [_csr_exemplar(int(r)) for r in rems],
            [(_csr_exemplar(lanes + int(rems[0])), 0)] if looped else [],
            [0] * rems.shape[0],
        )

    return UnitPlan(
        seq=seq.astype(np.int64),
        templates=templates,
        maps=maps,
        reps=lengths // lanes,
        strides={"val": lanes, "x": lanes},
    )


def _csr_exemplar(length: int) -> AijMat:
    """One row of ``length`` entries whose column indices are their positions."""
    return AijMat(
        (1, max(length, 1)),
        np.array([0, length]),
        np.arange(length),
        np.zeros(length),
        check=False,
    )


# -- SELL --------------------------------------------------------------------


class _SellExemplar(SellMat):
    """A SELL exemplar: its padding count is given, not derived."""

    padded_entries = 0


@register_trace_units("SELL", spmv_sell, spmv_sell_sve)
def _sell_units(s: SellMat, isa: Isa) -> UnitPlan | None:
    """A unit per strip under a vector kernel, per slice under the scalar one.

    A vector kernel runs a slice as strips of ``lanes`` rows (the last
    one shorter under SVE when the height is not a multiple), each a
    loop with one body pass per column.  Loops are keyed by the strip's
    height, live rows and prefetch guard (a slice's first strip, when
    values follow it), their bodies by the height.  The scalar kernel's
    slices are keyed by width and live rows.

    Aligned loads are counted by address, and exemplars sit on 64-byte
    boundaries, so a matrix whose values do not records whole.
    """
    if s.val.ctypes.data % 64:
        return None
    c = s.slice_height
    ptr = s.sliceptr
    nslices = ptr.shape[0] - 1
    top = np.arange(nslices, dtype=np.int64) * c
    widths = np.diff(ptr) // c
    frame = _SellExemplar((0, 1), c, np.zeros(1), np.zeros(0), np.zeros(0), np.zeros(0))
    frame.padded_entries = s.padded_entries
    if not isa.is_vector:
        live = np.minimum(c, s.shape[0] - top)
        keys, seq = np.unique(widths * (c + 1) + live, return_inverse=True)

        def whole(record) -> list[Template]:
            return [
                Template.cut(record(_sell_exemplar(s, c, *divmod(k, c + 1), 0)))
                for k in keys.tolist()
            ]

        return UnitPlan(
            seq=seq.astype(np.int64),
            templates=whole,
            maps={"val": (ptr[:-1], None), "x": (ptr[:-1], s.colidx), "y": (top, s.perm)},
            frame=frame,
        )
    lanes = isa.lanes(8)
    per = -(-c // lanes)
    of = np.repeat(np.arange(nslices), per)
    strip = np.tile(np.arange(per, dtype=np.int64) * lanes, nslices)
    height = np.minimum(lanes, c - strip)
    live = np.clip(s.shape[0] - top[of] - strip, 0, height)
    guard = (strip == 0) & (ptr[1:] < s.val.shape[0])[of]
    keys, seq = np.unique((height * (lanes + 1) + live) * 2 + guard, return_inverse=True)

    def templates(record) -> list[Template | Loop]:
        key = [(*divmod(k // 2, lanes + 1), k % 2) for k in keys.tolist()]
        heights = sorted({h for h, _, _ in key})
        first = [next(i for i, k in enumerate(key) if k[0] == h) for h in heights]
        return _loops(
            record,
            [_sell_exemplar(s, h, 0, r, g) for h, r, g in key],
            [(_sell_exemplar(s, key[i][0], 1, *key[i][1:]), i) for i in first]
            if widths.any() else [],
            [heights.index(h) for h, _, _ in key],
        )

    base = ptr[:-1][of] + strip
    return UnitPlan(
        seq=seq.astype(np.int64),
        templates=templates,
        maps={"val": (base, None), "x": (base, s.colidx), "y": (top[of] + strip, s.perm)},
        frame=frame,
        reps=widths[of],
        strides={"val": c, "x": c},
    )


def _sell_exemplar(s: SellMat, height: int, width: int, live: int, prefetch: int) -> SellMat:
    """One slice of ``height``: ``live`` rows of ``width``, colidx valued by position.

    A sorted target gets an identity permutation, so each recorded row
    store names its slice position; a prefetching slice gets one more
    slice of values behind it to prefetch.  A slice with no live rows
    (an SVE or AVX strip past the last row) keeps one stored row but
    reports none, so its store is skipped as the target's is.
    """
    size = width * height
    stored = max(live, 1)
    ex = _SellExemplar(
        (stored, max(size, 1)),
        height,
        np.array([0, size]),
        np.zeros(size),
        np.arange(size),
        np.full(stored, width),
        perm=None if s.perm is None else np.arange(stored),
    )
    if prefetch:
        ex.val = aligned_alloc(size + height, np.float64, 64)
        ex.val[:] = 0.0
    if not live:
        ex._shape = (0, ex.shape[1])
    return ex


# -- BETA ---------------------------------------------------------------------


@register_trace_units("BETA", spmv_beta)
def _beta_units(bm: BetaMat, isa: Isa) -> UnitPlan | None:
    """Per band a chain: a head, one body per block keyed by its mask, a tail.

    The head zeroes one accumulator per row, each block continues the
    accumulators of the rows it covers (its ports), and the tail reduces
    and stores them; heads and tails are keyed by the band's rows and
    cut from recordings of one band with no block and with one block.
    """
    r, c = bm.block_shape
    m = bm.shape[0]
    nbands = bm.nbands
    if nbands == 0:
        return None
    counts = np.diff(bm.blockptr)
    nrows, row_key = np.unique(
        np.minimum(r, m - np.arange(nbands, dtype=np.int64) * r), return_inverse=True
    )
    masks, mask_key = np.unique(bm.block_mask, return_inverse=True)
    nk = nrows.shape[0]
    starts = np.concatenate(([0], np.cumsum(counts + 2)[:-1])).astype(np.int64)
    total = int(counts.sum()) + 2 * nbands
    band_of = np.repeat(np.arange(nbands), counts)
    at = starts[band_of] + 1 + np.arange(bm.nblocks) - bm.blockptr[band_of]
    seq = np.empty(total, dtype=np.int64)
    seq[starts] = row_key
    seq[starts + counts + 1] = nk + row_key
    seq[at] = 2 * nk + mask_key
    val = np.zeros(total, dtype=np.int64)
    val[at] = bm.valptr[:-1]
    anchor = np.zeros(total, dtype=np.int64)
    anchor[at] = bm.block_col
    first = np.zeros(total, dtype=np.int64)
    first[starts + counts + 1] = np.arange(nbands) * r

    def templates(record) -> list[Template]:
        heads, tails = [], []
        for n in nrows.tolist():
            empty = record(_beta_exemplar(r, n, c, []))
            heads.append(_head(empty, record(_beta_exemplar(r, n, c, [1]))))
            tails.append(Template.cut(empty, heads[-1].nops))
        # Blocks are bodies of the widest band; ``empty`` is its recording.
        top = int(nrows[-1])
        blocks = [
            _body(empty, record(_beta_exemplar(r, top, c, [mask])), heads[-1].nops, tails[-1].nops)
            for mask in masks.tolist()
        ]
        return heads + tails + blocks

    return UnitPlan(
        seq=seq,
        templates=templates,
        maps={"val": (val, None), "x": (anchor, None), "y": (first, None)},
    )


def _beta_exemplar(r: int, nrows: int, c: int, masks: list[int]) -> BetaMat:
    """One band of ``nrows`` rows holding blocks ``masks``, all anchored at 0."""
    nnz = [int(mk).bit_count() for mk in masks]
    return BetaMat(
        (nrows, c),
        (r, c),
        np.array([0, len(masks)]),
        np.zeros(len(masks), dtype=np.int32),
        np.asarray(masks, dtype=np.uint64),
        np.zeros(sum(nnz)),
    )


def record_kernel(
    variant, mat: Mat, x: np.ndarray | None = None, strict_alignment: bool = False
) -> tuple[TraceRecorder, np.ndarray]:
    """Run ``variant``'s kernel on ``mat`` and ``x`` under a recorder: (recorder, y).

    ``x`` defaults to zeros: the recorded program does not depend on it.
    """
    m, n = mat.shape
    if x is None:
        x = np.zeros(n)
    y = aligned_alloc(m, np.float64, 64)
    recorder = TraceRecorder(variant.isa, strict_alignment=strict_alignment)
    recorder.bind_buffers(trace_buffers(variant.fmt, mat))
    recorder.bind("x", x)
    recorder.bind("y", y)
    variant.kernel(recorder, mat, x, y)
    return recorder, y


def tile_trace(variant, mat: Mat, strict_alignment: bool = False) -> Tiling:
    """The tiling of ``variant``'s program on ``mat``: one exemplar per key.

    Exemplars are recorded with the unchanged kernel, each counted as
    ``compiler.exemplars``.  A kernel with no decomposition on its
    format, or a strict-alignment run (exemplar addresses differ from
    the target's), records ``mat`` whole, as one unit.
    """
    labels = {"variant": variant.name}

    def record(exemplar: Mat) -> TraceRecorder:
        obs_counter("compiler.exemplars", labels=labels)
        return record_kernel(variant, exemplar)[0]

    units = TRACE_UNITS.get((variant.fmt, variant.kernel))
    plan = None if units is None or strict_alignment else units(mat, variant.isa)
    if plan is None:
        return Tiling.whole(record_kernel(variant, mat, strict_alignment=strict_alignment)[0])
    m, n = mat.shape
    named = dict(trace_buffers(variant.fmt, mat))
    named["x"] = np.zeros(n)
    named["y"] = np.zeros(m)
    index = {name: i for i, name in enumerate(named)}
    frame = None
    if plan.frame is not None:
        recorder = record_kernel(variant, plan.frame)[0]
        if recorder.ops:
            raise TraceError("a format's frame issued instructions")
        frame = recorder.counters
    return Tiling(
        templates=plan.templates(record),
        seq=plan.seq,
        lanes=variant.isa.lanes(8),
        buffers=[
            BufferSlot(index=i, name=name, nbytes=arr.nbytes, dtype=arr.dtype.str)
            for i, (name, arr) in enumerate(named.items())
        ],
        maps={index[name]: entry for name, entry in plan.maps.items()},
        frame=frame,
        reps=plan.reps,
        strides={index[name]: step for name, step in plan.strides.items()},
    )


def record_trace(variant, mat: Mat, strict_alignment: bool = False) -> KernelTrace:
    """The compiled program of ``variant`` on ``mat``'s structure.

    Records one exemplar per unit key and loop body (``Record:``), tiles
    the templates over every unit (``Tile:``) and emits the
    level-scheduled steps (``Compile:``).  The op list and steps are those of a full
    recording of ``mat``; the program is independent of ``x``.
    """
    # One per structure a process compiles; a cache hit records nothing.
    obs_counter("compiler.recordings")
    with obs_event(f"Record:{variant.name}"):
        tiling = tile_trace(variant, mat, strict_alignment=strict_alignment)
    labels = {"variant": variant.name}
    obs_counter("compiler.tile_shapes", len(tiling.templates), labels)
    obs_counter("compiler.tile_units", len(tiling.seq), labels)
    with obs_event(f"Tile:{variant.name}"):
        columns = tiling.tile()
    with obs_event(f"Compile:{variant.name}"):
        return tiling.emit(columns)


def replay_trace(
    variant,
    trace: KernelTrace | megakernel.MegakernelTrace,
    mat: Mat,
    x: np.ndarray,
) -> tuple[np.ndarray, KernelCounters]:
    """Replay a compiled program against a same-structure matrix and new x."""
    y = aligned_alloc(mat.shape[0], np.float64, 64)
    buffers = trace_buffers(variant.fmt, mat)
    buffers["x"] = x
    buffers["y"] = y
    counters = trace.replay(buffers)
    return y, counters


def acquire_trace(
    variant,
    registry,
    key: tuple,
    mat: Mat,
    x: np.ndarray,
    strict_alignment: bool = False,
) -> tuple[megakernel.MegakernelTrace, tuple[np.ndarray, KernelCounters] | None]:
    """Get the compiled program under ``key``, building it at most once.

    The fill tiles the program (:func:`record_trace`: ``Record:``,
    ``Tile:`` and ``Compile:`` events) and fuses it
    (:func:`~repro.simd.megakernel.compile_megakernel`, a
    ``Fuse:<variant>`` event); a warm hit emits none.  The fused program
    — zero regions when nothing chains — is the only thing cached.  The
    registry's single-flight semantics elect one leader among concurrent
    callers for an uncached structure; only the leader runs the fill, and
    it gets that program's replay on ``x`` back as the second element, so
    a cold measurement returns the same bytes a warm one does.  Everyone
    else — cache hits and single-flight waiters alike — receives
    ``(program, None)`` and replays.

    ``key`` must come from
    :meth:`repro.core.registry.SignatureRegistry.trace_key` — the single
    definition of the trace cache key.  A kernel the trace layer cannot
    represent raises :class:`TraceError` out of the recording (nothing
    is cached) for the caller to fall back to interpretation.
    """
    recorded: dict[str, tuple[np.ndarray, KernelCounters]] = {}

    def fill() -> megakernel.MegakernelTrace:
        trace = record_trace(variant, mat, strict_alignment=strict_alignment)
        obs_counter("compiler.megakernel_compiles")
        with obs_event(f"Fuse:{variant.name}"):
            program = megakernel.compile_megakernel(trace)
        # How much of each program fused: source steps a region absorbed
        # against those still replaying one dispatch each.
        labels = {"variant": variant.name}
        obs_counter("compiler.fused_steps", program.fused_steps, labels)
        obs_counter("compiler.plain_steps", program.plain_steps, labels)
        recorded["run"] = replay_trace(variant, program, mat, x)
        return program

    program = registry.get_or_compute("trace", key, fill)
    return program, recorded.get("run")
