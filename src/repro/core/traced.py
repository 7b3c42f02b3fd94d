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
slices (SELL) or block-band pieces (β) whose instruction streams, under
the kernels it is registered for, depend only on their shape.
:func:`record_trace` records each shape once on an exemplar and tiles
the templates over the matrix (:mod:`repro.simd.tiling`) — the op list
and compiled steps of a full recording, at the cost of a few short ones.
:func:`replay_trace` executes a compiled trace against a same-structure
matrix and a new input vector.  :func:`acquire_trace` is the trace-cache
fill: tile, fuse, replay — one
:class:`~repro.simd.megakernel.MegakernelTrace` per structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..mat.aij import AijMat
from ..mat.base import Mat
from ..memory.spaces import aligned_alloc
from ..obs.observer import obs_counter, obs_event
from ..simd import megakernel
from ..simd.counters import KernelCounters
from ..simd.replay import KernelTrace
from ..simd.tiling import Template, Tiling
from ..simd.trace import BufferSlot, TraceError, TraceRecorder
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
    """A prepared matrix cut into units whose op streams depend only on shape.

    ``seq[u]`` is the template index of unit ``u``, units in kernel order;
    ``templates(record)`` records the exemplars (``record`` runs the
    variant's kernel on a matrix and returns the recorder) and returns
    one :class:`~repro.simd.tiling.Template` per index.  ``maps`` re-
    addresses each named buffer per unit: ``(delta, table)`` turns a
    recorded address ``a`` into ``a + delta[u]``, or ``table[a +
    delta[u]]``.  ``frame`` is the matrix with every unit removed, kept
    for the counters a kernel charges once per matrix.
    """

    seq: np.ndarray
    templates: Callable[[Callable[[Mat], TraceRecorder]], list[Template]]
    maps: dict[str, tuple[np.ndarray, np.ndarray | None]]
    frame: Mat | None = None


#: (format name, kernel) -> fn(mat) returning its UnitPlan, or None to
#: record whole.
TRACE_UNITS: dict[tuple[str, Callable], Callable[[Mat], UnitPlan | None]] = {}


def register_trace_units(fmt: str, *kernels: Callable):
    """Register a unit decomposition for ``kernels`` on ``fmt`` (decorator).

    The instruction stream of a unit must depend only on the key that
    picks its template: everything the kernel reads for it besides the
    addresses the maps rewrite.  That is a property of the kernel, so a
    decomposition serves only the kernels it names; any other variant
    on the format — one added with
    :func:`~repro.core.dispatch.register_variant` — or a decomposition
    that returns ``None`` for a matrix records whole, as one unit.  A
    decomposition the tiler cannot place raises
    :class:`~repro.simd.trace.TraceError` when the tiling is compiled.
    """

    def decorate(fn: Callable[[Mat], UnitPlan | None]):
        for kernel in kernels:
            TRACE_UNITS[fmt, kernel] = fn
        return fn

    return decorate


@register_trace_units("CSR", spmv_csr_scalar, spmv_csr_vectorized, spmv_csr_compiler)
@register_trace_units("MKL", spmv_csr_mkl)
def _csr_units(a: AijMat) -> UnitPlan:
    """One unit per row, keyed by its length."""
    starts = a.rowptr[:-1]
    lengths, seq = np.unique(np.diff(a.rowptr), return_inverse=True)

    def templates(record) -> list[Template]:
        return [Template.cut(record(_csr_exemplar(int(k)))) for k in lengths]

    rows = np.arange(a.shape[0], dtype=np.int64)
    return UnitPlan(
        seq=seq.astype(np.int64),
        templates=templates,
        maps={"val": (starts, None), "x": (starts, a.colidx), "y": (rows, None)},
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


class _SellExemplar(SellMat):
    """A SELL exemplar: its padding count is given, not derived."""

    padded_entries = 0


@register_trace_units("SELL", spmv_sell, spmv_sell_sve)
def _sell_units(s: SellMat) -> UnitPlan | None:
    """One unit per slice, keyed by width, live rows and the prefetch guard.

    Aligned loads are counted by address, and exemplars sit on 64-byte
    boundaries, so a matrix whose values do not records whole.
    """
    c = s.slice_height
    if s.val.ctypes.data % 64:
        return None
    ptr = s.sliceptr
    nslices = ptr.shape[0] - 1
    first = np.arange(nslices, dtype=np.int64) * c
    widths = np.diff(ptr) // c
    live = np.minimum(c, s.shape[0] - first)
    prefetch = (ptr[1:] < s.val.shape[0]).astype(np.int64)
    code = (widths * (c + 1) + live) * 2 + prefetch
    keys, seq = np.unique(code, return_inverse=True)

    def templates(record) -> list[Template]:
        out = []
        for k in keys.tolist():
            width, live_rows = divmod(k // 2, c + 1)
            out.append(Template.cut(record(_sell_exemplar(s, width, live_rows, k % 2))))
        return out

    frame = _SellExemplar((0, 1), c, np.zeros(1), np.zeros(0), np.zeros(0), np.zeros(0))
    frame.padded_entries = s.padded_entries
    return UnitPlan(
        seq=seq.astype(np.int64),
        templates=templates,
        maps={
            "val": (ptr[:-1], None),
            "x": (ptr[:-1], s.colidx),
            "y": (first, s.perm),
        },
        frame=frame,
    )


def _sell_exemplar(s: SellMat, width: int, live: int, prefetch: int) -> SellMat:
    """One slice: ``live`` rows of ``width``, colidx valued by position.

    A sorted target gets an identity permutation, so each recorded row
    store names its slice position; a prefetching slice gets one more
    slice of values behind it to prefetch.
    """
    c = s.slice_height
    size = width * c
    ex = _SellExemplar(
        (live, max(size, 1)),
        c,
        np.array([0, size]),
        np.zeros(size),
        np.arange(size),
        np.full(live, width),
        perm=None if s.perm is None else np.arange(live),
    )
    if prefetch:
        ex.val = aligned_alloc(size + c, np.float64, 64)
        ex.val[:] = 0.0
    return ex


@register_trace_units("BETA", spmv_beta)
def _beta_units(bm: BetaMat) -> UnitPlan | None:
    """Per band: a prologue, one unit per block keyed by its mask, an epilogue.

    The prologue zeroes one accumulator per row, each block continues the
    accumulators of the rows it covers (its ports), and the epilogue
    reduces and stores them; the templates are cut from recordings of one
    band with no block and with one block.
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
        prologues, epilogues = [], []
        for n in nrows.tolist():
            empty = record(_beta_exemplar(r, n, c, []))
            cut = _common_prefix(empty.ops, record(_beta_exemplar(r, n, c, [1])).ops)
            prologue = Template.cut(empty, 0, cut)
            prologue.outputs = {i: i for i in range(prologue.nregs)}
            prologues.append(prologue)
            epilogues.append(Template.cut(empty, cut, counters=KernelCounters()))
        # Blocks are cut from the widest band; ``empty`` is its recording.
        top = int(nrows[-1])
        head = len(prologues[-1].ops)
        tail = len(epilogues[-1].ops)
        blocks = []
        for mask in masks.tolist():
            full = record(_beta_exemplar(r, top, c, [mask]))
            block = Template.cut(
                full, head, len(full.ops) - tail,
                counters=full.counters - empty.counters,
            )
            block.outputs = _chain_outputs(
                empty.ops[head:], full.ops[len(full.ops) - tail :], head
            )
            blocks.append(block)
        return prologues + epilogues + blocks

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


def _common_prefix(a: list[tuple], b: list[tuple]) -> int:
    """How many leading ops two recordings share (compared by kind)."""
    n = 0
    for x, y in zip(a, b):
        if x[0] != y[0]:
            break
        n += 1
    return n


def _chain_outputs(without: list[tuple], with_: list[tuple], nports: int) -> dict[int, int]:
    """Chain -> block register, read off the epilogue recorded after it.

    The epilogue reads accumulator ``c`` as the prologue's register ``c``
    in a band with no block, and as the block's register where the block
    advanced that row.
    """
    out: dict[int, int] = {}
    for a, b in zip(without, with_):
        for u, v in zip(a[1:], b[1:]):
            if (
                isinstance(u, tuple) and len(u) == 2 and u[0] == "r"
                and isinstance(v, tuple) and v[0] == "r" and v[1] >= nports
            ):
                out[u[1]] = v[1] - nports
    return out


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
    """The tiling of ``variant``'s program on ``mat``: record each shape once.

    Exemplars are recorded with the unchanged kernel.  A kernel with no
    decomposition on its format, or a strict-alignment run (exemplar
    addresses differ from the target's), records ``mat`` whole, as one
    unit.
    """

    def record(exemplar: Mat) -> TraceRecorder:
        return record_kernel(variant, exemplar, strict_alignment=strict_alignment)[0]

    units = TRACE_UNITS.get((variant.fmt, variant.kernel))
    plan = None if units is None or strict_alignment else units(mat)
    if plan is None:
        return Tiling.whole(record(mat))
    m, n = mat.shape
    named = dict(trace_buffers(variant.fmt, mat))
    named["x"] = np.zeros(n)
    named["y"] = np.zeros(m)
    index = {name: i for i, name in enumerate(named)}
    frame = None
    if plan.frame is not None:
        recorder = record(plan.frame)
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
    )


def record_trace(variant, mat: Mat, strict_alignment: bool = False) -> KernelTrace:
    """The compiled program of ``variant`` on ``mat``'s structure.

    Records each unit shape once on an exemplar (``Record:``), tiles the
    templates over every unit (``Tile:``) and emits the level-scheduled
    steps (``Compile:``).  The op list and steps are those of a full
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
