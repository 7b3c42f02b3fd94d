"""Mutation corpus: deliberately broken kernels the analyzer must catch.

Each :class:`CorpusCase` records (or hand-builds) a small SpMV-shaped
kernel trace carrying one seeded defect and names the ``VEC0xx`` codes the
linter is required to emit for it.  The corpus is the analyzer's negative
test bed: the shipped kernels prove the passes are quiet on correct code,
these prove they are *loud* on broken code — a pass that stops firing on
its mutant is a regression even if every real kernel still comes back
clean.

The mutants mirror real porting accidents: an off-by-one remainder mask,
a gather reading the wrong index buffer, AVX-512 tail handling left in an
AVX build, an accumulator dropped between ``reduce_add`` and the store,
a misaligned streaming load, a double-written or skipped output row.

Cases record under whichever ISA lets the broken trace exist.  The
ISA-conformance mutants record under a capable ISA and then re-lint the
same trace against the ISA the kernel *claims* — exactly the situation a
static checker exists for, since the interpreting engine can only reject
what it executes (and ``blend_zero`` it does not gate at all).

:func:`run_corpus` checks every case and reports, per mutant, the codes
expected, the codes found, and whether all expected codes surfaced.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..memory.spaces import aligned_alloc
from ..simd.isa import AVX, AVX2, AVX512, SVE, Isa
from ..simd.register import MaskRegister
from ..simd.trace import TraceRecorder
from .diagnostics import AnalysisReport
from .numlint import NumericalCertificate, certify_recorder, compare_certificates
from .trace_lint import BufferInfo, TraceSubject, lint_megakernel, lint_trace

#: Logical row/column counts shared by the recorded mutants.  The physical
#: buffers are padded past these so the *recording* always succeeds; the
#: defects are caught statically against the logical bounds.
_M, _N = 6, 8


def _recorder(isa: Isa) -> tuple[TraceRecorder, np.ndarray, np.ndarray, np.ndarray]:
    """A bound recorder plus (val, x, y) buffers for a tiny dense-row SpMV."""
    eng = TraceRecorder(isa)
    val = aligned_alloc(_M * _N, np.float64, 64)
    val[:] = np.arange(_M * _N, dtype=np.float64) * 0.25
    x = aligned_alloc(2 * _N, np.float64, 64)  # padded: logical bound is _N
    x[:_N] = 1.0
    y = aligned_alloc(2 * _M, np.float64, 64)  # padded: logical bound is _M
    eng.bind("val", val)
    eng.bind("x", x)
    eng.bind("y", y)
    return eng, val, x, y


def _dense_rows(eng, val, x, y, rows) -> None:
    """Correct scalar row loop — the baseline every mutant perturbs."""
    for r in rows:
        acc = 0.0
        for c in range(_N):
            acc = eng.scalar_fma(eng.scalar_load(val, r * _N + c),
                                 eng.scalar_load(x, c), acc)
        eng.scalar_store(y, r, acc)


def _lint(eng: TraceRecorder, claimed_isa: Isa | None = None) -> list:
    subject = TraceSubject.from_recorder(eng, bounds={"x": _N, "y": _M})
    if claimed_isa is not None:
        subject = dataclasses.replace(subject, isa=claimed_isa)
    return lint_trace(subject)


# ---------------------------------------------------------------------------
# the mutants
# ---------------------------------------------------------------------------


def tail_mask_off_by_one() -> list:
    """Remainder mask covers one lane too many: the masked store runs off
    the logical end of ``y`` into its padding."""
    eng, val, x, y = _recorder(AVX512)
    lanes = eng.lanes
    _dense_rows(eng, val, x, y, range(lanes, _M))  # rows the vector part misses
    acc = eng.setzero()
    for c in range(_M):
        acc = eng.fmadd(eng.load(val, c * lanes), eng.set1(1.0), acc)
    tail = _M % lanes if _M % lanes else lanes
    eng.masked_store(y, 0, acc, eng.make_mask(tail + 1))  # off by one
    return _lint(eng)


def sve_mispredicated_tail() -> list:
    """SVE port of the tail bug: the ``whilelt`` bound counts one row past
    the logical extent (the classic ``i <= n`` loop condition), so the
    loop predicate keeps an extra lane live and the predicated store runs
    off the end of ``y`` into its padding.  The engine executes it
    happily — the padded buffer absorbs the write — so only the static
    bounds pass catches it, exactly like the AVX-512 mask flavor."""
    eng, val, x, y = _recorder(SVE)
    lanes = eng.lanes
    _dense_rows(eng, val, x, y, range(lanes, _M))  # rows the vector part misses
    acc = eng.setzero()
    for c in range(_M):
        acc = eng.fmadd(eng.load(val, c * lanes), eng.set1(1.0), acc)
    pred = eng.whilelt(0, _M + 1)  # bound should be the logical _M
    eng.predicated_store(y, 0, acc, pred)
    return _lint(eng)


def swapped_gather_index() -> list:
    """Gather fed the row-extent buffer instead of the column indices:
    the lengths land outside ``x``'s logical bound."""
    eng, val, x, y = _recorder(AVX512)
    lanes = eng.lanes
    colidx = np.arange(lanes, dtype=np.int32)          # the right buffer
    rowlen = np.full(lanes, _N + 3, dtype=np.int32)    # the wrong one
    eng.bind("colidx", colidx)
    eng.bind("rowlen", rowlen)
    idx = eng.load_index(rowlen, 0)                    # should be colidx
    acc = eng.fmadd(eng.load(val, 0), eng.gather(x, idx), eng.setzero())
    eng.store(y, 0, acc)
    return _lint(eng)


def masked_tail_on_avx() -> list:
    """AVX-512 tail masking left in the AVX build.  ``blend_zero`` takes a
    hand-built predicate without an ISA gate, so the engine records it
    happily — only the static pass catches the maskless-ISA violation."""
    eng, val, x, y = _recorder(AVX)
    lanes = eng.lanes
    mask = MaskRegister(np.array([True] * (lanes - 1) + [False]))
    acc = eng.blend_zero(eng.load(val, 0), mask)
    for r in range(_M):
        eng.scalar_store(y, r, eng.reduce_add(acc))
    return _lint(eng)


def hardware_gather_on_avx() -> list:
    """Kernel registered for AVX emits ``vgatherdpd``.  Recorded under
    AVX2 (where it executes), linted against the claimed ISA."""
    eng, val, x, y = _recorder(AVX2)
    idx = eng.load_index(np.arange(eng.lanes, dtype=np.int32), 0)
    acc = eng.mul(eng.load(val, 0), eng.gather(x, idx))
    eng.store(y, 0, acc)
    _dense_rows(eng, val, x, y, range(eng.lanes, _M))
    return _lint(eng, claimed_isa=AVX)


def fmadd_on_avx() -> list:
    """Kernel registered for AVX uses fused multiply-add (FMA3 arrived
    with AVX2 here); mul+add is the legal lowering."""
    eng, val, x, y = _recorder(AVX2)
    acc = eng.fmadd(eng.load(val, 0), eng.load(x, 0), eng.setzero())
    eng.store(y, 0, acc)
    _dense_rows(eng, val, x, y, range(eng.lanes, _M))
    return _lint(eng, claimed_isa=AVX)


def dropped_accumulator() -> list:
    """The horizontal sum lands in a scalar that is never consumed — the
    store writes a stray zero instead of the reduced accumulator."""
    eng, val, x, y = _recorder(AVX512)
    for r in range(_M):
        acc = eng.setzero()
        acc = eng.fmadd(eng.load(val, r * _N), eng.load(x, 0), acc)
        eng.reduce_add(acc)           # the sum is dropped on the floor
        eng.scalar_store(y, r, 0.0)   # should store the reduced total
    return _lint(eng)


def skipped_row() -> list:
    """The row loop stops one short: the last output row is never written."""
    eng, val, x, y = _recorder(AVX512)
    _dense_rows(eng, val, x, y, range(_M - 1))
    return _lint(eng)


def double_store() -> list:
    """Two stores hit row 0 with no intervening load — the first result
    is silently overwritten (a symptom of a mis-slotted slice base)."""
    eng, val, x, y = _recorder(AVX512)
    _dense_rows(eng, val, x, y, range(_M))
    eng.scalar_store(y, 0, eng.scalar_load(val, 0))
    return _lint(eng)


def misaligned_stream() -> list:
    """``load_aligned`` used at an offset that is not a vector-width
    multiple; only faults on hardware, so the recording sails through."""
    eng, val, x, y = _recorder(AVX512)
    acc = eng.load_aligned(val, 1)  # 8-byte offset vs 64-byte contract
    eng.store(y, 0, acc)
    _dense_rows(eng, val, x, y, range(eng.lanes, _M))
    return _lint(eng)


def stale_output_read() -> list:
    """The kernel accumulates into ``y`` (``y += A@x``) without the
    documented initialization pass: it reads rows it never stored."""
    eng, val, x, y = _recorder(AVX512)
    for r in range(_M):
        stale = eng.scalar_load(y, r)  # read before any store
        eng.scalar_store(y, r, eng.scalar_fma(eng.scalar_load(val, r * _N),
                                              eng.scalar_load(x, 0), stale))
    return _lint(eng)


def lane_width_mismatch() -> list:
    """Hand-built trace: a 4-wide index vector feeds an 8-lane gather
    (the SSE port's half-width index slipped into the AVX-512 build)."""
    ops = (
        ("gather", 0, 1, np.arange(4, dtype=np.int64)),  # 4 idx, 8 lanes
        ("vstore", 2, 0, ("r", 0)),
    )
    buffers = (
        BufferInfo("val", _M * _N, 8),
        BufferInfo("x", _N, 8),
        BufferInfo("y", 8, 8),
    )
    return lint_trace(TraceSubject(
        ops=ops, lanes=8, isa=AVX512, buffers=buffers, outputs=("y",),
    ))


def read_before_write() -> list:
    """Hand-built trace: an fmadd consumes a register no op ever defined
    (the unrolled prologue that should set it was deleted)."""
    ops = (
        ("vload", 0, 0, 0),
        ("fmadd", 1, ("r", 0), ("r", 7), ("r", 0)),  # r7 never defined
        ("vstore", 2, 0, ("r", 1)),
    )
    buffers = (
        BufferInfo("val", _M * _N, 8),
        BufferInfo("x", _N, 8),
        BufferInfo("y", 8, 8),
    )
    return lint_trace(TraceSubject(
        ops=ops, lanes=8, isa=AVX512, buffers=buffers, outputs=("y",),
    ))


# ---------------------------------------------------------------------------
# megakernel fusion mutants (VEC05x) — tamper a *real* fused program
# ---------------------------------------------------------------------------


def _fused_program():
    """A compiled trace and its genuinely fused program, to seed
    mutations into.

    Records a three-level chained-FMA strip (the lockstep shape the
    SELL level scheduler emits), compiles it, and fuses it — so every
    mutant perturbs an artifact the real pipeline produced, not a
    hand-built approximation.
    """
    from ..simd.megakernel import compile_megakernel
    from ..simd.replay import compile_trace

    eng, val, x, y = _recorder(AVX512)
    lanes = eng.lanes
    acc = eng.setzero()
    for c in range(3):
        acc = eng.fmadd(eng.load(val, c * lanes), eng.load(x, 0), acc)
    eng.store(y, 0, acc)
    _dense_rows(eng, val, x, y, range(lanes, _M))
    trace = compile_trace(eng)
    return trace, compile_megakernel(trace)


def megakernel_boundary_read() -> list:
    """A surviving plain step reads a register the fusion elided — its
    defining fmadd now lives only inside a region's fold, so replay
    would read a zero from the shrunken register file."""
    trace, mega = _fused_program()
    interior = int(mega.regions[0].interior_ids()[0])
    mega.segments.append(("steps", (
        ("vstore", 2, np.asarray([0]), ("r", np.asarray([interior]))),
    )))
    mega.source_nsteps += 1  # keep coverage exact: the defect is dataflow
    return lint_megakernel(mega, trace)


def megakernel_broken_chain() -> list:
    """A region's second fused level no longer chains from the first —
    the sequential fold would sum levels the recorded program never
    linked (a mis-spliced chain after a bad cache merge)."""
    trace, mega = _fused_program()
    region = mega.regions[0]
    source = list(region.source_steps)
    for j, step in enumerate(source):
        if step[0] == "fmadd" and j > 0:
            wrong = ("r", np.asarray(step[4][1]) + 97)
            source[j] = (step[0], step[1], step[2], step[3], wrong)
            break
    region.source_steps = tuple(source)
    return lint_megakernel(mega, trace)


def megakernel_coverage_hole() -> list:
    """The fused program accounts for fewer steps than the source trace
    had — a region was deleted (or a plan truncated on disk) and replay
    would silently skip those levels."""
    trace, mega = _fused_program()
    mega.source_nsteps += 2
    return lint_megakernel(mega, trace)


def _ragged_program():
    """A compiled trace and its genuinely fused masked *ragged* region,
    to seed mutations into.

    Two rows chain masked FMAs over masked (prefix) loads, to depths 2
    and 3, so the region's level widths are (2, 2, 1) and its 10
    lane-rows fold in steps padded from (10, 8, 3) to (16, 8, 8)
    entries; the shallow row's reduce-and-store sits inside the chain's
    span, and both rows' reduces and stores join the region's row
    epilogue.
    """
    from ..simd.megakernel import compile_megakernel
    from ..simd.replay import compile_trace

    eng, val, x, y = _recorder(AVX512)
    for row, depth in enumerate((2, 3)):
        acc = eng.setzero()
        for level in range(depth):
            mask = eng.make_mask(5 - level)
            a = eng.masked_load(val, (3 * row + level) * eng.lanes, mask)
            acc = eng.masked_fmadd(a, eng.masked_load(x, 0, mask), acc, mask)
        eng.scalar_store(y, row, eng.reduce_add(acc))
    trace = compile_trace(eng)
    return trace, compile_megakernel(trace)


def megakernel_mask_drift() -> list:
    """A ragged region's lane plan folds a lane its source ``fmadd_mask``
    steps leave off: a lane-row masked off at every level takes the
    first padding slot of fold step 0, whose product is no longer
    zeroed (a plan built from the wrong remainder)."""
    trace, mega = _ragged_program()
    region = mega.regions[0]
    lane_rows = region.lane_rows
    off = np.setdiff1d(np.arange(region.width * region.shape[2]), lane_rows)[0]
    region.lane_rows = np.append(lane_rows, off)
    region.pad = region.pad[1:]
    return lint_megakernel(mega, trace)


def megakernel_unpadded_fold() -> list:
    """A masked region's fold steps keep their padding entries but not
    their ``-0.0`` products: each pad entry adds its step's last real
    product a second time, to another lane-row (a plan padded for
    NumPy's blocks whose zero fill was dropped)."""
    trace, mega = _ragged_program()
    mega.regions[0].pad = None
    return lint_megakernel(mega, trace)


def _dead_lane_program():
    """A compiled trace and its fused lockstep chain, whose fold adds
    dead load lanes.

    Two rows chain two plain ``fmadd`` levels over 5-lane prefix loads:
    each load's three dead lanes are active in the fold, so the region's
    plans zero-fill them, as the plain masked loads leave 0.0 there.
    """
    from ..simd.megakernel import compile_megakernel
    from ..simd.replay import compile_trace

    eng, val, x, y = _recorder(AVX512)
    lanes = eng.lanes
    mask = eng.make_mask(5)
    for row in range(2):
        acc = eng.setzero()
        for level in range(2):
            a = eng.masked_load(val, (2 * row + level) * lanes, mask)
            acc = eng.fmadd(a, eng.masked_load(x, level * lanes, mask), acc)
        eng.scalar_store(y, row, eng.reduce_add(acc))
    trace = compile_trace(eng)
    return trace, compile_megakernel(trace)


def megakernel_dropped_zero_fill() -> list:
    """A region's plan skips the zero fill of one dead load lane its fold
    adds: that lane multiplies the stale buffer value where the plain
    masked load leaves 0.0 (a fill built from the fold's mask instead of
    the load's)."""
    trace, mega = _dead_lane_program()
    region = mega.regions[0]
    kind, b, plan, dead = region.a_src
    region.a_src = (kind, b, plan, dead[1:])
    return lint_megakernel(mega, trace)


def megakernel_consumer_above_region() -> list:
    """An exit consumer placed above the region that defines its input:
    a copy of the epilogue's reduce runs as a plain step first and reads
    a row's final accumulator before any segment has written it."""
    trace, mega = _ragged_program()
    at = next(k for k, (tag, _) in enumerate(mega.segments) if tag == "region")
    region = mega.segments[at][1]
    reduce = next(s for s in region.source_steps if s[0] == "reduce")
    mega.segments.insert(at, ("steps", (reduce,)))
    mega.source_nsteps += 1  # keep coverage exact: the defect is dataflow
    return lint_megakernel(mega, trace)


def megakernel_misrouted_store() -> list:
    """A row epilogue's batched store writes row 0's sum at row 1 and
    row 1's at row 0: each value is right, its place is not (a store
    plan built against the unsorted row order)."""
    trace, mega = _ragged_program()
    region = mega.regions[0]
    b, cells, src = region.stores[0]
    region.stores = ((b, cells[::-1].copy(), src),)
    return lint_megakernel(mega, trace)


def _one_level_program():
    """Algorithm 1 on two rows: its compiled trace, and that trace fused
    into one-level regions.

    Each row is one full vector, reduced, plus a masked remainder seeded
    from ``setzero`` and joined as ``reduce(tail, base=total)``: every
    chain is one level deep and fuses only because its reduce (and the
    remainder's store) join its row epilogue.
    """
    from ..simd.megakernel import compile_megakernel
    from ..simd.replay import compile_trace

    eng, val, x, y = _recorder(AVX512)
    lanes = eng.lanes
    for row in range(2):
        body = eng.fmadd(
            eng.load(val, 2 * row * lanes), eng.load(x, 0), eng.setzero()
        )
        total = eng.reduce_add(body)
        mask = eng.make_mask(3 + row)
        a = eng.masked_load(val, (2 * row + 1) * lanes, mask)
        tail = eng.masked_fmadd(a, eng.masked_load(x, lanes, mask), eng.setzero(), mask)
        eng.scalar_store(y, row, eng.reduce_add(tail, base=total))
    trace = compile_trace(eng)
    return trace, compile_megakernel(trace)


def megakernel_crossed_join() -> list:
    """A one-level remainder region adds each row's masked tail to the
    *other* row's body total: ``base=`` slots crossed in the batched
    reduce, so every ``y`` entry mixes two rows."""
    trace, mega = _one_level_program()
    region = next(r for r in mega.regions if r.red_base is not None)
    at, slots = region.red_base
    region.red_base = (at, slots[::-1].copy())
    return lint_megakernel(mega, trace)


def megakernel_folded_live_reduce() -> list:
    """A reduce of live accumulators folded into the constant +0.0: the
    body region's totals leave its epilogue for the initial scalar file,
    so each row's remainder joins +0.0 instead of its body's total (a
    fold that took any reduce for a reduce of setzero registers)."""
    trace, mega = _one_level_program()
    body = next(r for r in mega.regions if r.red_dsts.size and r.red_base is None)
    reduce = next(s for s in body.source_steps if s[0] == "reduce")
    at = next(i for i, s in enumerate(trace.steps) if s is reduce)
    body.source_steps = tuple(s for s in body.source_steps if s is not reduce)
    body.red_dsts, body.red_rows, body.scalars_out = body.red_dsts[:0], None, False
    mega.dropped_steps = tuple(sorted((*mega.dropped_steps, (at, "reduce"))))
    mega.scalars[reduce[1]] = 0.0
    return lint_megakernel(mega, trace)


# ---------------------------------------------------------------------------
# silent reordering mutants (NUM01x) — exact-value traces whose *accumulation
# tree* drifted from the certified reference; only the rounding certificate
# comparison catches them, every VEC0xx pass stays quiet
# ---------------------------------------------------------------------------


def _certified(build: Callable, fused_fma: bool = False) -> NumericalCertificate:
    """Record ``build(eng, val, x, y)`` under AVX-512 and certify it."""
    eng, val, x, y = _recorder(AVX512)
    build(eng, val, x, y)
    return certify_recorder(eng, subject="corpus", fused_fma=fused_fma)


def _chained_fma(eng, val, x, y) -> None:
    """The certified reference shape: a four-level sequential FMA chain."""
    xv = eng.load(x, 0)
    acc = eng.setzero()
    for lvl in range(4):
        acc = eng.fmadd(eng.load(val, lvl * eng.lanes), xv, acc)
    eng.store(y, 0, acc)


def _level_products(eng, val, x) -> list:
    """One rounded product per level — the leaves both tree shapes share."""
    xv = eng.load(x, 0)
    return [eng.mul(eng.load(val, lvl * eng.lanes), xv) for lvl in range(4)]


def reduction_pairwise_tree() -> list:
    """The sequential FMA chain rewritten as a pairwise product tree: the
    same value in exact arithmetic, but every leaf now sits at depth 2
    instead of the chain's 1..3 — a different certified tree."""

    def tree(eng, val, x, y):
        p = _level_products(eng, val, x)
        eng.store(y, 0, eng.add(eng.add(p[0], p[1]), eng.add(p[2], p[3])))

    return compare_certificates(_certified(_chained_fma), _certified(tree))


def reduction_swapped_levels() -> list:
    """The balanced fold's halves summed in the wrong order.  Depths,
    leaves, and rounding counts all match — only the *order* of the
    accumulation differs, the weakest (and sneakiest) reordering."""

    def halves(hi_first: bool) -> Callable:
        def build(eng, val, x, y):
            p = _level_products(eng, val, x)
            lo, hi = eng.add(p[0], p[1]), eng.add(p[2], p[3])
            eng.store(y, 0, eng.add(hi, lo) if hi_first else eng.add(lo, hi))
        return build

    return compare_certificates(
        _certified(halves(False)), _certified(halves(True))
    )


def reduction_dropped_fma() -> list:
    """FMA fusion dropped: the chain certified under the hardware-FMA
    contract (``vfmadd231pd``, one rounding) against its mul+add
    lowering.  The tree shape is identical, but every product picks up
    an extra rounding the fused certificate never granted."""

    def mul_then_add(eng, val, x, y):
        xv = eng.load(x, 0)
        acc = eng.setzero()
        for lvl in range(4):
            acc = eng.add(acc, eng.mul(eng.load(val, lvl * eng.lanes), xv))
        eng.store(y, 0, acc)

    return compare_certificates(
        _certified(_chained_fma, fused_fma=True), _certified(mul_then_add)
    )


@dataclass(frozen=True)
class CorpusCase:
    """One seeded-defect kernel and the codes the linter must raise."""

    name: str
    expect: tuple[str, ...]
    build: Callable[[], list]

    @property
    def description(self) -> str:
        return (self.build.__doc__ or "").split("\n")[0].rstrip(".")


CASES: tuple[CorpusCase, ...] = (
    CorpusCase("tail-mask-off-by-one", ("VEC031",), tail_mask_off_by_one),
    CorpusCase(
        "sve-mispredicated-tail", ("VEC031",), sve_mispredicated_tail
    ),
    CorpusCase("swapped-gather-index", ("VEC030",), swapped_gather_index),
    CorpusCase("masked-tail-on-avx", ("VEC010",), masked_tail_on_avx),
    CorpusCase("hardware-gather-on-avx", ("VEC011",), hardware_gather_on_avx),
    CorpusCase("fmadd-on-avx", ("VEC012",), fmadd_on_avx),
    CorpusCase("dropped-accumulator", ("VEC021",), dropped_accumulator),
    CorpusCase("skipped-row", ("VEC041",), skipped_row),
    CorpusCase("double-store", ("VEC040",), double_store),
    CorpusCase("misaligned-stream", ("VEC032",), misaligned_stream),
    CorpusCase("stale-output-read", ("VEC022",), stale_output_read),
    CorpusCase("lane-width-mismatch", ("VEC013",), lane_width_mismatch),
    CorpusCase("read-before-write", ("VEC020",), read_before_write),
    CorpusCase(
        "megakernel-boundary-read", ("VEC050",), megakernel_boundary_read
    ),
    CorpusCase(
        "megakernel-broken-chain", ("VEC051",), megakernel_broken_chain
    ),
    CorpusCase(
        "megakernel-coverage-hole", ("VEC052",), megakernel_coverage_hole
    ),
    CorpusCase("megakernel-mask-drift", ("VEC051",), megakernel_mask_drift),
    CorpusCase(
        "megakernel-dropped-zero-fill", ("VEC051",), megakernel_dropped_zero_fill
    ),
    CorpusCase("megakernel-unpadded-fold", ("VEC051",), megakernel_unpadded_fold),
    CorpusCase(
        "megakernel-consumer-above-region",
        ("VEC050",),
        megakernel_consumer_above_region,
    ),
    CorpusCase(
        "megakernel-misrouted-store", ("VEC051",), megakernel_misrouted_store
    ),
    CorpusCase("megakernel-crossed-join", ("VEC051",), megakernel_crossed_join),
    CorpusCase(
        "megakernel-folded-live-reduce", ("VEC051",), megakernel_folded_live_reduce
    ),
    CorpusCase(
        "reduction-pairwise-tree", ("NUM010",), reduction_pairwise_tree
    ),
    CorpusCase(
        "reduction-swapped-levels", ("NUM011",), reduction_swapped_levels
    ),
    CorpusCase("reduction-dropped-fma", ("NUM012",), reduction_dropped_fma),
)


def run_case(case: CorpusCase) -> AnalysisReport:
    """Lint one mutant; the report's subject carries the case name."""
    report = AnalysisReport(subject=f"corpus:{case.name}")
    report.diagnostics.extend(case.build())
    return report


def run_corpus(cases: tuple[CorpusCase, ...] = CASES) -> dict:
    """Check every mutant fires its expected codes; JSON-ready summary.

    A case passes when every expected code appears among the findings.
    ``ok`` is the conjunction — any silent mutant means a lint pass has
    lost its teeth.
    """
    results = []
    for case in cases:
        report = run_case(case)
        found = sorted(report.codes)
        results.append({
            "name": case.name,
            "description": case.description,
            "expected": list(case.expect),
            "found": found,
            "diagnostics": [str(d) for d in report.diagnostics],
            "ok": all(code in report.codes for code in case.expect),
        })
    return {
        "cases": len(results),
        "caught": sum(r["ok"] for r in results),
        "missed": [r["name"] for r in results if not r["ok"]],
        "ok": all(r["ok"] for r in results),
        "results": results,
    }
