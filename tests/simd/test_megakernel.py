"""Megakernel fusion: bit-identical whole-matrix passes, one program each.

The megakernel compiler (:mod:`repro.simd.megakernel`) mines a compiled
trace for FMA chains — lockstep, ragged (rows dropping out as they
finish) and masked — and fuses each into one gather-plan + one fused
multiply-accumulate sweep.  Its contract is the trace layer's,
unchanged: identical output bytes and counters against plain replay and
interpretation for *every* registered variant over the structure panels
— fusion may only change how many NumPy dispatches a replay costs, never
a bit of the answer, masked lanes included.  Traces with no minable
chain compile to a zero-region program, and the trace cache holds
exactly one compiled program per (variant, structure).
"""

import warnings

import numpy as np
import pytest

from repro.analysis import lint_megakernel
from repro.core.context import ExecutionContext
from repro.core.dispatch import ALL_VARIANTS, get_variant
from repro.core.registry import SignatureRegistry
from repro.mat.aij import AijMat
from repro.memory.spaces import aligned_alloc
from repro.pde.problems import gray_scott_jacobian, irregular_rows
from repro.simd import megakernel as megakernel_mod
from repro.simd.isa import AVX512
from repro.simd.megakernel import FOLD_BLOCK, MegakernelTrace, compile_megakernel
from repro.simd.replay import compile_trace
from repro.simd.trace import TraceError, TraceRecorder

from ..conftest import make_random_csr
from .test_trace_digests import PANEL_VARIANTS, _panel_structures

#: Same structure panel as tests/core/test_trace_replay.py — the
#: equivalence pin must hold on every store path plain replay covers.
STRUCTURES = {
    "stencil": (lambda: gray_scott_jacobian(6), 8, 1),
    "random": (lambda: make_random_csr(24, density=0.25, seed=3), 8, 1),
    "partial-slice": (
        lambda: make_random_csr(19, n=24, density=0.3, seed=5),
        8,
        1,
    ),
    "sorted-sell": (lambda: irregular_rows(26, max_len=9, seed=8), 8, 16),
}


def revalued(csr: AijMat, seed: int) -> AijMat:
    """Same sparsity structure, fresh random values — a "reassembly"."""
    vals = np.random.default_rng(seed).standard_normal(csr.val.shape[0])
    return AijMat(csr.shape, csr.rowptr, csr.colidx, vals)


@pytest.mark.parametrize("variant_name", sorted(ALL_VARIANTS))
@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_megakernel_matches_plain_replay_bit_for_bit(variant_name, structure):
    """Fused replay == plain replay (y and counters) across reassembly.

    Every combo compiles — to zero regions when its trace carries no
    minable chain — and the context's trace-cache fill never raises, so
    no registered variant falls back to interpretation on every call.
    """
    variant = ALL_VARIANTS[variant_name]
    factory, c, s = STRUCTURES[structure]
    csr1 = factory()
    if variant.fmt == "BAIJ" and (csr1.shape[0] % 2 or csr1.shape[1] % 2):
        pytest.skip("BAIJ(bs=2) needs even dimensions")
    rng = np.random.default_rng(17)
    x1 = rng.standard_normal(csr1.shape[1])
    mat1 = variant.prepare(csr1, slice_height=c, sigma=s)
    trace, _, _ = variant.record(mat1, x1)
    mega = compile_megakernel(trace)

    # The fill caches the program: a raising fill would cache nothing.
    ctx = ExecutionContext(slice_height=c, sigma=s)
    ctx.measure(variant, csr1, x=x1)
    assert ctx.registry.size("trace") == 1

    # Fused replay on the recording matrix.
    y_plain, counters_plain = variant.replay(trace, mat1, x1)
    y_mega, counters_mega = variant.replay(mega, mat1, x1)
    assert np.array_equal(y_plain, y_mega), (variant_name, structure)
    assert counters_plain.as_dict() == counters_mega.as_dict()

    # And across reassembly: new values, new input, same structure.
    csr2 = revalued(csr1, seed=23)
    mat2 = variant.prepare(csr2, slice_height=c, sigma=s)
    x2 = rng.standard_normal(csr2.shape[1])
    y_plain2, counters_plain2 = variant.replay(trace, mat2, x2)
    y_mega2, counters_mega2 = variant.replay(mega, mat2, x2)
    assert np.array_equal(y_plain2, y_mega2), (variant_name, structure)
    assert counters_plain2.as_dict() == counters_mega2.as_dict()
    assert np.allclose(y_mega2, csr2.multiply(x2), atol=1e-12)

    # Fusion must shrink the dispatch count whenever it found a region,
    # cover the source program exactly, and lint clean under VEC05x.
    if mega.regions:
        assert mega.nsteps < mega.source_nsteps
    else:
        assert mega.nsteps == mega.source_nsteps
    plain_steps = sum(
        len(seg) for tag, seg in mega.segments if tag == "steps"
    )
    assert plain_steps + mega.fused_steps == mega.source_nsteps
    assert lint_megakernel(mega, trace) == []


def test_smoke_variant_fuses_whole_matrix():
    """The paper's headline kernel fuses its entire batched program."""
    variant = get_variant("SELL using AVX512")
    csr = gray_scott_jacobian(8)
    mat = variant.prepare(csr)
    x = np.random.default_rng(3).standard_normal(csr.shape[1])
    trace, _, _ = variant.record(mat, x)
    mega = compile_megakernel(trace)
    assert len(mega.regions) == 1
    assert mega.fused_steps == mega.source_nsteps  # nothing left unfused
    assert mega.nsteps == 1  # one whole-matrix pass
    # The absorbed loads are the wide register ids: the replay register
    # file shrinks accordingly.
    assert 0 <= mega.nregs_used < trace.nregs


def test_unfusable_trace_compiles_to_zero_regions():
    """A program with no FMA chain compiles to one plain segment."""
    eng = TraceRecorder(AVX512)
    val = aligned_alloc(2 * eng.lanes, np.float64, 64)
    val[:] = np.arange(2 * eng.lanes, dtype=np.float64)
    out = aligned_alloc(2 * eng.lanes, np.float64, 64)
    eng.bind("val", val)
    eng.bind("out", out)
    eng.store(out, 0, eng.load(val, 0))  # load/store, no chain anywhere
    trace = compile_trace(eng)
    mega = compile_megakernel(trace)
    assert mega.regions == ()
    assert mega.segments == [("steps", tuple(trace.steps))]
    assert lint_megakernel(mega, trace) == []
    y_plain = np.zeros_like(out)
    y_mega = np.zeros_like(out)
    assert (
        trace.replay({"val": val, "out": y_plain}).as_dict()
        == mega.replay({"val": val, "out": y_mega}).as_dict()
    )
    assert np.array_equal(y_plain, y_mega)
    assert np.array_equal(y_mega[: eng.lanes], val[: eng.lanes])


def test_min_levels_floor_rejects_short_chains(monkeypatch):
    """Chains shorter than ``MIN_REGION_LEVELS`` stay plain unless an
    epilogue carries them.

    A chain whose exits feed an ``add`` has no row epilogue: with the
    floor above its depth it stays plain, zero regions.  SELL's strips
    end in a ``vstore`` the region's epilogue absorbs, so they fuse at
    any floor.  Both replay bit-identically to the plain program.
    """
    eng = TraceRecorder(AVX512)
    val = aligned_alloc(2 * eng.lanes, np.float64, 64)
    val[:] = np.linspace(-1.0, 1.0, 2 * eng.lanes)
    out = aligned_alloc(eng.lanes, np.float64, 64)
    eng.bind("val", val)
    eng.bind("out", out)
    acc = eng.setzero()
    for level in range(2):
        acc = eng.fmadd(eng.load(val, level * eng.lanes), eng.load(val, 0), acc)
    eng.store(out, 0, eng.add(acc, acc))
    trace = compile_trace(eng)
    assert len(compile_megakernel(trace).regions) == 1
    monkeypatch.setattr(megakernel_mod, "MIN_REGION_LEVELS", 3)
    floor = compile_megakernel(trace)
    assert floor.regions == ()
    assert floor.nsteps == trace.nsteps
    monkeypatch.undo()

    variant = get_variant("SELL using AVX512")
    csr = gray_scott_jacobian(6)
    mat = variant.prepare(csr)
    x = np.random.default_rng(5).standard_normal(csr.shape[1])
    trace, _, _ = variant.record(mat, x)
    mega = compile_megakernel(trace)
    monkeypatch.setattr(
        megakernel_mod, "MIN_REGION_LEVELS", mega.regions[0].levels + 1
    )
    carried = compile_megakernel(trace)
    assert len(carried.regions) == 1 and carried.regions[0].stores
    y_plain, _ = variant.replay(trace, mat, x)
    y_carried, _ = variant.replay(carried, mat, x)
    assert y_plain.tobytes() == y_carried.tobytes()


def test_region_in_a_dependency_cycle_stays_plain():
    """A region whose epilogue needs a value computed from its own exit
    cannot run as one node: it stays plain, and replay is unchanged.

    Two rows chain two FMAs each; row 0's exit feeds a plain lane
    extract, and row 1's reduce (an epilogue candidate) joins that
    extract as its ``base=``.
    """
    eng = TraceRecorder(AVX512)
    lanes = eng.lanes
    val = aligned_alloc(4 * lanes, np.float64, 64)
    val[:] = np.linspace(-2.0, 3.0, 4 * lanes)
    y = aligned_alloc(lanes, np.float64, 64)
    eng.bind("val", val)
    eng.bind("y", y)
    accs = []
    for row in range(2):
        acc = eng.setzero()
        for level in range(2):
            a = eng.load(val, (2 * row + level) * lanes)
            acc = eng.fmadd(a, eng.load(val, level * lanes), acc)
        accs.append(acc)
    total = eng.reduce_add(accs[1], base=eng.extract_lane(accs[0], 3))
    eng.scalar_store(y, 0, total)
    trace = compile_trace(eng)
    mega = compile_megakernel(trace)
    assert mega.regions == ()
    assert lint_megakernel(mega, trace) == []
    y_plain, y_mega = np.zeros_like(y), np.zeros_like(y)
    trace.replay({"val": val, "y": y_plain})
    mega.replay({"val": val, "y": y_mega})
    assert y_mega.tobytes() == y_plain.tobytes() == y.tobytes()


def test_megakernel_rejects_structure_mismatch():
    """Fused replay keeps the trace layer's structure guard."""
    variant = get_variant("SELL using AVX512")
    csr = gray_scott_jacobian(4)
    other = gray_scott_jacobian(6)
    x = np.random.default_rng(0).standard_normal(csr.shape[1])
    mat = variant.prepare(csr)
    trace, _, _ = variant.record(mat, x)
    mega = compile_megakernel(trace)
    other_mat = variant.prepare(other)
    other_x = np.random.default_rng(1).standard_normal(other.shape[1])
    with pytest.raises(TraceError):
        variant.replay(mega, other_mat, other_x)


def test_counters_are_the_recorded_ones():
    """Replay returns a *copy* of the recorded counters, never a view."""
    variant = get_variant("SELL using AVX512")
    csr = gray_scott_jacobian(6)
    mat = variant.prepare(csr)
    x = np.random.default_rng(9).standard_normal(csr.shape[1])
    trace, _, counters_rec = variant.record(mat, x)
    mega = compile_megakernel(trace)
    _, c1 = variant.replay(mega, mat, x)
    _, c2 = variant.replay(mega, mat, x)
    assert c1.as_dict() == counters_rec.as_dict() == c2.as_dict()
    assert c1 is not c2


class TestContextTiering:
    def test_megakernel_context_matches_plain_replay_context(self):
        csr = gray_scott_jacobian(5)
        fused = ExecutionContext()
        x = np.full(csr.shape[1], 0.5)
        for name in ("SELL using AVX512", "CSR using AVX512", "CSR baseline"):
            # The second measure replays the context's fused program.
            fused.measure(name, csr)
            m_f = fused.measure(name, csr, x=x)
            variant = get_variant(name)
            trace, _, _ = variant.record(m_f.mat, x)
            y_p, counters_p = variant.replay(trace, m_f.mat, x)
            assert np.array_equal(m_f.y, y_p), name
            assert m_f.counters.as_dict() == counters_p.as_dict()
        assert fused.compiler_tier == "megakernel"
        assert ExecutionContext(use_traces=False).compiler_tier == "interpret"

    def test_unfusable_verdict_is_memoized_not_fatal(self, monkeypatch):
        """A zero-region program measures fine and compiles once."""
        calls = []
        original = megakernel_mod.compile_megakernel

        def counting(trace, *args, **kwargs):
            calls.append(1)
            return original(trace, *args, **kwargs)

        monkeypatch.setattr(megakernel_mod, "compile_megakernel", counting)
        ctx = ExecutionContext()
        csr = gray_scott_jacobian(5)
        variant = "CSR using AVX512"
        ctx.measure(variant, csr)
        x = np.full(csr.shape[1], 0.25)
        m1 = ctx.measure(variant, csr, x=x)
        m2 = ctx.measure(variant, csr, x=x + 1.0)
        assert len(calls) == 1  # compiled once, inside the cache fill
        assert np.allclose(m1.y, csr.multiply(x), atol=1e-12)
        assert m2 is not m1


def test_one_compiled_program_per_structure():
    """One fused program per (variant, structure), nothing under ``mega``.

    SELL's lockstep chains fuse into a region.  On this stencil every
    CSR row is one full vector plus a masked remainder: each chain is a
    single level, and it fuses because its reduce (and the remainder's
    store) join the region's row epilogue.  Both replay bit-identically
    (``y`` and counters) to the plain level-scheduled trace and to
    interpretation.
    """
    csr = gray_scott_jacobian(8)
    rng = np.random.default_rng(31)
    x_record, x = rng.standard_normal((2, csr.shape[1]))
    ctx = ExecutionContext()
    interpreted = ExecutionContext(use_traces=False)
    regions = {}
    for name in ("SELL using AVX512", "CSR using AVX512"):
        variant = get_variant(name)
        ctx.measure(variant, csr, x=x_record)  # records and compiles
        fused = ctx.measure(variant, csr, x=x)  # replays the program
        key = SignatureRegistry.trace_key(name, 8, 1, False, csr)
        program = ctx.registry.get_or_compute("trace", key, pytest.fail)
        assert isinstance(program, MegakernelTrace), name
        regions[name] = len(program.regions)

        trace, _, _ = variant.record(fused.mat, x_record)
        y_plain, counters_plain = variant.replay(trace, fused.mat, x)
        reference = interpreted.measure(variant, csr, x=x)
        for y, counters in (
            (y_plain, counters_plain),
            (reference.y, reference.counters),
        ):
            assert np.array_equal(fused.y, y), name
            assert fused.counters.as_dict() == counters.as_dict(), name

    assert ctx.registry.size("trace") == 2
    assert ctx.registry.size("mega") == 0
    assert regions["SELL using AVX512"] >= 1
    assert regions["CSR using AVX512"] >= 1


#: Structures whose programs carry masked and ragged chains: the
#: partial-slice panel entry plus two power-law row-length draws; and
#: the stencil, whose rows meet +inf and -inf in one fused sum.
MASKED_STRUCTURES = {
    "partial-slice": STRUCTURES["partial-slice"][0],
    "stencil": STRUCTURES["stencil"][0],
    "irregular-1": lambda: irregular_rows(160, max_len=40, alpha=1.1, seed=1),
    "irregular-2": lambda: irregular_rows(160, max_len=40, alpha=1.1, seed=2),
}


def _special_values(csr: AijMat, rng):
    """(case, matrix values, x): signed zeros, then non-finite inputs."""
    vals = rng.standard_normal(csr.nnz)
    x = rng.standard_normal(csr.shape[1])
    neg_vals, neg_x = vals.copy(), x.copy()
    neg_vals[::3] = -0.0
    neg_x[::4] = -0.0
    yield "negative-zero", neg_vals, neg_x
    bad_x = x.copy()
    bad_x[[1, 2, 3]] = (np.inf, -np.inf, np.nan)
    yield "non-finite-x", vals, bad_x


def _run(fn):
    """``fn()`` plus whether it raised any RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        out = fn()
    return out, any(issubclass(w.category, RuntimeWarning) for w in caught)


def _canonical_nan_bits(y: np.ndarray) -> np.ndarray:
    """``y``'s bit patterns with every NaN mapped to one payload."""
    return np.where(np.isnan(y), np.nan, y).view(np.uint64)


@pytest.mark.parametrize("variant_name", sorted(ALL_VARIANTS))
@pytest.mark.parametrize("structure", sorted(MASKED_STRUCTURES))
def test_masked_lanes_do_not_leak(variant_name, structure):
    """Fused == plain == interpreted, byte for byte, on special values.

    Signed zeros catch a masked lane that adds ``+0.0`` to a ``-0.0``
    addend instead of passing it through; ±inf/NaN in ``x`` catch a
    masked lane whose zero-filled operand or skipped product leaks into
    a row.  Fusion also raises no floating-point warning plain replay
    does not.  Interpretation is compared with one NaN payload: the
    scalar kernels' Python arithmetic picks NaN signs of its own.  The
    vectorized CSR programs run their reduces and stores as region
    epilogues, so a ``-0.0`` or NaN lost in the batched row sum shows.
    """
    variant = ALL_VARIANTS[variant_name]
    base = MASKED_STRUCTURES[structure]()
    if variant.fmt == "BAIJ" and (base.shape[0] % 2 or base.shape[1] % 2):
        pytest.skip("BAIJ(bs=2) needs even dimensions")
    rng = np.random.default_rng(29)
    trace, _, _ = variant.record(
        variant.prepare(base), rng.standard_normal(base.shape[1])
    )
    mega = compile_megakernel(trace)
    assert lint_megakernel(mega, trace) == []
    if variant_name == "CSR using AVX512":
        assert any(r.red_dsts.size for r in mega.regions)
    for case, vals, x in _special_values(base, rng):
        mat = variant.prepare(
            AijMat(base.shape, base.rowptr, base.colidx, vals, check=False)
        )
        (y_int, c_int), _ = _run(lambda: variant.run(mat, x))
        (y_plain, c_plain), warned_plain = _run(
            lambda: variant.replay(trace, mat, x)
        )
        (y_mega, c_mega), warned_mega = _run(lambda: variant.replay(mega, mat, x))
        assert y_mega.tobytes() == y_plain.tobytes(), case
        assert np.array_equal(
            _canonical_nan_bits(y_int), _canonical_nan_bits(y_plain)
        ), case
        assert c_int.as_dict() == c_plain.as_dict() == c_mega.as_dict(), case
        assert warned_plain or not warned_mega, case


#: Plain steps the 20 ``kernel_panel`` cells' fused programs keep, summed
#: (231 before regions carried row epilogues, 10 before reduces of
#: ``setzero`` registers folded into constants).
PANEL_PLAIN_STEPS_CEILING = 0


def test_every_panel_cell_fuses_its_row_epilogues():
    """Each ``kernel_panel`` cell compiles to at least one region and
    runs register-free.

    CSR's one-level body and remainder chains fuse with their reduces and
    stores; the exit consumers of long-tail BETA and SELL join their
    region's epilogue; a row with no full vector sums a folded constant.
    No cell keeps a plain step or a register file.  Replay stays
    byte-identical to the plain program.
    """
    from repro.core.traced import record_trace

    plain = {}
    for family, base in _panel_structures().items():
        x = np.random.default_rng(7).standard_normal(base.shape[1])
        for name in PANEL_VARIANTS:
            variant = get_variant(name)
            mat = variant.prepare(base)
            trace = record_trace(variant, mat)
            mega = compile_megakernel(trace)
            assert mega.regions, (family, name)
            y_plain, c_plain = variant.replay(trace, mat, x)
            y_mega, c_mega = variant.replay(mega, mat, x)
            assert y_mega.tobytes() == y_plain.tobytes(), (family, name)
            assert c_mega == c_plain
            assert mega.nregs_used == 0, (family, name)
            plain[family, name] = mega.plain_steps
    assert sum(plain.values()) <= PANEL_PLAIN_STEPS_CEILING, plain


def _short_rows(n: int = 96, seed: int = 31) -> AijMat:
    """Rows with no full AVX-512 vector: empty, or 1 to 7 entries."""
    rng = np.random.default_rng(seed)
    lengths = np.resize([0, 1, 2, 3, 5, 7], n)
    rowptr = np.concatenate([[0], np.cumsum(lengths)])
    colidx = np.concatenate(
        [np.sort(rng.choice(n, k, replace=False)) for k in lengths]
    )
    return AijMat((n, n), rowptr, colidx, np.ones(rowptr[-1]), check=False)


#: Every special value a short row's products may meet.
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.5e-310])


def _short_row_inputs(csr: AijMat, rng):
    """(case, matrix values, x): remainders of ``-0.0`` products, then
    ±0, ±inf, NaN and subnormals in ``x`` and in the values."""
    n = csr.shape[1]
    yield "negative-zero-x", 0.5 + np.abs(rng.standard_normal(csr.nnz)), np.full(n, -0.0)
    vals = rng.standard_normal(csr.nnz)
    x = rng.standard_normal(n)
    for arr in (vals, x):
        pick = rng.random(arr.size) < 0.5
        arr[pick] = rng.choice(SPECIALS, int(pick.sum()))
    yield "specials", vals, x


@pytest.mark.parametrize("variant_name", ["CSR using AVX512", "BETA using AVX512"])
def test_folded_constants_are_byte_identical(variant_name):
    """Rows with no full vector keep no register: their reduces of
    ``setzero`` registers fold into the constant +0.0, which a
    remainder joins as ``base + sum`` and an empty row stores.

    Fused ``y`` and counters equal plain replay's byte for byte on
    ``-0.0`` products and on ±0, ±inf, NaN and subnormal inputs.  Both
    programs replay into a ``y`` pre-filled with NaN, so a constant
    store the fused program dropped leaves a NaN behind.
    """
    from repro.core.traced import trace_buffers

    variant = get_variant(variant_name)
    base = _short_rows()
    trace, _, _ = variant.record(variant.prepare(base), np.ones(base.shape[1]))
    mega = compile_megakernel(trace)
    assert mega.plain_steps == 0 and mega.nregs_used == 0
    assert "reduce" in [kind for _, kind in mega.dropped_steps]
    assert lint_megakernel(mega, trace) == []
    empty = np.flatnonzero(np.diff(base.rowptr) == 0)
    rng = np.random.default_rng(37)
    for case, vals, x in _short_row_inputs(base, rng):
        mat = variant.prepare(
            AijMat(base.shape, base.rowptr, base.colidx, vals, check=False)
        )
        out = {}
        for tier, program in (("plain", trace), ("fused", mega)):
            buffers = {**trace_buffers(variant.fmt, mat), "x": x}
            buffers["y"] = np.full(base.shape[0], np.nan)
            with np.errstate(invalid="ignore", over="ignore"):
                counters = program.replay(buffers)
            out[tier] = buffers["y"], counters.as_dict()
        (y_plain, c_plain), (y_mega, c_mega) = out["plain"], out["fused"]
        assert y_mega.tobytes() == y_plain.tobytes(), case
        assert c_mega == c_plain, case
        assert y_mega[empty].tobytes() == np.zeros(empty.size).tobytes(), case
        if case == "negative-zero-x":
            assert y_mega.tobytes() == np.zeros(base.shape[0]).tobytes()
        else:
            assert np.isnan(y_mega).any() and np.isinf(y_mega).any()


def test_lint_checks_the_folded_constants():
    """VEC051 audits each folded constant: a ``-0.0`` in the initial
    scalar file, where the reduce of zeros gives ``+0.0``, is caught;
    VEC050 counts the folded slots as defined from the start."""
    variant = get_variant("CSR using AVX512")
    base = _short_rows()
    trace, _, _ = variant.record(variant.prepare(base), np.ones(base.shape[1]))
    mega = compile_megakernel(trace)
    (at, _), *_ = [d for d in mega.dropped_steps if d[1] == "reduce"]
    mega.scalars[trace.steps[at][1][0]] = -0.0
    diags = lint_megakernel(mega, trace)
    assert [d.code for d in diags] == ["VEC051"], diags
    assert "+0.0" in diags[0].detail


def test_csr_row_epilogue_is_byte_identical_across_24_decades():
    """Rows longer than one vector: a body fold, a masked remainder and
    the batched reduce ``total + sum(tail)``, on values spread over 24
    decades, where any change in the order the lanes are summed shows
    in the last bits."""
    base = irregular_rows(400, min_len=9, max_len=40, alpha=1.1, seed=11)
    rng = np.random.default_rng(13)

    def spread(k):
        return rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-12, 12, k)

    csr = AijMat(base.shape, base.rowptr, base.colidx, spread(base.nnz), check=False)
    x = spread(csr.shape[1])
    variant = get_variant("CSR using AVX512")
    trace, _, _ = variant.record(csr, x)
    mega = compile_megakernel(trace)
    assert any(r.red_base is not None for r in mega.regions)
    assert any(r.red_dsts.size and r.red_base is None for r in mega.regions)
    assert lint_megakernel(mega, trace) == []
    y_plain, c_plain = variant.replay(trace, csr, x)
    y_mega, c_mega = variant.replay(mega, csr, x)
    assert y_mega.tobytes() == y_plain.tobytes()
    assert c_mega == c_plain


@pytest.mark.parametrize(
    "variant_name", ["CSR using AVX512", "BETA using AVX512", "SELL using SVE"]
)
def test_ragged_chain_fuses_into_one_region(variant_name):
    """A power-law structure's chains fuse whole, rows dropping out.

    The region's rows sort deepest first, so every level's live rows
    are a prefix; the reduces and stores of early-finishing rows join
    its row epilogue.  (A one-level masked remainder is ragged too, with
    one width: no row drops out of it.)
    """
    csr = irregular_rows(160, max_len=40, alpha=1.1, seed=1)
    variant = get_variant(variant_name)
    mat = variant.prepare(csr)
    x = np.random.default_rng(4).standard_normal(csr.shape[1])
    trace, _, _ = variant.record(mat, x)
    mega = compile_megakernel(trace)
    ragged = [r for r in mega.regions if r.order == "ragged" and r.levels > 1]
    assert ragged, variant_name
    for region in ragged:
        widths = list(region.widths)
        assert widths == sorted(widths, reverse=True) and widths[-1] < widths[0]
        assert len(region.chain) == sum(widths)
    assert mega.nsteps < trace.nsteps
    y_plain, _ = variant.replay(trace, mat, x)
    y_mega, _ = variant.replay(mega, mat, x)
    assert y_mega.tobytes() == y_plain.tobytes()


def test_lockstep_chain_absorbs_masked_loads():
    """A lockstep chain over masked (prefix) loads is built like any
    other region: the loads join its plans and drop out of the program,
    and their dead lanes fold as the 0.0 the plain loads leave there.

    Four rows chain two plain FMAs each over 5-lane prefix loads of
    ``val`` and ``x``; the dead lanes of ``val`` hold real values, so a
    missing zero-fill would change ``y``.
    """
    eng = TraceRecorder(AVX512)
    lanes = eng.lanes
    rng = np.random.default_rng(11)
    val = aligned_alloc(8 * lanes, np.float64, 64)
    val[:] = rng.standard_normal(8 * lanes)
    x = aligned_alloc(2 * lanes, np.float64, 64)
    x[:] = rng.standard_normal(2 * lanes)
    y = aligned_alloc(4, np.float64, 64)
    eng.bind("val", val)
    eng.bind("x", x)
    eng.bind("y", y)
    mask = eng.make_mask(5)
    for row in range(4):
        acc = eng.setzero()
        for level in range(2):
            a = eng.masked_load(val, (2 * row + level) * lanes, mask)
            acc = eng.fmadd(a, eng.masked_load(x, level * lanes, mask), acc)
        eng.scalar_store(y, row, eng.reduce_add(acc))
    trace = compile_trace(eng)
    mega = compile_megakernel(trace)
    (region,) = mega.regions
    assert region.widths == (4, 4) and region.a_src[0] == "buf"
    assert [kind for _, kind in mega.dropped_steps].count("vload_prefix") == 2
    assert mega.plain_steps == 0
    assert lint_megakernel(mega, trace) == []
    y_plain, y_mega = np.zeros_like(y), np.zeros_like(y)
    trace.replay({"val": val, "x": x, "y": y_plain})
    mega.replay({"val": val, "x": x, "y": y_mega})
    assert y_mega.tobytes() == y_plain.tobytes() == y.tobytes()


#: Row depths of :func:`_holey_program`: rows drop out of the chain.
HOLEY_DEPTHS = (4, 3, 4, 1, 2, 4)


def _holey_program(base: str):
    """A ragged chain whose masks have holes, recorded on plain data.

    Six rows chain up to four levels over ``val`` and ``x``.  Levels 0,
    1 and 3 are ``fmadd_mask`` steps with random bits (row 0's lane 0 is
    active at levels 0 and 2 and off at 1); level 2 is a plain ``fmadd``
    over prefix loads (5 lanes of ``val``, 6 of ``x``), whose dead lanes
    the fold adds as 0.0.  The chain starts from ``setzero``, from a
    register loaded from ``init`` or from a constant block, the last two
    holding ``-0.0``; each row stores its whole accumulator, so a
    masked-off lane shows its base.  Returns ``(trace, buffers, slots)``:
    ``slots`` holds the ``val`` cells the fold multiplies by a live load
    lane (``"val"``) and the fold's active lanes (``"fold"``), one entry
    per (row, level, lane).
    """
    from repro.simd.register import MaskRegister, VectorRegister

    rng = np.random.default_rng(5)
    eng = TraceRecorder(AVX512)
    lanes, levels, rows = eng.lanes, max(HOLEY_DEPTHS), len(HOLEY_DEPTHS)
    bufs = {
        "val": aligned_alloc(rows * levels * lanes, np.float64, 64),
        "x": aligned_alloc(levels * lanes, np.float64, 64),
        "init": aligned_alloc(rows * lanes, np.float64, 64),
        "y": aligned_alloc(rows * lanes, np.float64, 64),
    }
    for name, buf in bufs.items():
        buf[:] = rng.standard_normal(buf.size)
        eng.bind(name, buf)
    bufs["init"][::3] = -0.0
    cells, live, fold = [], [], []
    for row, depth in enumerate(HOLEY_DEPTHS):
        if base == "zero":
            acc = eng.setzero()
        elif base == "reg":
            acc = eng.load(bufs["init"], row * lanes)
        else:
            acc = VectorRegister(bufs["init"][row * lanes : (row + 1) * lanes].copy())
        for level in range(depth):
            off = (row * levels + level) * lanes
            if level == 2:
                a = eng.masked_load(bufs["val"], off, eng.make_mask(5))
                b = eng.masked_load(bufs["x"], level * lanes, eng.make_mask(6))
                acc = eng.fmadd(a, b, acc)
                active = np.ones(lanes, dtype=bool)
                live.append(np.arange(lanes) < 5)
            else:
                active = rng.random(lanes) < 0.6
                active[rng.integers(1, lanes)] = False  # never every lane
                if row == 0:
                    active[0] = level != 1
                a, b = eng.load(bufs["val"], off), eng.load(bufs["x"], level * lanes)
                acc = eng.masked_fmadd(a, b, acc, MaskRegister(active))
                live.append(active)
            cells.append(off + np.arange(lanes))
            fold.append(active)
        eng.store(bufs["y"], row * lanes, acc)
    cells, live = np.concatenate(cells), np.concatenate(live)
    return compile_trace(eng), bufs, {"val": cells[live], "fold": np.concatenate(fold)}


#: Finite special values: signed zeros and subnormals.
TINY = np.array([0.0, -0.0, 5e-324, -2.5e-310])


def _special_inputs(bufs, slots, seed: int, nan_pairs: bool) -> dict:
    """Fresh ``val``/``x``/``init`` holding every special value.

    Every ``val`` cell the fold does not multiply by a live load lane,
    masked-off or dead, holds NaN or an infinity, so one that leaks
    poisons ``y``.  The others hold signed zeros, subnormals and normal
    numbers.  Each lane of ``x`` holds one special at a random level:
    +inf, -inf and NaN in lanes 1, 3 and 5, a signed zero or subnormal
    in the others.  With ``nan_pairs``, ``x`` is ``-NaN`` at even
    levels and ``+NaN`` at odd ones instead, so a lane-row's fold adds
    NaN products to NaN accumulators of the other sign: NumPy keeps one
    of the two by the add's position in its batch, which the fold's
    padded steps keep in step with plain replay's blocks (unpadded,
    this case differs in NaN signs).
    """
    rng = np.random.default_rng(seed)
    out = {name: buf.copy() for name, buf in bufs.items()}
    val, x = out["val"], out["x"]
    val[:] = rng.choice([np.nan, np.inf, -np.inf], val.size)
    cells = slots["val"]
    val[cells] = rng.standard_normal(cells.size)
    tiny = cells[rng.random(cells.size) < 0.3]
    val[tiny] = rng.choice(TINY, tiny.size)
    levels = max(HOLEY_DEPTHS)
    lanes = x.size // levels
    x[:] = rng.standard_normal(x.size)
    if nan_pairs:
        x[:] = np.repeat([-np.nan, np.nan] * (levels // 2), lanes)
    else:
        for lane in range(lanes):
            special = {1: np.inf, 3: -np.inf, 5: np.nan}.get(lane, rng.choice(TINY))
            x[rng.integers(levels) * lanes + lane] = special
    out["init"][1::4] = TINY[3]
    out["y"][:] = np.nan
    return out


@pytest.mark.parametrize("nan_pairs", [False, True], ids=["specials", "nan-pairs"])
@pytest.mark.parametrize("base", ["zero", "reg", "const"])
def test_lane_compaction_is_byte_identical(base, nan_pairs):
    """A ragged region plans only its active lanes, and folds them
    bit for bit as plain replay does.

    Holes in the masks, a ``-0.0`` base a masked-off lane keeps, the
    dead lanes of an unmasked ``fmadd`` over masked loads (added as
    0.0, which turns a ``-0.0`` accumulator into ``+0.0``), ±0, ±inf,
    NaN and subnormals in ``x`` and the values, and NaNs of opposite
    sign meeting in one add: fused ``y`` and counters equal plain
    replay's byte for byte.
    """
    trace, bufs, slots = _holey_program(base)
    mega = compile_megakernel(trace)
    (region,) = mega.regions
    assert region.levels == max(HOLEY_DEPTHS) and region.lane_rows is not None
    fold = slots["fold"]
    pad = 0 if region.pad is None else region.pad.size
    assert sum(region.fold) - pad == np.count_nonzero(fold) < fold.size
    assert all(w % FOLD_BLOCK == 0 for w in region.fold)
    assert region.a_src[0] == region.b_src[0] == "buf"
    assert region.a_src[3] is not None and region.b_src[3] is not None
    assert region.base[0] == base
    assert lint_megakernel(mega, trace) == []
    for seed in range(8):
        inputs = _special_inputs(bufs, slots, seed, nan_pairs)
        plain = {name: buf.copy() for name, buf in inputs.items()}
        fused = {name: buf.copy() for name, buf in inputs.items()}
        with np.errstate(invalid="ignore", over="ignore"):
            c_plain = trace.replay(plain)
            c_mega = mega.replay(fused)
        assert fused["y"].tobytes() == plain["y"].tobytes(), seed
        nans = np.isnan(plain["y"])
        if nan_pairs:  # both signs reach y: the pairs' adds decide one
            assert len(set(np.signbit(plain["y"][nans]))) == 2, seed
        else:
            assert nans.any() and np.isinf(plain["y"]).any(), seed
        assert c_mega.as_dict() == c_plain.as_dict()


def test_masked_regions_plan_exactly_their_active_lanes():
    """Every masked region of the ``kernel_panel`` cells — the β(r,c)
    blocks and CSR's remainders — plans one entry per active lane: the
    set bits of its ``fmadd_mask`` levels plus every lane of its
    unmasked ones, and nothing for a masked-off lane but the ``-0.0``
    padding of its fold steps."""
    from repro.core.traced import record_trace

    masked = 0
    for family, base in _panel_structures().items():
        for name in PANEL_VARIANTS:
            variant = get_variant(name)
            mega = compile_megakernel(record_trace(variant, variant.prepare(base)))
            for region in mega.regions:
                levels = region.source_steps[: region.levels]
                if all(step[0] == "fmadd" for step in levels):
                    continue
                lanes = region.shape[2]
                active = sum(
                    int(np.count_nonzero(step[5])) if step[0] == "fmadd_mask"
                    else len(step[1]) * lanes
                    for step in levels
                )
                pad = 0 if region.pad is None else region.pad.size
                assert sum(region.fold) - pad == active, (family, name)
                assert pad < FOLD_BLOCK * len(region.fold), (family, name)
                for src in (region.a_src, region.b_src):
                    assert src[0] != "reg", (family, name)
                    if src[0] == "buf":
                        assert src[2].size == sum(region.fold), (family, name)
                masked += 1
    assert masked >= 10


def test_fusion_counters_are_observed_passively():
    """The fill counts fused and plain steps per variant; observing the
    run changes neither ``y`` nor the counters."""
    from repro.obs import observing

    csr = irregular_rows(96, max_len=30, alpha=1.1, seed=3)
    rng = np.random.default_rng(12)
    x_record, x = rng.standard_normal((2, csr.shape[1]))
    variant = "BETA using AVX512"
    results = []
    for observed in (False, True):
        ctx = ExecutionContext()
        if observed:
            with observing() as obs:
                ctx.measure(variant, csr, x=x_record)
                meas = ctx.measure(variant, csr, x=x)
                metrics = obs.metrics.snapshot()
        else:
            ctx.measure(variant, csr, x=x_record)
            meas = ctx.measure(variant, csr, x=x)
        results.append((meas.y.tobytes(), meas.counters.as_dict()))
    assert results[0] == results[1]

    key = SignatureRegistry.trace_key(variant, 8, 1, False, csr, block_shape=ctx.block_shape)
    program = ctx.registry.get_or_compute("trace", key, pytest.fail)
    label = f'{{variant="{variant}"}}'
    assert metrics[f"compiler.fused_steps{label}"] == program.fused_steps > 0
    assert metrics[f"compiler.plain_steps{label}"] == program.plain_steps
    assert program.fused_steps + program.plain_steps == program.source_nsteps
