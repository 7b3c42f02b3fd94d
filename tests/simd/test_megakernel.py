"""Megakernel fusion: bit-identical whole-matrix passes, one program each.

The megakernel compiler (:mod:`repro.simd.megakernel`) mines a compiled
trace for lockstep FMA chains and fuses each run into one gather-plan +
one fused multiply-accumulate sweep.  Its contract is the trace layer's,
unchanged: ``np.array_equal`` outputs and identical counters against
plain replay for *every* registered variant over the full structure
panel — fusion may only change how many NumPy dispatches a replay costs,
never a bit of the answer.  Traces with no minable chain compile to a
zero-region program, and the trace cache holds exactly one compiled
program per (variant, structure).
"""

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
from repro.simd.megakernel import MegakernelTrace, compile_megakernel
from repro.simd.replay import compile_trace
from repro.simd.trace import TraceError, TraceRecorder

from ..conftest import make_random_csr

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
    assert lint_megakernel(mega) == []


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
    assert lint_megakernel(mega) == []
    y_plain = np.zeros_like(out)
    y_mega = np.zeros_like(out)
    assert (
        trace.replay({"val": val, "out": y_plain}).as_dict()
        == mega.replay({"val": val, "out": y_mega}).as_dict()
    )
    assert np.array_equal(y_plain, y_mega)
    assert np.array_equal(y_mega[: eng.lanes], val[: eng.lanes])


def test_min_levels_floor_rejects_short_chains():
    """Chains shorter than ``min_levels`` stay plain: zero regions."""
    variant = get_variant("SELL using AVX512")
    csr = gray_scott_jacobian(6)
    mat = variant.prepare(csr)
    x = np.random.default_rng(5).standard_normal(csr.shape[1])
    trace, _, _ = variant.record(mat, x)
    mega = compile_megakernel(trace)
    floor = compile_megakernel(trace, min_levels=mega.regions[0].levels + 1)
    assert floor.regions == ()
    assert floor.nsteps == trace.nsteps
    y_plain, _ = variant.replay(trace, mat, x)
    y_floor, _ = variant.replay(floor, mat, x)
    assert np.array_equal(y_plain, y_floor)


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

    SELL's lockstep chains fuse into a region; CSR's do not and compile
    to zero regions.  Both replay bit-identically (``y`` and counters)
    to the plain level-scheduled trace and to interpretation.
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
        program = ctx.registry.lookup("trace", key)
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
    assert regions["CSR using AVX512"] == 0
