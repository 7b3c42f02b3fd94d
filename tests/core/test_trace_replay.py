"""Record/replay equivalence: bit-identical results, identical counters.

The trace layer's contract (docs/performance.md) is exact equivalence with
the interpreted engine: a trace recorded on one matrix replays for any
matrix sharing the sparsity structure with ``np.array_equal`` outputs and
``KernelCounters``-equal instruction mixes.  These tests sweep every
registered variant over a panel of structures exercising the interesting
code paths: a PDE stencil, irregular random sparsity, a trailing partial
slice, and a sigma-sorted (permuted) SELL.
"""

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.dispatch import ALL_VARIANTS, get_variant
from repro.mat.aij import AijMat
from repro.pde.problems import gray_scott_jacobian, irregular_rows
from repro.simd.trace import TraceError

from ..conftest import make_random_csr

#: (name, matrix factory, slice_height, sigma) — the structure panel.
STRUCTURES = {
    "stencil": (lambda: gray_scott_jacobian(6), 8, 1),
    "random": (lambda: make_random_csr(24, density=0.25, seed=3), 8, 1),
    # 19 rows: slices 8+8+3, so every slice-based kernel hits the masked /
    # scalarized trailing-partial-slice store path.
    "partial-slice": (
        lambda: make_random_csr(19, n=24, density=0.3, seed=5),
        8,
        1,
    ),
    # sigma > 1 sorts rows by length within the window: SELL kernels take
    # the permuted scalar-scatter store path.
    "sorted-sell": (lambda: irregular_rows(26, max_len=9, seed=8), 8, 16),
}


def revalued(csr: AijMat, seed: int) -> AijMat:
    """Same sparsity structure, fresh random values — a "reassembly"."""
    vals = np.random.default_rng(seed).standard_normal(csr.val.shape[0])
    return AijMat(csr.shape, csr.rowptr, csr.colidx, vals)


@pytest.mark.parametrize("variant_name", sorted(ALL_VARIANTS))
@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_replay_is_bit_identical_across_reassembly(variant_name, structure):
    """Record on one matrix, replay on a same-structure one: exact match."""
    variant = ALL_VARIANTS[variant_name]
    factory, c, s = STRUCTURES[structure]
    csr1 = factory()
    if variant.fmt == "BAIJ" and (csr1.shape[0] % 2 or csr1.shape[1] % 2):
        pytest.skip("BAIJ(bs=2) needs even dimensions")
    rng = np.random.default_rng(17)
    x1 = rng.standard_normal(csr1.shape[1])

    mat1 = variant.prepare(csr1, slice_height=c, sigma=s)
    trace, y_rec, counters_rec = variant.record(mat1, x1)

    # The compiled program's replay matches an interpreted run.
    y_ref, counters_ref = variant.run(mat1, x1)
    assert np.array_equal(y_rec, y_ref)
    assert counters_rec.as_dict() == counters_ref.as_dict()

    # Replay against new values AND a new input vector.
    csr2 = revalued(csr1, seed=23)
    mat2 = variant.prepare(csr2, slice_height=c, sigma=s)
    x2 = rng.standard_normal(csr2.shape[1])
    y_expect, counters_expect = variant.run(mat2, x2)
    y_replay, counters_replay = variant.replay(trace, mat2, x2)
    assert np.array_equal(y_replay, y_expect), (variant_name, structure)
    assert counters_replay.as_dict() == counters_expect.as_dict()
    # And against the production matvec, for good measure.
    assert np.allclose(y_replay, csr2.multiply(x2), atol=1e-12)


def test_replay_rejects_structure_mismatch():
    """A trace is only valid for the recorded sparsity structure."""
    variant = get_variant("SELL using AVX512")
    csr = gray_scott_jacobian(4)
    other = gray_scott_jacobian(6)
    x = np.random.default_rng(0).standard_normal(csr.shape[1])
    mat = variant.prepare(csr)
    trace, _, _ = variant.record(mat, x)
    other_mat = variant.prepare(other)
    other_x = np.random.default_rng(1).standard_normal(other.shape[1])
    with pytest.raises(TraceError):
        variant.replay(trace, other_mat, other_x)


class TestContextTracing:
    def test_traced_and_interpreted_context_measurements_agree(self):
        csr = gray_scott_jacobian(5)
        traced = ExecutionContext(use_traces=True)
        interp = ExecutionContext(use_traces=False)
        for name in ("SELL using AVX512", "CSR using AVX512", "CSR baseline"):
            m_t = traced.measure(name, csr)
            m_i = interp.measure(name, csr)
            assert np.array_equal(m_t.y, m_i.y), name
            assert m_t.counters.as_dict() == m_i.counters.as_dict()

    def test_trace_cache_survives_reassembly(self):
        """New coefficients, same stencil: one recording, then replays."""
        csr1 = gray_scott_jacobian(5)
        csr2 = revalued(csr1, seed=31)
        ctx = ExecutionContext()
        ctx.measure("SELL using AVX512", csr1)
        assert ctx.registry.size("trace") == 1
        meas = ctx.measure("SELL using AVX512", csr2)
        assert ctx.registry.size("trace") == 1  # replayed, not re-recorded
        x = ctx._default_x(csr2.shape[1])
        assert np.allclose(meas.y, csr2.multiply(x), atol=1e-12)

    def test_prepare_and_default_x_are_cached(self):
        """measure() does no redundant conversion or rng work (bugfix)."""
        csr = gray_scott_jacobian(5)
        ctx = ExecutionContext()
        # Two variants sharing the CSR format: one conversion, reused.
        m1 = ctx.measure("CSR using AVX512", csr)
        m2 = ctx.measure("CSR baseline", csr)
        assert m1.mat is m2.mat
        assert ctx.registry.size("default_x") == 1
        x1 = ctx._default_x(csr.shape[1])
        assert x1 is ctx._default_x(csr.shape[1])

    def test_untraceable_kernel_falls_back_to_interpretation(self):
        """A format without trace buffers still measures correctly."""
        from repro.core import traced as traced_mod

        csr = gray_scott_jacobian(4)
        ctx = ExecutionContext()
        saved = traced_mod.TRACE_BUFFERS.pop("SELL")
        try:
            meas = ctx.measure("SELL using AVX512", csr)
        finally:
            traced_mod.TRACE_BUFFERS["SELL"] = saved
        assert ctx.registry.size("trace") == 0
        x = ctx._default_x(csr.shape[1])
        assert np.allclose(meas.y, csr.multiply(x), atol=1e-12)

    def test_derived_context_shares_trace_cache(self):
        csr = gray_scott_jacobian(4)
        ctx = ExecutionContext()
        ctx.measure("SELL using AVX512", csr)
        derived = ctx.with_nprocs(1)
        assert derived.registry is ctx.registry
        assert derived.registry.size("trace") == 1
