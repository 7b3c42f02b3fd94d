"""ExecutionContext: policy bundling, memoization, and derivation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.dispatch import (
    CSR_BASELINE,
    CSR_AVX512,
    CSR_NOVEC,
    SELL_AVX512,
    registered_variants,
)
from repro.core.sell import SellMat
from repro.machine.perf_model import MemoryMode, make_model
from repro.machine.specs import BROADWELL, KNL_7230
from repro.mat.aij import AijMat
from repro.pde.problems import gray_scott_jacobian

from ..conftest import make_random_csr


def _with_values_scaled(csr: AijMat, factor: float) -> AijMat:
    """A fresh matrix: same sparsity structure, different coefficients."""
    return AijMat(csr.shape, csr.rowptr, csr.colidx, csr.val * factor)


@pytest.fixture
def ctx() -> ExecutionContext:
    return ExecutionContext()


@pytest.fixture
def gs() -> "np.ndarray":
    return gray_scott_jacobian(8)


class TestDefaults:
    def test_defaults_to_knl_flat_mcdram_full_node(self, ctx):
        assert ctx.spec is KNL_7230
        assert ctx.memory_mode is MemoryMode.FLAT_MCDRAM
        assert ctx.nprocs == KNL_7230.cores
        assert ctx.isa.name == "AVX512"

    def test_widest_isa_tracks_the_machine(self):
        bdw = ExecutionContext(model=make_model(BROADWELL))
        assert bdw.isa.name == "AVX2"

    def test_nprocs_validated_against_the_spec(self):
        with pytest.raises(ValueError, match="out of range"):
            ExecutionContext(nprocs=KNL_7230.cores + 1)

    def test_default_variant_resolves_legend_names(self, gs):
        ctx = ExecutionContext(default_variant="SELL using AVX512")
        assert ctx.default_variant is SELL_AVX512
        assert ctx.resolve_variant(gs) is SELL_AVX512

    def test_supports_follows_the_spec_isa_set(self, ctx):
        bdw = ExecutionContext(model=make_model(BROADWELL))
        assert ctx.supports(SELL_AVX512)
        assert not bdw.supports(SELL_AVX512)
        assert bdw.supports(CSR_NOVEC)
        assert SELL_AVX512 not in bdw.supported_variants()


class TestMeasurePredict:
    def test_measure_matches_the_direct_api(self, ctx, gs):
        """A traced measurement is bit-identical to the direct route: an
        interpreted context that records and replays nothing."""
        traced = ctx.measure(SELL_AVX512, gs)
        interpreted = ExecutionContext(use_traces=False).measure(
            SELL_AVX512, gs
        )
        np.testing.assert_array_equal(traced.y, interpreted.y)
        assert traced.counters == interpreted.counters

    def test_predict_matches_the_direct_api(self, ctx, gs):
        """The context prices a scaled measurement on its own machine
        model: scaled counters and traffic, footprint working set."""
        meas = ctx.measure(CSR_BASELINE, gs)
        m, n = gs.shape
        direct = ctx.model.predict(
            meas.counters.scaled(64.0),
            CSR_BASELINE.isa,
            ctx.nprocs,
            traffic_bytes=round(meas.traffic.total_bytes * 64.0),
            working_set=round((meas.mat.memory_bytes() + 8 * (m + n)) * 64.0),
            efficiency=CSR_BASELINE.efficiency,
            useful_flops=round(meas.useful_flops * 64.0),
        )
        assert ctx.predict(meas, scale=64.0) == direct

    def test_measure_is_memoized_per_matrix_values(self, ctx, gs):
        first = ctx.measure(SELL_AVX512, gs)
        assert ctx.measure(SELL_AVX512, gs) is first
        # New coefficients, same structure: the *measurement* must rerun.
        assert (
            ctx.measure(SELL_AVX512, _with_values_scaled(gs, 2.0)) is not first
        )

    def test_explicit_input_vector_bypasses_the_cache(self, ctx, gs):
        x = np.ones(gs.shape[1])
        a = ctx.measure(SELL_AVX512, gs, x=x)
        b = ctx.measure(SELL_AVX512, gs, x=x)
        assert a is not b
        np.testing.assert_allclose(a.y, gs.multiply(x))


class TestAutotuneMemoization:
    def test_best_variant_sweeps_once_per_sparsity_signature(self, ctx, gs):
        first = ctx.best_variant(gs)
        assert ctx.autotune_sweeps == 1
        # Repeated solves on the same structure (fresh objects, new
        # values — every Newton step of the Gray-Scott) hit the cache.
        for newton_step in range(3):
            reassembled = _with_values_scaled(gs, 2.0 + newton_step)
            assert ctx.best_variant(reassembled) is first
        assert ctx.autotune_sweeps == 1
        # A genuinely different structure is a fresh sweep.
        ctx.best_variant(make_random_csr(24, density=0.3, seed=3))
        assert ctx.autotune_sweeps == 2

    def test_best_variant_picks_sell_on_gray_scott(self, ctx, gs):
        assert ctx.best_variant(gs).name == "SELL using AVX512"

    def test_best_variant_honours_an_explicit_candidate_pool(self, ctx, gs):
        pool = (CSR_BASELINE, CSR_AVX512)
        assert ctx.best_variant(gs, candidates=pool) in pool

    def test_best_variant_skips_variants_rejecting_the_matrix(self, ctx):
        # 23x23 cannot be 2x2-blocked: BAIJ must be skipped, not fatal.
        odd = make_random_csr(23, density=0.25, seed=7)
        assert ctx.best_variant(odd) in registered_variants()

    def test_tune_memoized_per_structure(self, ctx, gs):
        knobs = {"slice_heights": (8, 16), "sigmas": (1, 64)}
        first = ctx.best_plan(gs, **knobs)
        assert ctx.autotune_sweeps == 1
        assert ctx.best_plan(_with_values_scaled(gs, 3.0), **knobs) is first
        assert ctx.autotune_sweeps == 1


class TestReformat:
    def test_reformat_gray_scott_to_sell(self, gs):
        ctx = ExecutionContext(default_variant=SELL_AVX512)
        mat = ctx.reformat(gs)
        assert isinstance(mat, SellMat)
        x = np.arange(gs.shape[1], dtype=np.float64)
        np.testing.assert_allclose(mat.multiply(x), gs.multiply(x))

    def test_reformat_respects_context_slice_height(self, gs):
        ctx = ExecutionContext(default_variant=SELL_AVX512, slice_height=16)
        assert ctx.reformat(gs).slice_height == 16


class TestDerivation:
    def test_with_nprocs_shares_the_measurement_cache(self, ctx, gs):
        meas = ctx.measure(SELL_AVX512, gs)
        derived = ctx.with_nprocs(4)
        assert derived.nprocs == 4
        assert derived.measure(SELL_AVX512, gs) is meas

    def test_with_nprocs_changes_the_prediction(self, ctx, gs):
        meas = ctx.measure(CSR_BASELINE, gs)
        few = ctx.with_nprocs(4).predict(meas, scale=4096.0)
        many = ctx.predict(meas, scale=4096.0)
        assert few.gflops < many.gflops

    def test_with_model_rederives_the_isa(self, ctx):
        bdw = ctx.with_model(make_model(BROADWELL))
        assert bdw.isa.name == "AVX2"
        assert bdw.nprocs == BROADWELL.cores

    def test_derived_tuning_caches_start_fresh(self, ctx, gs):
        ctx.best_variant(gs)
        derived = ctx.with_model(make_model(BROADWELL))
        derived.best_variant(gs)
        assert derived.autotune_sweeps == 1
