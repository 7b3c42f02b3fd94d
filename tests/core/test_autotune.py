"""SELL parameter tuning through the context's one sweep."""

import pytest

from repro.core.context import ExecutionContext
from repro.core.dispatch import BAIJ_AVX512, CSR_AVX512, SELL_AVX512
from repro.obs import observing
from repro.pde.problems import gray_scott_jacobian, irregular_rows, tridiagonal

#: The knob space the paper's SELL-C-sigma trade-off is tuned over.
SELL_KNOBS = {"slice_heights": (8, 16), "sigmas": (1, 64, 256)}


def _paper_default(plans):
    """The paper's C=8, sigma=1 point of a sweep."""
    return next(p for p in plans if p.slice_height == 8 and p.sigma == 1)


def _padding(ctx, csr, plan):
    return ctx.measure(
        plan.variant, csr, slice_height=plan.slice_height, sigma=plan.sigma
    ).mat.padding_fraction


class TestTuneSell:
    def test_confirms_the_papers_choice_on_its_own_operator(self):
        """For the regular Gray-Scott matrix, C=8/sigma=1 is (within the
        sweep noise) the winner the paper hard-codes."""
        csr = gray_scott_jacobian(16)
        ctx = ExecutionContext()
        plan = ctx.best_plan(csr, scale=64.0)
        assert (plan.variant, plan.slice_height, plan.sigma) == (
            SELL_AVX512, 8, 1
        )
        plans = ctx.sweep(csr, (SELL_AVX512,), scale=64.0, **SELL_KNOBS)
        best = ctx.best_plan(csr, (SELL_AVX512,), scale=64.0, **SELL_KNOBS)
        # The best candidate is at least as good as, and not meaningfully
        # better than, the paper default: sorting a regular matrix buys
        # nothing.
        assert best.gflops <= _paper_default(plans).gflops * 1.02
        assert _padding(ctx, csr, best) == 0.0

    def test_discovers_sorting_on_irregular_matrices(self):
        """On a power-law matrix the sweep prefers a sorted configuration
        (sigma > 1) — padding dominates unsorted SELL."""
        csr = irregular_rows(512, min_len=2, max_len=48, seed=9)
        ctx = ExecutionContext()
        plans = ctx.sweep(csr, (SELL_AVX512,), **SELL_KNOBS)
        best = ctx.best_plan(csr, (SELL_AVX512,), **SELL_KNOBS)
        assert best.sigma > 1
        default = _paper_default(plans)
        assert _padding(ctx, csr, best) < _padding(ctx, csr, default)

    def test_sweep_contains_every_admissible_candidate(self):
        csr = gray_scott_jacobian(8)
        plans = ExecutionContext().sweep(
            csr, (SELL_AVX512,), slice_heights=(8,), sigmas=(1, 32)
        )
        assert {(p.slice_height, p.sigma) for p in plans} == {(8, 1), (8, 32)}

    def test_windows_off_the_slice_grid_are_skipped(self):
        # sigma must be a multiple of C: sigma=8 fits C=8 but not C=16.
        csr = gray_scott_jacobian(4)
        plans = ExecutionContext().sweep(
            csr, (SELL_AVX512,), slice_heights=(8, 16), sigmas=(1, 8)
        )
        assert [(p.slice_height, p.sigma) for p in plans] == [
            (8, 1), (8, 8), (16, 1)
        ]

    def test_empty_sweep_raises(self):
        csr = gray_scott_jacobian(4)
        ctx = ExecutionContext()
        for axis in ("slice_heights", "sigmas", "block_shapes"):
            with pytest.raises(ValueError, match=axis):
                ctx.sweep(csr, **{axis: ()})
            with pytest.raises(ValueError, match=axis):
                ctx.best_plan(csr, **{axis: ()})

    def test_the_slice_height_axis_reaches_the_plan(self):
        csr = gray_scott_jacobian(8)
        ctx = ExecutionContext()
        plan = ctx.best_plan(csr, (SELL_AVX512,), slice_heights=(16,))
        assert plan.slice_height == 16
        assert ctx.reformat(csr).slice_height == 8  # default knobs untouched


class TestOneSweep:
    """Knobs are swept only for the formats that consume them."""

    def test_unsliced_formats_are_measured_once(self):
        csr = gray_scott_jacobian(8)
        plans = ExecutionContext().sweep(
            csr, (CSR_AVX512, SELL_AVX512), slice_heights=(8, 16),
            sigmas=(1, 64),
        )
        csr_points = [(p.slice_height, p.sigma) for p in plans
                      if p.variant is CSR_AVX512]
        assert csr_points == [(8, 1)]  # the first C and the first sigma
        assert len(plans) == 1 + 4

    def test_sigma_sweep_measures_each_distinct_kernel_once(self):
        """14 supported KNL variants, 5 of them SELL/ESB: 14 + 5 distinct
        kernels for two sorting scopes (the old per-variant loop re-ran
        the 9 sigma-blind ones, 28 in all) and the same winner."""
        csr = gray_scott_jacobian(8)
        ctx = ExecutionContext()
        plan = ctx.best_plan(csr, sigmas=(1, 64))
        assert ctx.registry.stats()["misses"]["measure"] == 19
        assert (plan.variant, plan.slice_height, plan.sigma) == (
            SELL_AVX512, 8, 1
        )
        assert plan.block_shape is None
        assert plan.gflops == ctx.predict(ctx.measure(SELL_AVX512, csr)).gflops

    def test_best_plan_is_the_first_maximum_of_the_sweep(self):
        csr = irregular_rows(160, min_len=2, max_len=40, seed=3)
        ctx = ExecutionContext(nprocs=1)
        plans = ctx.sweep(csr, **SELL_KNOBS)
        top = max(p.gflops for p in plans)
        first = next(p for p in plans if p.gflops == top)
        assert ctx.best_plan(csr, **SELL_KNOBS) == first

    def test_wider_slice_heights_never_reuse_the_narrow_verdict(self):
        csr = gray_scott_jacobian(8)
        ctx = ExecutionContext()
        narrow = ctx.best_plan(csr, (SELL_AVX512,), slice_heights=(16,))
        wide = ctx.best_plan(csr, (SELL_AVX512,), slice_heights=(16, 8))
        assert ctx.autotune_sweeps == 2
        assert narrow.slice_height == 16
        assert wide is not narrow
        ctx.best_plan(csr, (SELL_AVX512,), slice_heights=(16, 8))
        assert ctx.autotune_sweeps == 2  # same knob space: cache hit

    def test_rejected_points_are_counted_per_variant(self):
        """BAIJ on an odd dimension and a sigma off the slice grid are
        skipped and counted; observing changes no plan."""
        csr = tridiagonal(9)
        pool = (BAIJ_AVX512, SELL_AVX512)
        knobs = {"slice_heights": (8, 16), "sigmas": (1, 8)}

        bare = ExecutionContext().sweep(csr, pool, **knobs)
        with observing() as obs:
            seen = ExecutionContext().sweep(csr, pool, **knobs)
        assert seen == bare
        assert [(p.variant, p.slice_height, p.sigma) for p in seen] == [
            (SELL_AVX512, 8, 1), (SELL_AVX512, 8, 8), (SELL_AVX512, 16, 1)
        ]
        skips = {k: v for k, v in obs.metrics.snapshot().items()
                 if k.startswith("context.sweep_skips")}
        assert skips == {
            'context.sweep_skips{reason="rejected",variant="BAIJ using AVX512"}': 1,
            'context.sweep_skips{reason="rejected",variant="SELL using AVX512"}': 1,
        }
