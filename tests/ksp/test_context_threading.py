"""ExecutionContext threaded through the solver stack (ksp + MG).

Solvers multiply the CSR they are given: a context neither converts the
operator a Krylov solver resolves nor the multigrid preconditioner's
coarse Galerkin operators, and runs no autotune sweep on the solve path.
So a solve with a context is byte-identical to one without.  The
multigrid preconditioner still uses the context's registry to memoize
its Galerkin plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.dispatch import SELL_AVX512
from repro.ksp.gmres import GMRES
from repro.ksp.pc.mg import MGPC, bilinear_prolongation, full_weighting_restriction
from repro.mat.aij import AijMat
from repro.pde.grid import Grid2D
from repro.pde.problems import gray_scott_jacobian, spd_laplacian

from .test_mg import assert_bit_identical, shifted_laplacian


@pytest.fixture
def system():
    a = gray_scott_jacobian(8)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(a.shape[0])
    return a, b


class TestSequentialSolvers:
    def test_gmres_reformats_and_matches_plain_solve(self, system):
        # GMRES multiplies the CSR it is given, so a context (even one
        # naming SELL) leaves the solve the plain one, byte for byte.
        a, b = system
        plain = GMRES(rtol=1e-10).solve(a, b)
        ctx = ExecutionContext(default_variant=SELL_AVX512)
        assert GMRES(context=ctx)._resolve_operator(a) is a
        threaded = GMRES(rtol=1e-10, context=ctx).solve(a, b)
        assert threaded.iterations == plain.iterations
        assert threaded.x.tobytes() == plain.x.tobytes()

    def test_autotuning_context_solves_correctly(self, system):
        a, b = system
        ctx = ExecutionContext()
        result = GMRES(rtol=1e-10, context=ctx).solve(a, b)
        assert ctx.autotune_sweeps == 0  # the solve path prices nothing
        np.testing.assert_allclose(a.multiply(result.x), b, atol=1e-6)

    def test_no_context_leaves_the_operator_alone(self, system):
        a, _ = system
        assert GMRES()._resolve_operator(a) is a


class TestMultigridThreading:
    def make_hierarchy(self, n: int = 16, levels: int = 3):
        grid = Grid2D(n, n)
        return shifted_laplacian(grid), grid.hierarchy(levels)

    def test_coarse_levels_reformatted_finest_untouched(self):
        # No level is reformatted: the finest holds the caller's operator
        # and every coarse level its CSR Galerkin product.
        a, grids = self.make_hierarchy()
        ctx = ExecutionContext(default_variant=SELL_AVX512)
        mg = MGPC(grids=grids, context=ctx)
        mg.setup(a)
        assert mg.levels[0].op.inner is a
        for level in mg.levels[1:]:
            assert type(level.op.inner) is AijMat

    def test_each_level_tunes_once_and_resetup_hits_the_cache(self):
        # Set-up tunes no level (zero sweeps); the cache a re-set-up hits
        # is the Galerkin plan memo.
        a, grids = self.make_hierarchy()
        ctx = ExecutionContext()
        mg = MGPC(grids=grids, context=ctx)
        mg.setup(a)
        mg.setup(a)  # Newton reassembly: same structure, one plan
        assert ctx.autotune_sweeps == 0
        stats = ctx.registry.stats()
        assert (stats["misses"]["galerkin"], stats["hits"]["galerkin"]) == (1, 1)
        assert set(stats["misses"]) == {"galerkin"}

    def test_context_mg_preserves_the_solve(self):
        a, grids = self.make_hierarchy()
        b = np.ones(a.shape[0])
        plain = GMRES(pc=MGPC(grids=grids), rtol=1e-10).solve(a, b)
        ctx = ExecutionContext(default_variant=SELL_AVX512)
        threaded = GMRES(pc=MGPC(grids=grids, context=ctx), rtol=1e-10).solve(
            a, b
        )
        assert threaded.iterations == plain.iterations
        assert threaded.x.tobytes() == plain.x.tobytes()

    def test_mg_without_context_stays_csr(self):
        a, grids = self.make_hierarchy()
        mg = MGPC(grids=grids)
        mg.setup(a)
        for level in mg.levels:
            assert isinstance(level.op.inner, AijMat)


class TestGalerkinReuse:
    """The Galerkin set-up plan is built once per (grids, fine structure)
    and replayed by every later MGPC on the same context."""

    N = 16

    def grids(self, n: int = N):
        return Grid2D(n, n, dof=2).hierarchy(3)

    @staticmethod
    def coarse_csr(mg: MGPC) -> list[AijMat]:
        return [level.op.inner.to_csr() for level in mg.levels[1:]]

    def plain_coarse(self, a: AijMat, grids) -> list[AijMat]:
        mg = MGPC(grids=grids)
        mg.setup(a)
        return self.coarse_csr(mg)

    def test_fresh_mgpcs_share_one_plan(self):
        grids = self.grids()
        j1 = gray_scott_jacobian(self.N)
        j2 = gray_scott_jacobian(self.N, seed=7)
        assert np.array_equal(j1.colidx, j2.colidx)
        assert j1.val.tobytes() != j2.val.tobytes()
        ctx = ExecutionContext(default_variant=SELL_AVX512)
        first, second = MGPC(grids=grids, context=ctx), MGPC(grids=grids, context=ctx)
        first.setup(j1)
        second.setup(j2)
        stats = ctx.registry.stats()
        assert stats["misses"]["galerkin"] == 1
        assert stats["hits"]["galerkin"] == 1
        for mg, a in ((first, j1), (second, j2)):
            for got, want in zip(self.coarse_csr(mg), self.plain_coarse(a, grids)):
                assert_bit_identical(got, want)

    def test_shared_transfers_are_never_written(self):
        grids = self.grids()
        jacobians = [gray_scott_jacobian(self.N, seed=s) for s in range(4)]
        ctx = ExecutionContext(default_variant=SELL_AVX512)
        setups = []
        for _ in range(3):
            for a in jacobians:
                mg = MGPC(grids=grids, context=ctx)
                mg.setup(a)
                setups.append(mg)
        assert ctx.registry.stats()["misses"]["galerkin"] == 1
        for lvl in range(1, len(grids)):
            p = bilinear_prolongation(grids[lvl], grids[lvl - 1])
            r = full_weighting_restriction(p)
            shared = setups[0].levels[lvl]
            for mg in setups:
                assert mg.levels[lvl].prolongation is shared.prolongation
                assert mg.levels[lvl].restriction is shared.restriction
            assert_bit_identical(shared.prolongation, p)
            assert_bit_identical(shared.restriction, r)

    def test_a_new_structure_misses_and_gets_its_own_operators(self):
        grids = self.grids()
        a = gray_scott_jacobian(self.N)
        # Drop one off-diagonal entry: same shape and grids, new structure.
        rows = np.repeat(np.arange(a.shape[0]), a.row_lengths())
        drop = int(np.flatnonzero(rows != a.colidx)[0])
        keep = np.arange(a.nnz) != drop
        dropped = AijMat.from_coo(a.shape, rows[keep], a.colidx[keep], a.val[keep])
        small = gray_scott_jacobian(8)
        ctx = ExecutionContext(default_variant=SELL_AVX512)
        cases = ((a, grids), (dropped, grids), (small, self.grids(8)))
        for misses, (op, op_grids) in enumerate(cases, start=1):
            mg = MGPC(grids=op_grids, context=ctx)
            mg.setup(op)
            assert ctx.registry.stats()["misses"]["galerkin"] == misses
            for got, want in zip(self.coarse_csr(mg), self.plain_coarse(op, op_grids)):
                assert_bit_identical(got, want)
        assert ctx.registry.stats()["hits"].get("galerkin", 0) == 0

    def test_rediscretized_levels_share_the_transfers(self):
        grid = Grid2D(16, 16)
        grids = grid.hierarchy(3)
        ctx = ExecutionContext(default_variant=SELL_AVX512)
        first = MGPC(grids=grids, operator_factory=shifted_laplacian, context=ctx)
        second = MGPC(grids=grids, operator_factory=shifted_laplacian, context=ctx)
        first.setup(shifted_laplacian(grid))
        second.setup(spd_laplacian(16))
        stats = ctx.registry.stats()
        assert (stats["misses"]["galerkin"], stats["hits"]["galerkin"]) == (1, 1)
        assert second.levels[1].prolongation is first.levels[1].prolongation
        for level, g in zip(second.levels[1:], grids[1:]):
            assert_bit_identical(level.op.inner.to_csr(), shifted_laplacian(g))
