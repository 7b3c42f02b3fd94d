"""Geometric multigrid: transfers, Galerkin products, V-cycles."""

from unittest import mock

import numpy as np
import pytest

from repro.faults.abft import AbftOperator
from repro.ksp.gmres import GMRES
from repro.ksp.pc.mg import (
    MGPC,
    GalerkinPlan,
    ProductPlan,
    bilinear_prolongation,
    csr_matmul,
    full_weighting_restriction,
)
from repro.mat.aij import AijMat
from repro.mat.base import Mat
from repro.mat.sparsity import signature
from repro.obs import Observer, observing
from repro.pde.grid import Grid2D
from repro.pde.problems import gray_scott_jacobian
from repro.pde.stencil import laplacian_csr

from ..conftest import make_random_csr


def shifted_laplacian(grid: Grid2D) -> AijMat:
    """I - Laplacian: SPD with the 5-point structure (solvable by MG)."""
    lap = laplacian_csr(grid)
    n = lap.shape[0]
    rows = np.arange(n, dtype=np.int64)
    return AijMat.from_coo(
        (n, n),
        np.concatenate([np.repeat(rows, lap.row_lengths()), rows]),
        np.concatenate([lap.colidx.astype(np.int64), rows]),
        np.concatenate([-lap.val, np.ones(n)]),
        sum_duplicates=True,
    )


class TestCsrMatmul:
    def test_matches_dense_product(self):
        a = make_random_csr(9, 7, density=0.3, seed=1)
        b = make_random_csr(7, 11, density=0.3, seed=2)
        c = csr_matmul(a, b)
        assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense())

    def test_dimension_mismatch_rejected(self):
        a = make_random_csr(4, 5, density=0.5)
        with pytest.raises(ValueError):
            csr_matmul(a, a)

    def test_empty_operand(self):
        a = make_random_csr(4, 4, density=0.5)
        empty = AijMat.from_coo((4, 4), np.array([]), np.array([]), np.array([]))
        assert csr_matmul(a, empty).nnz == 0

    def test_identity_is_neutral(self):
        a = make_random_csr(6, density=0.4, seed=3)
        eye = AijMat.from_dense(np.eye(6))
        assert csr_matmul(a, eye).equal(a, tol=1e-14)
        assert csr_matmul(eye, a).equal(a, tol=1e-14)


def reference_matmul(a: AijMat, b: AijMat) -> AijMat:
    """The one-shot Gustavson expansion the product plan replaced.

    Its assembly step, ``AijMat.from_coo``, is pinned against a
    test-local lexsort in ``tests/mat/test_aij.py::TestAssemblyOracle``.
    """
    ma, ka = a.shape
    kb, nb = b.shape
    if ka != kb:
        raise ValueError(f"inner dimensions differ: {ka} vs {kb}")
    if a.nnz == 0 or b.nnz == 0:
        return AijMat.from_coo(
            (ma, nb),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    a_rows = np.repeat(np.arange(ma, dtype=np.int64), a.row_lengths())
    a_cols = a.colidx.astype(np.int64)
    b_lengths = b.row_lengths()
    reps = b_lengths[a_cols]
    total = int(reps.sum())
    starts = b.rowptr[a_cols]
    cum = np.concatenate(([0], np.cumsum(reps)[:-1]))
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - cum, reps)
    out_rows = np.repeat(a_rows, reps)
    out_cols = b.colidx[flat].astype(np.int64)
    out_vals = np.repeat(a.val, reps) * b.val[flat]
    return AijMat.from_coo((ma, nb), out_rows, out_cols, out_vals,
                           sum_duplicates=True)


def assert_bit_identical(got: AijMat, want: AijMat) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got.rowptr, want.rowptr)
    assert np.array_equal(got.colidx, want.colidx)
    assert got.val.tobytes() == want.val.tobytes()


def wide_range_csr(m: int, n: int, density: float, seed: int) -> AijMat:
    """Random CSR whose values span 24 decades, so every sum of more than
    one product depends on the order it is accumulated in."""
    a = make_random_csr(m, n, density=density, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    scale = 10.0 ** rng.integers(-12, 12, a.nnz)
    return AijMat(a.shape, a.rowptr, a.colidx, a.val * scale)


def with_values(a: AijMat, seed: int) -> AijMat:
    """``a``'s structure carrying fresh random values."""
    vals = np.random.default_rng(seed).standard_normal(a.nnz)
    return AijMat(a.shape, a.rowptr, a.colidx, vals)


class TestProductPlanOracle:
    """The product plan's numeric phase reproduces the one-shot product
    bit for bit: same products, summed in the same order."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("levels", [2, 3])
    def test_galerkin_chain_on_gray_scott(self, n, levels):
        assembled = gray_scott_jacobian(n)
        # The same structure with values over 24 decades: a value map
        # summing in any other order than the one-shot product changes bits.
        scale = 10.0 ** np.random.default_rng(n).integers(-12, 12, assembled.nnz)
        wide = AijMat(assembled.shape, assembled.rowptr, assembled.colidx,
                      assembled.val * scale)
        grids = Grid2D(n, n, dof=2).hierarchy(levels)
        plan = GalerkinPlan(grids, assembled)
        for fine in (assembled, wide):
            coarse = plan.coarse_operators(fine)
            assert len(coarse) == levels - 1
            current = fine
            for got, fine_grid, coarse_grid in zip(coarse, grids, grids[1:]):
                p = bilinear_prolongation(coarse_grid, fine_grid)
                r = full_weighting_restriction(p)
                current = reference_matmul(reference_matmul(r, current), p)
                assert_bit_identical(got, current)
            mg = MGPC(grids=grids)
            mg.setup(fine)
            for level, want in zip(mg.levels[1:], coarse):
                assert_bit_identical(level.op.inner, want)

    def test_value_maps_equal_numeric_and_reject_other_operands(self):
        a = wide_range_csr(17, 23, density=0.4, seed=5)
        b = wide_range_csr(23, 11, density=0.4, seed=6)
        plan = ProductPlan(a, b)
        want = plan.numeric(a.val, b.val)
        assert_bit_identical(plan.left_fixed(a.val).numeric(b.val), want)
        assert_bit_identical(plan.right_fixed(b.val).numeric(a.val), want)
        with pytest.raises(ValueError):
            plan.left_fixed(a.val).values(a.val)
        with pytest.raises(ValueError):
            plan.right_fixed(b.val).values(np.append(a.val, 1.0))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rectangular_products(self, seed):
        a = wide_range_csr(13, 40, density=0.6, seed=seed)
        b = wide_range_csr(40, 9, density=0.6, seed=seed + 50)
        plan = ProductPlan(a, b)
        assert_bit_identical(plan.numeric(a.val, b.val), reference_matmul(a, b))
        # The case really exercises order: each entry sums ~14 products,
        # and summing them backwards changes some bits.
        products = a.val[plan.ia] * b.val[plan.ib]
        backwards = np.bincount(plan.group[::-1], weights=products[::-1])
        assert backwards.tobytes() != plan.numeric(a.val, b.val).val.tobytes()

    @pytest.mark.parametrize(
        "a, b",
        [
            (make_random_csr(4, 4, density=0.5), AijMat.from_dense(np.zeros((4, 3)))),
            (AijMat.from_dense(np.zeros((5, 4))), make_random_csr(4, 6, density=0.5)),
            (AijMat.from_dense(np.zeros((0, 5))), make_random_csr(5, 3, density=0.5)),
            (make_random_csr(4, 0), AijMat.from_dense(np.zeros((0, 3)))),
        ],
        ids=["B-empty", "A-empty", "no-rows", "no-inner"],
    )
    def test_empty_operands(self, a, b):
        c = ProductPlan(a, b).numeric(a.val, b.val)
        assert c.nnz == 0
        assert_bit_identical(c, reference_matmul(a, b))

    def test_identity_operands(self):
        a = wide_range_csr(6, 6, density=0.4, seed=3)
        eye = AijMat.from_dense(np.eye(6))
        for left, right in ((a, eye), (eye, a)):
            c = ProductPlan(left, right).numeric(left.val, right.val)
            assert_bit_identical(c, reference_matmul(left, right))
            assert_bit_identical(c, a)

    def test_replay_on_new_values_equals_a_fresh_product(self):
        a = wide_range_csr(17, 23, density=0.4, seed=5)
        b = wide_range_csr(23, 11, density=0.4, seed=6)
        plan = ProductPlan(a, b)
        for seed in range(3):
            a2, b2 = with_values(a, seed), with_values(b, seed + 10)
            replay = plan.numeric(a2.val, b2.val)
            assert_bit_identical(replay, reference_matmul(a2, b2))
            assert_bit_identical(replay, csr_matmul(a2, b2))

    def test_products_carry_the_plan_structure_signature(self):
        a = wide_range_csr(17, 23, density=0.4, seed=5)
        b = wide_range_csr(23, 11, density=0.4, seed=6)
        plan = ProductPlan(a, b)
        c = plan.numeric(a.val, b.val)
        rebuilt = AijMat(c.shape, c.rowptr.copy(), c.colidx.copy(), c.val)
        assert signature(c) == signature(rebuilt) == signature(plan)
        assert c.colidx.dtype == np.int32

    def test_replay_returns_independent_operators(self):
        a = make_random_csr(8, 8, density=0.4, seed=8)
        plan = ProductPlan(a, a)
        first = plan.numeric(a.val, a.val)
        first.rowptr[-1] = -1
        first.colidx[:] = 0
        assert_bit_identical(plan.numeric(a.val, a.val), reference_matmul(a, a))


class TestTransfers:
    def test_prolongation_rows_form_a_partition_of_unity(self):
        coarse, fine = Grid2D(4, 4), Grid2D(8, 8)
        p = bilinear_prolongation(coarse, fine)
        row_sums = p.multiply(np.ones(coarse.ndof))
        assert np.allclose(row_sums, 1.0)

    def test_prolongation_reproduces_constants_per_component(self):
        coarse, fine = Grid2D(4, 4, dof=2), Grid2D(8, 8, dof=2)
        p = bilinear_prolongation(coarse, fine)
        v = np.zeros(coarse.ndof)
        v[0::2] = 3.0  # constant in component 0 only
        out = p.multiply(v)
        assert np.allclose(out[0::2], 3.0)
        assert np.allclose(out[1::2], 0.0)

    def test_prolongation_interpolates_linear_functions_exactly_inside(self):
        """Bilinear interpolation is exact for a periodic Fourier mode
        at the coarse-grid sampling points."""
        coarse, fine = Grid2D(8, 8), Grid2D(16, 16)
        p = bilinear_prolongation(coarse, fine)
        xc, _ = coarse.point_coordinates()
        v = np.sin(2 * np.pi * xc / coarse.length)
        out = p.multiply(v)
        # Fine points that coincide with coarse points copy exactly.
        for j in range(0, 16, 2):
            for i in range(0, 16, 2):
                fi = fine.point_index(i, j)
                ci = coarse.point_index(i // 2, j // 2)
                assert out[fi] == pytest.approx(v[ci])

    def test_restriction_is_quarter_transpose(self):
        coarse, fine = Grid2D(4, 4), Grid2D(8, 8)
        p = bilinear_prolongation(coarse, fine)
        r = full_weighting_restriction(p)
        assert np.allclose(r.to_dense(), p.to_dense().T / 4.0)

    def test_wrong_grid_ratio_rejected(self):
        with pytest.raises(ValueError):
            bilinear_prolongation(Grid2D(4, 4), Grid2D(12, 12))
        with pytest.raises(ValueError):
            bilinear_prolongation(Grid2D(4, 4, dof=1), Grid2D(8, 8, dof=2))


class TestMGCycle:
    def test_galerkin_mg_accelerates_gmres(self, rng):
        grid = Grid2D(16, 16)
        a = shifted_laplacian(grid)
        b = rng.standard_normal(a.shape[0])
        plain = GMRES(rtol=1e-8).solve(a, b)
        mg = GMRES(rtol=1e-8, pc=MGPC(grids=grid.hierarchy(3))).solve(a, b)
        assert mg.reason.converged
        assert mg.iterations < plain.iterations / 2

    def test_rediscretized_mg_matches_galerkin_quality(self, rng):
        grid = Grid2D(16, 16)
        a = shifted_laplacian(grid)
        b = rng.standard_normal(a.shape[0])
        galerkin = GMRES(rtol=1e-8, pc=MGPC(grids=grid.hierarchy(3))).solve(a, b)
        redisc = GMRES(
            rtol=1e-8,
            pc=MGPC(grids=grid.hierarchy(3), operator_factory=shifted_laplacian),
        ).solve(a, b)
        assert redisc.reason.converged
        assert abs(redisc.iterations - galerkin.iterations) <= 3

    def test_w_cycle_is_at_least_as_strong_as_v(self, rng):
        grid = Grid2D(16, 16)
        a = shifted_laplacian(grid)
        b = rng.standard_normal(a.shape[0])
        v = GMRES(rtol=1e-8, pc=MGPC(grids=grid.hierarchy(3), cycle="v")).solve(a, b)
        w = GMRES(rtol=1e-8, pc=MGPC(grids=grid.hierarchy(3), cycle="w")).solve(a, b)
        assert w.iterations <= v.iterations + 1

    def test_single_level_degenerates_to_smoothing(self, rng):
        grid = Grid2D(8, 8)
        a = shifted_laplacian(grid)
        pc = MGPC(grids=[grid], coarse_sweeps=4)
        pc.setup(a)
        r = rng.standard_normal(a.shape[0])
        z = pc.apply(r)
        assert np.linalg.norm(a.multiply(z) - r) < np.linalg.norm(r)

    def test_level_matvec_accounting(self, rng):
        grid = Grid2D(16, 16)
        a = shifted_laplacian(grid)
        pc = MGPC(grids=grid.hierarchy(3))
        pc.setup(a)
        pc.apply(rng.standard_normal(a.shape[0]))
        counts = pc.matvec_counts()
        assert len(counts) == 3
        assert all(c > 0 for c in counts)
        rows = pc.rows_processed()
        # Finer levels stream more rows per cycle than coarser ones.
        assert rows[0] > rows[1] > 0

    def test_apply_before_setup_raises(self):
        with pytest.raises(RuntimeError):
            MGPC(grids=[Grid2D(8, 8)]).apply(np.ones(64))

    def test_wrong_residual_size_raises(self, rng):
        grid = Grid2D(8, 8)
        pc = MGPC(grids=grid.hierarchy(2))
        pc.setup(shifted_laplacian(grid))
        with pytest.raises(ValueError):
            pc.apply(np.ones(5))

    def test_invalid_cycle_name(self):
        with pytest.raises(ValueError):
            MGPC(cycle="f")

    def test_mg_preserves_the_operator_format(self, rng):
        """The fine operator is used as given — a SELL matrix stays SELL
        (the -dm_mat_type sell path)."""
        from repro.core.sell import SellMat
        from repro.ksp.base import CountingOperator

        grid = Grid2D(16, 16)
        a = SellMat.from_csr(shifted_laplacian(grid))
        counting = CountingOperator(a)
        pc = MGPC(grids=grid.hierarchy(2))
        pc.setup(counting)
        assert pc.levels[0].op is counting
        b = rng.standard_normal(a.shape[0])
        result = GMRES(rtol=1e-8, pc=pc).solve(counting, b)
        assert result.reason.converged
        assert counting.matvecs > 0


def textbook_cycle(pc: MGPC, lvl: int, b: np.ndarray) -> np.ndarray:
    """One V-cycle from its definition, on ``pc``'s levels and transfers.

    Every sweep is ``x + omega * D^-1 * (b - A x)`` with the product run,
    the first one from x = 0 included; nothing is done in place.
    """
    level = pc.levels[lvl]
    a = level.op.inner
    d = a.diagonal()
    scale = pc.omega * (1.0 / np.where(d != 0.0, d, 1.0))

    def smooth(x, sweeps):
        for _ in range(sweeps):
            x = x + scale * (b - a.multiply(x))
        return x

    if lvl == len(pc.levels) - 1:
        return smooth(np.zeros_like(b), pc.coarse_sweeps)
    coarse = pc.levels[lvl + 1]
    x = smooth(np.zeros_like(b), pc.smooth_down)
    ec = textbook_cycle(pc, lvl + 1, coarse.restriction.multiply(b - a.multiply(x)))
    return smooth(x + coarse.prolongation.multiply(ec), pc.smooth_up)


def _rhs(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(5)
    b = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    if kind == "negative-zeros":
        b[::3] = -0.0
    elif kind == "all-negative-zero":
        b[:] = -0.0
    elif kind == "infinities":
        b[7], b[100] = np.inf, -np.inf
    return b


def _mg(op, levels: int = 3) -> MGPC:
    pc = MGPC(grids=Grid2D(16, 16, dof=2).hierarchy(levels))
    pc.setup(op)
    return pc


class TestZeroGuessCycle:
    """The first sweep from x = 0 skips ``A·0`` and keeps every bit."""

    @pytest.mark.parametrize(
        "kind", ["normal", "negative-zeros", "all-negative-zero", "infinities"]
    )
    @pytest.mark.parametrize("levels", [1, 3])
    def test_apply_matches_the_textbook_cycle(self, kind, levels):
        a = gray_scott_jacobian(16)
        pc = _mg(a, levels)
        assert [level.zero_product_reason for level in pc.levels] == [None] * levels
        b = _rhs(kind, a.shape[0])
        with np.errstate(invalid="ignore"):  # inf - inf on the way
            assert pc.apply(b).tobytes() == textbook_cycle(pc, 0, b).tobytes()

    def test_a_nonfinite_operator_keeps_its_product(self):
        a = gray_scott_jacobian(16)
        val = a.val.copy()
        val[a.rowptr[3] + 1] = np.inf  # off the diagonal
        a = AijMat(a.shape, a.rowptr, a.colidx, val)
        # inf * 0 is NaN, so A·0 is not zero and may not be skipped.
        assert np.isnan(a.multiply(np.zeros(a.shape[1]))).any()
        pc = _mg(a)
        assert pc.levels[0].zero_product_reason == "nonfinite"
        b = _rhs("normal", a.shape[0])
        obs = Observer()
        with observing(obs):
            got = pc.apply(b)
        assert got.tobytes() == textbook_cycle(pc, 0, b).tobytes()
        assert pc.levels[0].op.skipped == 0
        fallbacks = obs.metrics.snapshot()['mg.zero_guess_fallbacks{reason="nonfinite"}']
        assert fallbacks == sum(
            level.zero_product_reason == "nonfinite" for level in pc.levels
        )

    def test_an_opaque_operator_keeps_its_product(self):
        a = gray_scott_jacobian(16)
        pc = _mg(AbftOperator(a))
        assert [level.zero_product_reason for level in pc.levels] == [
            "opaque", None, None]
        b = _rhs("normal", a.shape[0])
        obs = Observer()
        with observing(obs):
            got = pc.apply(b)
        assert got.tobytes() == textbook_cycle(pc, 0, b).tobytes()
        snap = obs.metrics.snapshot()
        assert snap['mg.zero_guess_fallbacks{reason="opaque"}'] == 1
        assert snap["ksp.skipped_products"] == 2

    def test_skipped_products_count_as_matvecs_but_do_not_run(self):
        a = gray_scott_jacobian(16)
        pc = _mg(a)
        b = _rhs("normal", a.shape[0])
        obs = Observer()
        with observing(obs), mock.patch.object(
            Mat, "multiply", autospec=True, side_effect=Mat.multiply
        ) as executed:
            pc.apply(b)
        # Modeled MatMults: 2 + 1 + 2 on each smoothed level, 8 coarse sweeps.
        assert pc.matvec_counts() == [5, 5, 8]
        assert pc.rows_processed() == [5 * 512, 5 * 128, 8 * 32]
        assert [level.op.skipped for level in pc.levels] == [1, 1, 1]
        assert obs.metrics.snapshot()["ksp.skipped_products"] == 3
        # 18 level products less 3 skipped, plus 2 restrictions and 2
        # prolongations.
        assert executed.call_count == 18 - 3 + 4
        for level in pc.levels:
            level.op.reset()
        assert [level.op.skipped for level in pc.levels] == [0, 0, 0]
