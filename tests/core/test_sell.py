"""The SELL format: layout, padding, sorting, conversions (paper Sec 5)."""

import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bench.format_shootout import families
from repro.core.context import ExecutionContext
from repro.core.sell import SellMat, SellPlan
from repro.mat.aij import AijMat
from repro.pde.problems import gray_scott_jacobian, irregular_rows

from ..conftest import make_random_csr


def figure6_matrix() -> AijMat:
    """A small matrix with known uneven row lengths (like Figure 6)."""
    rows = np.array([0, 0, 0, 1, 2, 2, 3, 4, 4, 4, 4, 5, 6, 7, 7])
    cols = np.array([0, 2, 5, 1, 0, 3, 4, 1, 2, 5, 7, 6, 3, 0, 7])
    vals = np.arange(1.0, 16.0)
    return AijMat.from_coo((8, 8), rows, cols, vals)


def reference_from_csr(csr: AijMat, c: int, sigma: int):
    """The per-row SELL conversion, kept as an oracle for the scatter.

    Returns ``(sliceptr, val, colidx, rlen, perm)`` built one row at a
    time: per-window stable length sort, per-slice width, and each row's
    entries and padding written lane by lane.
    """
    m = csr.shape[0]
    lengths = csr.row_lengths().astype(np.int64)
    perm = None
    if sigma > 1:
        perm = np.empty(m, dtype=np.int64)
        for start in range(0, m, sigma):
            stop = min(start + sigma, m)
            order = np.argsort(-lengths[start:stop], kind="stable")
            perm[start:stop] = np.arange(start, stop)[order]
    rows = perm if perm is not None else np.arange(m)
    nslices = (m + c - 1) // c
    sliceptr = np.zeros(nslices + 1, dtype=np.int64)
    widths = np.zeros(nslices, dtype=np.int64)
    for s in range(nslices):
        chunk = lengths[rows[s * c : (s + 1) * c]]
        widths[s] = int(chunk.max())
        sliceptr[s + 1] = sliceptr[s] + widths[s] * c
    val = np.zeros(int(sliceptr[-1]))
    colidx = np.zeros(int(sliceptr[-1]), dtype=np.int32)
    for s in range(nslices):
        for i in range(min(c, m - s * c)):
            cols, vals = csr.get_row(int(rows[s * c + i]))
            for j in range(int(widths[s])):
                slot = sliceptr[s] + j * c + i
                if j < cols.shape[0]:
                    val[slot], colidx[slot] = vals[j], cols[j]
                else:
                    colidx[slot] = cols[-1] if cols.shape[0] else 0
    return sliceptr, val, colidx, lengths, perm


def _with_empty_rows(m: int, n: int, seed: int) -> AijMat:
    """Random rows with every third row emptied."""
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((m, n)) < 0.3, rng.standard_normal((m, n)), 0.0)
    dense[::3] = 0.0
    return AijMat.from_dense(dense)


ORACLE_MATRICES = {
    "figure6": figure6_matrix,
    "empty-rows": lambda: _with_empty_rows(37, 29, seed=11),
    "partial-slice": lambda: make_random_csr(43, density=0.2, seed=12),
    "wide": lambda: make_random_csr(9, 70, density=0.5, seed=13),
    "long-tail": lambda: irregular_rows(101, max_len=30, seed=14),
    "0xn": lambda: AijMat.from_coo((0, 5), [], [], []),
    "mx0": lambda: AijMat.from_coo((6, 0), [], [], []),
    **{f"shootout-{name}": (lambda mat=mat: mat) for name, mat in families().items()},
}


class TestConversionOracle:
    """The vectorized ``from_csr`` reproduces the per-row loop bit for bit."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MATRICES))
    @pytest.mark.parametrize("c", [1, 4, 8, 16])
    @pytest.mark.parametrize("windows", [0, 1, 2, 5])
    def test_matches_the_per_row_reference(self, name, c, windows):
        csr = ORACLE_MATRICES[name]()
        sigma = c * windows if windows else 1
        sell = SellMat.from_csr(csr, slice_height=c, sigma=sigma)
        assert_matches_reference(sell, csr, c, sigma)


def assert_matches_reference(sell: SellMat, csr: AijMat, c: int, sigma: int) -> None:
    """``sell`` is byte-identical to the per-row conversion of ``csr``."""
    sliceptr, val, colidx, rlen, perm = reference_from_csr(csr, c, sigma)
    assert np.array_equal(sell.sliceptr, sliceptr)
    assert sell.val.tobytes() == val.tobytes()
    assert sell.colidx.dtype == np.int32
    assert np.array_equal(sell.colidx, colidx)
    assert np.array_equal(sell.rlen, rlen)
    if perm is None:
        assert sell.perm is None
    else:
        assert np.array_equal(sell.perm, perm)
    if sell.val.size:  # an empty view's data pointer means nothing
        assert sell.val.ctypes.data % 64 == 0
        assert sell.colidx.ctypes.data % 64 == 0


def with_new_values(csr: AijMat, seed: int) -> AijMat:
    """The same structure as ``csr`` with fresh random values."""
    values = np.random.default_rng(seed).standard_normal(csr.nnz)
    return AijMat(csr.shape, csr.rowptr.copy(), csr.colidx.copy(), values)


class TestSellPlan:
    """A plan built on one matrix refills every matrix of its structure
    byte-identically to a fresh conversion."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MATRICES))
    @pytest.mark.parametrize("c", [1, 4, 8, 16])
    @pytest.mark.parametrize("windows", [0, 1, 2, 5])
    def test_refill_matches_the_per_row_reference(self, name, c, windows):
        csr = ORACLE_MATRICES[name]()
        sigma = c * windows if windows else 1
        plan = SellPlan(with_new_values(csr, 1), slice_height=c, sigma=sigma)
        for source in (csr, with_new_values(csr, 2), csr):
            assert_matches_reference(plan.refill(source), source, c, sigma)

    def test_refill_rejects_another_structure(self):
        csr = make_random_csr(20, density=0.3, seed=3)
        plan = SellPlan(csr, slice_height=4)
        rows = np.repeat(np.arange(20), csr.row_lengths())
        dropped = AijMat.from_coo(csr.shape, rows[1:], csr.colidx[1:], csr.val[1:])
        wider = AijMat((20, 21), csr.rowptr.copy(), csr.colidx.copy(), csr.val)
        for other in (dropped, wider):
            with pytest.raises(ValueError, match="sparsity structure"):
                plan.refill(other)

    def test_shared_structure_is_read_only(self):
        csr = irregular_rows(40, max_len=12, seed=9)
        plan = SellPlan(csr, slice_height=4, sigma=8)
        a, b = plan.refill(csr), plan.refill(with_new_values(csr, 3))
        for name in ("sliceptr", "colidx", "rlen", "perm"):
            shared = getattr(plan, name)
            assert getattr(a, name) is shared and getattr(b, name) is shared
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 1
        assert not np.shares_memory(a.val, b.val)
        assert_matches_reference(plan.refill(csr), csr, 4, 8)

    def test_converted_matrix_returns_its_source(self):
        csr = irregular_rows(40, max_len=12, seed=10)
        sell = SellMat.from_csr(csr, 4, sigma=8)
        assert sell.to_csr() is csr
        # Built from arrays, a SELL matrix rebuilds the same CSR.
        rebuilt = SellMat(
            sell.shape, 4, sell.sliceptr, sell.val, sell.colidx, sell.rlen,
            perm=sell.perm, sigma=8,
        ).to_csr()
        assert rebuilt is not csr
        for name in ("rowptr", "colidx", "val"):
            assert getattr(rebuilt, name).tobytes() == getattr(csr, name).tobytes()
        # The reference is weak: the conversion does not keep its source
        # alive, and then rebuilds it.
        source = weakref.ref(csr)
        del csr
        assert source() is None
        assert sell.to_csr().val.tobytes() == rebuilt.val.tobytes()

    def test_context_converts_each_operator_object_once(self):
        ctx = ExecutionContext(default_variant="SELL using AVX512")
        a, b = gray_scott_jacobian(8, seed=1), gray_scott_jacobian(8, seed=2)
        sell_a, sell_b = ctx.reformat(a), ctx.reformat(b)
        assert ctx.reformat(a) is sell_a and ctx.reformat(b) is sell_b
        assert sell_a.colidx is sell_b.colidx
        assert sell_a.to_csr() is a and sell_b.to_csr() is b
        stats = ctx.registry.stats()
        assert stats["misses"]["prepare"] == 1 and stats["hits"]["prepare"] == 3


def previous_coo_view(sell: SellMat) -> sp.coo_matrix:
    """The COO view over the padded storage that SELL products ran on
    before they moved to the source CSR's handle, kept as an oracle."""
    return sp.coo_matrix((sell.val, (sell.row_map, sell.colidx)), shape=sell.shape)


PRODUCT_MATRICES = {
    name: ORACLE_MATRICES[name]
    for name in ("figure6", "empty-rows", "partial-slice", "long-tail")
}
PRODUCT_MATRICES["gray-scott"] = lambda: gray_scott_jacobian(8, seed=4)


class TestProductPath:
    """SELL products run on the source CSR's handle; for finite inputs
    that is the same sequential row sum the padded COO view computed."""

    @pytest.mark.parametrize("name", sorted(PRODUCT_MATRICES))
    @pytest.mark.parametrize("c", [1, 4, 8, 16])
    @pytest.mark.parametrize("windows", [0, 1, 2])
    def test_finite_products_match_the_previous_coo_view(self, name, c, windows):
        csr = PRODUCT_MATRICES[name]()
        sell = SellMat.from_csr(csr, slice_height=c, sigma=c * windows if windows else 1)
        view = previous_coo_view(sell)
        rng = np.random.default_rng(c + windows)
        x = rng.standard_normal(csr.shape[1])
        xs = rng.standard_normal((csr.shape[1], 3))
        assert sell.multiply(x).tobytes() == (view @ x).tobytes()
        assert sell.multiply_multi(xs).tobytes() == np.asarray(view @ xs).tobytes()
        assert sell.diagonal().tobytes() == view.diagonal().tobytes()

    def test_infinite_input_no_longer_meets_padding(self):
        """A padded slot repeats its row's last column, so the COO view
        computed 0 * inf = NaN there; the CSR handle has no padded slots
        and keeps the row's true value, exactly as CSR does."""
        csr = figure6_matrix()
        sell = SellMat.from_csr(csr, slice_height=4)
        x = np.ones(8)
        x[1] = np.inf
        y, old = sell.multiply(x), previous_coo_view(sell) @ x
        # Row 1 is the single entry (1, 1) = 4.0 padded to width 3 with
        # column 1; row 4 reaches column 1 too, but has no padding.
        assert y[1] == np.inf and np.isnan(old[1])
        assert y[4] == old[4] == np.inf
        assert y.tobytes() == csr.multiply(x).tobytes()
        finite = np.isfinite(old)
        assert y[finite].tobytes() == old[finite].tobytes()


class TestLayout:
    def test_slice_widths_are_per_slice_maxima(self):
        sell = SellMat.from_csr(figure6_matrix(), slice_height=4)
        # Rows 0-3 have lengths 3,1,2,1 -> width 3; rows 4-7: 4,1,1,2 -> 4.
        assert sell.nslices == 2
        assert sell.slice_width(0) == 3
        assert sell.slice_width(1) == 4

    def test_column_major_slot_positions(self):
        """Element (lane i, column j) of slice s sits at base + j*C + i."""
        csr = figure6_matrix()
        sell = SellMat.from_csr(csr, slice_height=4)
        for s in range(sell.nslices):
            base = int(sell.sliceptr[s])
            for i in range(4):
                row = s * 4 + i
                cols, vals = csr.get_row(row)
                for j in range(cols.shape[0]):
                    slot = base + j * 4 + i
                    assert sell.val[slot] == vals[j]
                    assert sell.colidx[slot] == cols[j]

    def test_padding_reuses_the_rows_last_column(self):
        """Section 5.5: padded indices copy a local nonzero's column."""
        csr = figure6_matrix()
        sell = SellMat.from_csr(csr, slice_height=4)
        # Row 1 has a single entry at column 1; its padded slots (j=1,2)
        # must carry column 1 and value 0.
        base = int(sell.sliceptr[0])
        for j in (1, 2):
            slot = base + j * 4 + 1
            assert sell.val[slot] == 0.0
            assert sell.colidx[slot] == 1

    def test_padded_entries_count(self):
        sell = SellMat.from_csr(figure6_matrix(), slice_height=4)
        # Slice 0: 4*3 slots for 7 nnz -> 5 pads; slice 1: 16 for 8 -> 8.
        assert sell.padded_entries == 13
        assert sell.padding_fraction == pytest.approx(13 / 28)

    def test_trailing_partial_slice_is_padded_to_full_height(self):
        csr = make_random_csr(10, density=0.4, seed=1)
        sell = SellMat.from_csr(csr, slice_height=8)
        assert sell.nslices == 2
        # Slots for 16 logical rows exist even though only 10 are real.
        assert sell.sliceptr[-1] % 8 == 0

    def test_rlen_stores_true_row_lengths(self):
        csr = figure6_matrix()
        sell = SellMat.from_csr(csr)
        assert np.array_equal(sell.rlen, csr.row_lengths())

    def test_storage_is_aligned(self):
        sell = SellMat.from_csr(figure6_matrix())
        assert sell.val.ctypes.data % 64 == 0
        assert sell.colidx.ctypes.data % 64 == 0

    def test_regular_matrix_has_no_padding(self, gray_scott_small):
        """Section 7: Gray-Scott in SELL has very few padded zeros."""
        sell = SellMat.from_csr(gray_scott_small, slice_height=8)
        assert sell.padded_entries == 0

    def test_slice_height_one_is_csr_storage(self):
        """Section 2.5: C=1 makes sliced ELLPACK identical to CSR."""
        csr = figure6_matrix()
        sell = SellMat.from_csr(csr, slice_height=1)
        assert sell.padded_entries == 0
        assert np.array_equal(sell.val, csr.val)
        assert np.array_equal(sell.colidx, csr.colidx)


class TestOperations:
    @pytest.mark.parametrize("c", [1, 2, 4, 8, 16])
    def test_multiply_matches_csr_for_any_height(self, c):
        csr = make_random_csr(21, density=0.3, seed=2)
        x = np.random.default_rng(3).standard_normal(21)
        sell = SellMat.from_csr(csr, slice_height=c)
        assert np.allclose(sell.multiply(x), csr.multiply(x))

    def test_round_trip_to_csr(self):
        csr = figure6_matrix()
        assert SellMat.from_csr(csr, 4).to_csr().equal(csr, tol=0.0)

    def test_diagonal(self, small_csr):
        sell = SellMat.from_csr(small_csr)
        assert np.allclose(sell.diagonal(), small_csr.diagonal())

    def test_memory_bytes_accounts_for_padding(self):
        sell = SellMat.from_csr(figure6_matrix(), 4)
        slots = int(sell.sliceptr[-1])
        expected = slots * 12 + sell.sliceptr.shape[0] * 8 + 8 * 8
        assert sell.memory_bytes() == expected

    def test_empty_matrix(self):
        empty = AijMat.from_coo((0, 0), np.array([]), np.array([]), np.array([]))
        sell = SellMat.from_csr(empty)
        assert sell.nslices == 0
        assert sell.multiply(np.zeros(0)).shape == (0,)


class TestSigmaSorting:
    def test_sorting_reduces_padding_on_irregular_matrices(self):
        csr = irregular_rows(128, max_len=32, seed=4)
        plain = SellMat.from_csr(csr, 8, sigma=1)
        windowed = SellMat.from_csr(csr, 8, sigma=64)
        assert windowed.padded_entries < plain.padded_entries

    def test_sorted_multiply_still_matches(self):
        csr = irregular_rows(100, max_len=24, seed=5)
        x = np.random.default_rng(6).standard_normal(100)
        for sigma in (8, 32, 96):
            sell = SellMat.from_csr(csr, 8, sigma=sigma)
            assert np.allclose(sell.multiply(x), csr.multiply(x)), sigma

    def test_perm_is_a_window_local_permutation(self):
        csr = irregular_rows(64, max_len=16, seed=7)
        sell = SellMat.from_csr(csr, 8, sigma=16)
        assert sell.perm is not None
        for start in range(0, 64, 16):
            window = sell.perm[start : start + 16]
            assert sorted(window.tolist()) == list(range(start, start + 16))

    def test_sorted_round_trip(self):
        csr = irregular_rows(60, max_len=16, seed=8)
        sell = SellMat.from_csr(csr, 4, sigma=12)
        assert sell.to_csr().equal(csr, tol=0.0)

    def test_sigma_must_be_a_multiple_of_the_slice_height(self):
        with pytest.raises(ValueError):
            SellMat.from_csr(figure6_matrix(), 4, sigma=6)

    def test_sigma_one_has_no_permutation(self):
        assert SellMat.from_csr(figure6_matrix()).perm is None


class TestValidation:
    def test_bad_slice_height(self):
        with pytest.raises(ValueError):
            SellMat.from_csr(figure6_matrix(), 0)

    def test_inconsistent_sliceptr_rejected(self):
        csr = figure6_matrix()
        good = SellMat.from_csr(csr, 4)
        bad_ptr = good.sliceptr.copy()
        bad_ptr[1] += 1  # no longer a multiple of the height
        with pytest.raises(ValueError):
            SellMat(
                csr.shape, 4, bad_ptr, good.val, good.colidx, good.rlen
            )
