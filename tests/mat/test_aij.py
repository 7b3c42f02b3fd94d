"""AIJ/CSR: the reference format everything else converts through."""

import numpy as np
import pytest

from repro.mat.aij import AijMat, CooPlan, sort_coo
from repro.mat.base import MatrixShapeError
from repro.mat.sparsity import signature

from ..conftest import make_random_csr


def reference_from_coo(m, rows, cols, vals, sum_duplicates=True):
    """Two-key ``lexsort`` COO assembly, kept as an oracle for ``from_coo``."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if sum_duplicates and rows.size:
        keep = np.ones(rows.size, dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        vals = np.bincount(np.cumsum(keep) - 1, weights=vals)
        rows, cols = rows[keep], cols[keep]
    rowptr = np.zeros(m + 1, dtype=np.int64)
    np.add.at(rowptr, rows + 1, 1)
    return np.cumsum(rowptr), cols, vals


def _heavy_duplicates(seed: int):
    """Few distinct (row, col) pairs, each hit many times in random order.

    Values of wildly different magnitudes make every duplicate sum depend
    on the order it is accumulated in.
    """
    rng = np.random.default_rng(seed)
    k = 400
    rows = rng.integers(0, 5, k)
    cols = rng.integers(0, 4, k)
    vals = rng.standard_normal(k) * 10.0 ** rng.integers(-12, 12, k)
    return (5, 4), rows, cols, vals


def _unsorted(seed: int):
    rng = np.random.default_rng(seed)
    k = 300
    return (
        (40, 33),
        rng.integers(0, 40, k),
        rng.integers(0, 33, k),
        rng.standard_normal(k),
    )


COO_CASES = {
    "unsorted": lambda: _unsorted(21),
    "heavy-duplicates": lambda: _heavy_duplicates(22),
    "reverse-order": lambda: ((4, 4), [3, 3, 2, 1, 0, 0], [3, 1, 2, 0, 3, 0], np.arange(6.0)),
    "empty-triplets": lambda: ((3, 7), [], [], []),
    "m=0": lambda: ((0, 4), [], [], []),
}


class TestAssemblyOracle:
    """The fused-key ``from_coo`` reproduces the two-key lexsort bit for bit."""

    @pytest.mark.parametrize("name", sorted(COO_CASES))
    @pytest.mark.parametrize("sum_duplicates", [True, False])
    def test_matches_the_lexsort_reference(self, name, sum_duplicates):
        shape, rows, cols, vals = COO_CASES[name]()
        a = AijMat.from_coo(shape, rows, cols, vals, sum_duplicates=sum_duplicates)
        rowptr, ref_cols, ref_vals = reference_from_coo(
            shape[0], rows, cols, vals, sum_duplicates
        )
        assert np.array_equal(a.rowptr, rowptr)
        assert np.array_equal(a.colidx, ref_cols)
        assert a.val.tobytes() == ref_vals.tobytes()

    def test_duplicate_sums_depend_on_order(self):
        """The heavy-duplicate case really does exercise summation order."""
        shape, rows, cols, vals = _heavy_duplicates(22)
        flipped = slice(None, None, -1)
        a = AijMat.from_coo(shape, rows, cols, vals)
        b = AijMat.from_coo(shape, rows[flipped], cols[flipped], vals[flipped])
        assert np.array_equal(a.colidx, b.colidx)
        assert a.val.tobytes() != b.val.tobytes()

    def test_out_of_range_row_rejected(self):
        with pytest.raises(IndexError):
            AijMat.from_coo((2, 2), np.array([2]), np.array([0]), np.array([1.0]))


def previous_from_coo(shape, rows, cols, vals, sum_duplicates=True):
    """The ``from_coo`` body before assembly plans, kept as an oracle."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    order, group, rowptr, colidx = sort_coo(shape, rows, cols, sum_duplicates)
    vals = vals[order]
    if group is not None:
        vals = np.bincount(group, weights=vals, minlength=colidx.shape[0])
    return AijMat(shape, rowptr, colidx, vals)


class TestCooPlan:
    """One plan assembles every value set bit-identically to a fresh build."""

    @pytest.mark.parametrize("name", sorted(COO_CASES))
    @pytest.mark.parametrize("sum_duplicates", [True, False])
    def test_assemble_matches_the_previous_from_coo(self, name, sum_duplicates):
        shape, rows, cols, vals = COO_CASES[name]()
        plan = CooPlan(shape, rows, cols, sum_duplicates)
        rng = np.random.default_rng(5)
        fresh = rng.standard_normal(len(vals)) * 10.0 ** rng.integers(-9, 9, len(vals))
        for values in (vals, fresh, vals):
            got = plan.assemble(values)
            want = previous_from_coo(shape, rows, cols, values, sum_duplicates)
            assert got.shape == want.shape
            assert got.rowptr.tobytes() == want.rowptr.tobytes()
            assert got.colidx.tobytes() == want.colidx.tobytes()
            assert got.val.tobytes() == want.val.tobytes()

    def test_results_carry_the_structure_signature_and_own_their_arrays(self):
        shape, rows, cols, vals = _unsorted(23)
        plan = CooPlan(shape, rows, cols)
        a, b = plan.assemble(vals), plan.assemble(2.0 * vals)
        rebuilt = AijMat(shape, a.rowptr.copy(), a.colidx.copy(), a.val)
        assert signature(a) == signature(b) == signature(rebuilt)
        assert signature(a, include_values=True) != signature(b, include_values=True)
        for array in ("rowptr", "colidx", "val"):
            assert not np.shares_memory(getattr(a, array), getattr(b, array))
        assert not np.shares_memory(a.rowptr, plan.rowptr)
        assert not np.shares_memory(a.colidx, plan.colidx)

    def test_value_count_must_match_the_triplets(self):
        shape, rows, cols, vals = _unsorted(24)
        plan = CooPlan(shape, rows, cols)
        with pytest.raises(ValueError, match="expected 300 values"):
            plan.assemble(vals[:-1])

    @pytest.mark.parametrize(
        "shape, rows, cols, error",
        [
            ((2, 2), [0], [2], IndexError),
            ((2, 2), [0], [-1], IndexError),
            ((2, 2), [2], [0], IndexError),
            ((-1, 2), [], [], ValueError),
        ],
        ids=["column-past-end", "negative-column", "row-past-end", "negative-shape"],
    )
    def test_indices_are_checked_when_the_plan_is_built(self, shape, rows, cols, error):
        with pytest.raises(error):
            CooPlan(shape, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))


class TestConstruction:
    def test_from_coo_sums_duplicates(self):
        a = AijMat.from_coo(
            (2, 2),
            np.array([0, 0, 1]),
            np.array([1, 1, 0]),
            np.array([2.0, 3.0, 4.0]),
        )
        dense = a.to_dense()
        assert dense[0, 1] == 5.0
        assert dense[1, 0] == 4.0
        assert a.nnz == 2

    def test_from_coo_duplicates_accumulate_in_the_product(self):
        a = AijMat.from_coo(
            (2, 2), np.array([0, 0]), np.array([1, 1]), np.array([2.0, 3.0])
        )
        assert a.nnz == 1
        assert np.array_equal(a.multiply(np.array([0.0, 1.0])), [5.0, 0.0])

    @pytest.mark.parametrize("col", [2, -1])
    def test_from_coo_rejects_out_of_range_columns(self, col):
        with pytest.raises(IndexError, match="column index out of range"):
            AijMat.from_coo((2, 2), np.array([0]), np.array([col]), np.array([1.0]))

    def test_from_coo_rejects_nonconforming_values(self):
        with pytest.raises(ValueError, match="expected 1 values"):
            AijMat.from_coo((2, 2), np.array([0]), np.array([0]), np.ones(2))

    def test_from_coo_keeps_duplicates_when_asked(self):
        a = AijMat.from_coo(
            (2, 2),
            np.array([0, 0]),
            np.array([1, 1]),
            np.array([2.0, 3.0]),
            sum_duplicates=False,
        )
        assert a.nnz == 2
        assert a.to_dense()[0, 1] == 5.0  # dense accumulation still sums

    def test_columns_are_sorted_within_rows(self):
        a = AijMat.from_coo(
            (1, 5),
            np.array([0, 0, 0]),
            np.array([4, 0, 2]),
            np.array([1.0, 2.0, 3.0]),
        )
        assert np.array_equal(a.colidx, [0, 2, 4])

    def test_from_dense_round_trip(self, rng):
        dense = rng.standard_normal((7, 9)) * (rng.random((7, 9)) < 0.3)
        a = AijMat.from_dense(dense)
        assert np.allclose(a.to_dense(), dense)

    def test_storage_is_aligned(self, small_csr):
        assert small_csr.val.ctypes.data % 64 == 0
        assert small_csr.colidx.ctypes.data % 64 == 0

    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(ValueError):
            AijMat((2, 2), np.array([0, 1]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            AijMat((2, 2), np.array([0, 2, 1]), np.array([0, 1]), np.ones(2))

    def test_out_of_range_column_rejected(self):
        with pytest.raises(IndexError):
            AijMat((2, 2), np.array([0, 1, 1]), np.array([5]), np.array([1.0]))

    def test_scipy_round_trip(self, small_csr):
        back = AijMat.from_scipy(small_csr.to_scipy())
        assert back.equal(small_csr, tol=0.0)


class TestMultiply:
    def test_matches_dense(self, rng):
        for seed in range(5):
            a = make_random_csr(15, 11, density=0.3, seed=seed)
            x = rng.standard_normal(11)
            assert np.allclose(a.multiply(x), a.to_dense() @ x)

    def test_empty_rows_produce_zeros(self):
        a = AijMat.from_coo((4, 4), np.array([1]), np.array([2]), np.array([3.0]))
        y = a.multiply(np.ones(4))
        assert np.array_equal(y, [0.0, 3.0, 0.0, 0.0])

    def test_empty_matrix(self):
        a = AijMat.from_coo((3, 3), np.array([]), np.array([]), np.array([]))
        assert np.array_equal(a.multiply(np.ones(3)), np.zeros(3))

    def test_output_buffer_is_reused(self, small_csr, rng):
        x = rng.standard_normal(small_csr.shape[1])
        y = np.empty(small_csr.shape[0])
        out = small_csr.multiply(x, y)
        assert out is y

    def test_nonconforming_input_raises(self, small_csr):
        with pytest.raises(MatrixShapeError):
            small_csr.multiply(np.ones(small_csr.shape[1] + 1))
        with pytest.raises(MatrixShapeError):
            small_csr.multiply(
                np.ones(small_csr.shape[1]), np.ones(small_csr.shape[0] + 2)
            )


class TestHelpers:
    def test_row_lengths(self):
        a = AijMat.from_coo(
            (3, 3), np.array([0, 0, 2]), np.array([0, 1, 2]), np.ones(3)
        )
        assert np.array_equal(a.row_lengths(), [2, 0, 1])

    def test_get_row(self, small_csr):
        cols, vals = small_csr.get_row(3)
        lo, hi = small_csr.rowptr[3], small_csr.rowptr[4]
        assert cols.shape[0] == hi - lo

    def test_diagonal(self, rng):
        dense = np.diag(np.arange(1.0, 5.0))
        dense[0, 3] = 7.0
        a = AijMat.from_dense(dense)
        assert np.array_equal(a.diagonal(), [1.0, 2.0, 3.0, 4.0])

    def test_diagonal_with_missing_entries(self):
        a = AijMat.from_coo((3, 3), np.array([0]), np.array([1]), np.array([5.0]))
        assert np.array_equal(a.diagonal(), np.zeros(3))

    def test_transpose(self, small_csr, rng):
        x = rng.standard_normal(small_csr.shape[0])
        t = small_csr.transpose()
        assert np.allclose(t.multiply(x), small_csr.to_dense().T @ x)

    def test_permute_rows(self, rng):
        a = make_random_csr(6, density=0.4, seed=3)
        perm = np.array([5, 3, 1, 0, 2, 4])
        p = a.permute_rows(perm)
        assert np.allclose(p.to_dense(), a.to_dense()[perm])

    def test_permute_rows_matches_a_row_gather(self, small_csr):
        perm = np.random.default_rng(5).permutation(small_csr.shape[0])
        p = small_csr.permute_rows(perm)
        ref = AijMat.from_dense(small_csr.to_dense()[perm])
        assert np.array_equal(p.rowptr, ref.rowptr)
        assert np.array_equal(p.colidx, ref.colidx)
        assert p.val.tobytes() == ref.val.tobytes()

    @pytest.mark.parametrize("perm", [[0, 1, 1], [0, 1, -1], [0, 1, 3], [0, 1], [2, 1, 0, 3]])
    def test_permute_rows_rejects_non_permutations(self, perm):
        a = make_random_csr(3, density=0.5, seed=4)
        with pytest.raises(ValueError, match="perm must be a permutation"):
            a.permute_rows(np.array(perm))

    def test_permute_rows_validates_the_permutation(self, small_csr):
        with pytest.raises(ValueError):
            small_csr.permute_rows(np.zeros(small_csr.shape[0], dtype=np.int64))

    def test_memory_bytes_formula(self, small_csr):
        """12 bytes/nnz (8 value + 4 index) + 8 bytes per rowptr entry."""
        m = small_csr.shape[0]
        assert small_csr.memory_bytes() == 12 * small_csr.nnz + 8 * (m + 1)

    def test_equal_detects_value_differences(self, small_csr):
        other = AijMat(
            small_csr.shape, small_csr.rowptr, small_csr.colidx, small_csr.val
        )
        assert small_csr.equal(other)
        other.val[0] += 1e-3
        assert not small_csr.equal(other, tol=1e-9)
        assert small_csr.equal(other, tol=1e-2)
