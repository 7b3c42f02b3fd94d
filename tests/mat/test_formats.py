"""Alternative sequential formats: ELLPACK(-R), BAIJ, CSRPerm, hybrid, COO.

Every format must (a) multiply identically to the CSR reference and
(b) round-trip to CSR losslessly; beyond that, each has format-specific
structure worth pinning down.
"""

import numpy as np
import pytest

import repro  # noqa: F401  (registers every format, the core ones included)
from repro.mat.aij import AijMat
from repro.mat.aij_perm import AijPermMat
from repro.mat.baij import BaijMat
from repro.mat.base import Mat, converter_for, registered_formats
from repro.mat.coo import CooMat
from repro.mat.ellpack import EllpackMat
from repro.mat.hybrid import HybridMat

from ..conftest import make_random_csr


@pytest.fixture(params=[0, 1, 2])
def csr(request) -> AijMat:
    return make_random_csr(22, density=0.25, seed=request.param)


def x_for(mat) -> np.ndarray:
    return np.random.default_rng(99).standard_normal(mat.shape[1])


class TestEllpack:
    def test_multiply_matches_csr(self, csr):
        ell = EllpackMat.from_csr(csr)
        x = x_for(csr)
        assert np.allclose(ell.multiply(x), csr.multiply(x))

    def test_round_trip(self, csr):
        assert EllpackMat.from_csr(csr).to_csr().equal(csr, tol=0.0)

    def test_width_is_the_longest_row(self, csr):
        ell = EllpackMat.from_csr(csr)
        assert ell.width == int(csr.row_lengths().max())

    def test_padding_count(self, csr):
        ell = EllpackMat.from_csr(csr)
        lengths = csr.row_lengths()
        assert ell.padded_entries == int(
            lengths.size * lengths.max() - lengths.sum()
        )

    def test_storage_is_column_major(self, csr):
        """Paper Section 2.5: elements stored column by column."""
        ell = EllpackMat.from_csr(csr)
        assert ell.val.flags["F_CONTIGUOUS"]


    def test_padded_column_indices_stay_in_range(self, csr):
        ell = EllpackMat.from_csr(csr)
        assert ell.colidx.max() < csr.shape[1]
        assert ell.colidx.min() >= 0

    def test_memory_includes_padding_and_rlen(self, csr):
        ell = EllpackMat.from_csr(csr)
        assert ell.memory_bytes() == ell.val.size * 12 + csr.shape[0] * 8

    def test_inconsistent_rlen_rejected(self):
        with pytest.raises(ValueError):
            EllpackMat((2, 2), np.zeros((2, 1)), np.zeros((2, 1), dtype=np.int32),
                       np.array([2, 0]))


class TestBaij:
    @pytest.mark.parametrize("bs", [2, 4])
    def test_multiply_matches_dense(self, bs, rng):
        m = 8 * bs
        dense = rng.standard_normal((m, m)) * (rng.random((m, m)) < 0.2)
        a = AijMat.from_dense(dense)
        b = BaijMat.from_csr(a, bs)
        x = rng.standard_normal(m)
        assert np.allclose(b.multiply(x), dense @ x)

    def test_round_trip_without_explicit_zeros(self, rng):
        dense = rng.standard_normal((12, 12)) * (rng.random((12, 12)) < 0.3)
        a = AijMat.from_dense(dense)
        assert BaijMat.from_csr(a, 2).to_csr().equal(a, tol=0.0)

    def test_block_padding_counts_as_stored(self):
        """A single scalar entry stores a whole bs x bs block."""
        a = AijMat.from_coo((4, 4), np.array([0]), np.array([0]), np.array([1.0]))
        b = BaijMat.from_csr(a, 2)
        assert b.nblocks == 1
        assert b.nnz == 4  # the full 2x2 block

    def test_indivisible_dimensions_rejected(self):
        a = make_random_csr(9, density=0.3)
        with pytest.raises(ValueError):
            BaijMat.from_csr(a, 2)

    def test_gray_scott_has_natural_2x2_blocks(self, gray_scott_small):
        """Section 7: 'the matrix consists of small 2x2 blocks'."""
        b = BaijMat.from_csr(gray_scott_small, 2)
        m = gray_scott_small.shape[0]
        # 5 stencil blocks per block row, no extra fill: the 10 stored
        # scalars per row already are 5 complete 2x2 blocks.
        assert b.nblocks == 5 * (m // 2)
        assert b.nnz == gray_scott_small.nnz


class TestAijPerm:
    def test_multiply_matches(self, csr):
        perm = AijPermMat.from_csr(csr)
        x = x_for(csr)
        assert np.allclose(perm.multiply(x), csr.multiply(x))

    def test_groups_partition_rows_by_length(self, csr):
        perm = AijPermMat.from_csr(csr)
        lengths = csr.row_lengths()
        seen = 0
        for g in range(perm.ngroups):
            lo, hi = perm.group_starts[g], perm.group_starts[g + 1]
            rows = perm.perm[lo:hi]
            assert np.all(lengths[rows] == perm.group_lengths[g])
            seen += hi - lo
        assert seen == csr.shape[0]

    def test_group_lengths_ascend(self, csr):
        perm = AijPermMat.from_csr(csr)
        gl = perm.group_lengths
        assert np.all(np.diff(gl) > 0)

    def test_data_is_shared_with_the_csr(self, csr):
        perm = AijPermMat.from_csr(csr)
        assert perm.to_csr() is csr

    def test_uniform_matrix_is_one_group(self, gray_scott_small):
        perm = AijPermMat.from_csr(gray_scott_small)
        assert perm.ngroups == 1
        assert perm.group_lengths[0] == 10


class TestHybrid:
    def test_multiply_matches(self, csr):
        hyb = HybridMat.from_csr(csr)
        x = x_for(csr)
        assert np.allclose(hyb.multiply(x), csr.multiply(x))

    def test_round_trip(self, csr):
        assert HybridMat.from_csr(csr).to_csr().equal(csr, tol=1e-15)

    def test_explicit_width_controls_the_split(self, csr):
        hyb = HybridMat.from_csr(csr, width=2)
        lengths = csr.row_lengths()
        expected_spill = int(np.maximum(lengths - 2, 0).sum())
        assert hyb.coo.nnz == expected_spill
        assert hyb.ell.nnz + hyb.coo.nnz == csr.nnz

    def test_width_zero_is_pure_coo(self, csr):
        hyb = HybridMat.from_csr(csr, width=0)
        assert hyb.ell.nnz == 0
        assert hyb.coo.nnz == csr.nnz
        x = x_for(csr)
        assert np.allclose(hyb.multiply(x), csr.multiply(x))

    def test_spill_fraction(self, csr):
        hyb = HybridMat.from_csr(csr, width=1)
        assert 0.0 < hyb.spill_fraction < 1.0

    def test_regular_matrix_never_spills(self, gray_scott_small):
        hyb = HybridMat.from_csr(gray_scott_small)
        assert hyb.spill_fraction == 0.0


class TestCoo:
    def test_duplicates_accumulate_in_multiply(self):
        coo = CooMat(
            (2, 2), np.array([0, 0]), np.array([1, 1]), np.array([2.0, 3.0])
        )
        assert np.array_equal(coo.multiply(np.array([0.0, 1.0])), [5.0, 0.0])

    def test_supplied_output_is_overwritten_not_accumulated(self, csr):
        """``multiply(x, y)`` means ``y = A @ x`` for COO too, not ``y += A @ x``."""
        rows = np.repeat(np.arange(csr.shape[0]), csr.row_lengths())
        coo = CooMat(csr.shape, rows, csr.colidx, csr.val)
        x = x_for(csr)
        y = np.ones(csr.shape[0])
        out = coo.multiply(x, y)
        assert out is y
        assert np.array_equal(y, csr.multiply(x))

    def test_to_csr_merges_duplicates(self):
        coo = CooMat(
            (2, 2), np.array([0, 0]), np.array([1, 1]), np.array([2.0, 3.0])
        )
        assert coo.to_csr().nnz == 1

    def test_index_validation(self):
        with pytest.raises(IndexError):
            CooMat((2, 2), np.array([2]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            CooMat((2, 2), np.array([0]), np.array([0, 1]), np.array([1.0]))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_format_overrides_the_product_path():
    """Every registered format's product and diagonal are ``Mat``'s own,
    run on the one cached SciPy handle; a per-format body would let
    solver answers depend on ``-dm_mat_type``."""
    small = make_random_csr(8, density=0.4, seed=5)
    classes = {type(converter_for(name)(small)) for name in registered_formats()}
    classes.update(c for c in _subclasses(Mat) if c.__module__.startswith("repro."))
    for cls in classes:
        for klass in cls.__mro__:
            if klass is Mat:
                break
            for attr in ("multiply", "multiply_multi", "diagonal"):
                assert attr not in vars(klass), f"{klass.__name__}.{attr}"
