"""Alternative sequential formats: BAIJ and CSRPerm.

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

from ..conftest import make_random_csr


@pytest.fixture(params=[0, 1, 2])
def csr(request) -> AijMat:
    return make_random_csr(22, density=0.25, seed=request.param)


def x_for(mat) -> np.ndarray:
    return np.random.default_rng(99).standard_normal(mat.shape[1])


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
