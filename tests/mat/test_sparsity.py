"""Sparsity statistics driving the format design decisions."""

import numpy as np
import pytest

from repro.mat.aij import AijMat
from repro.mat.sparsity import (
    locality_span,
    padding_ratio,
    profile,
    signature,
    sliced_padding,
)
from repro.pde.problems import gray_scott_jacobian, irregular_rows

from ..conftest import make_random_csr


class TestProfile:
    def test_regular_matrix(self):
        csr = gray_scott_jacobian(8)
        p = profile(csr)
        assert p.is_regular
        assert p.min_row == p.max_row == 10
        assert p.std_row == 0.0

    def test_irregular_matrix(self):
        csr = irregular_rows(64, min_len=1, max_len=20, seed=1)
        p = profile(csr)
        assert not p.is_regular
        assert p.min_row >= 1
        assert p.max_row <= 20
        assert p.nnz == csr.nnz

    def test_empty_matrix(self):
        empty = AijMat.from_coo((0, 0), np.array([]), np.array([]), np.array([]))
        p = profile(empty)
        assert p.nnz == 0 and p.mean_row == 0.0


class TestSignature:
    def test_content_signature_also_yields_the_structure_signature(self):
        base = make_random_csr(30, density=0.2, seed=4)
        csr, twin = (
            AijMat(base.shape, base.rowptr.copy(), base.colidx.copy(), base.val)
            for _ in range(2)
        )
        content = signature(csr, include_values=True)
        assert csr._signature_cache == {True: content, False: signature(twin)}
        assert signature(csr) == signature(twin)
        assert signature(twin, include_values=True) == content


class TestPadding:
    def test_full_height_padding_on_a_known_case(self):
        # Rows of length 3, 1, 2 -> width 3 -> padding 3*3 - 6 = 3.
        csr = AijMat.from_coo(
            (3, 3),
            np.array([0, 0, 0, 1, 2, 2]),
            np.array([0, 1, 2, 0, 0, 1]),
            np.ones(6),
        )
        assert sliced_padding(csr, 3) == 3

    def test_slice_height_one_never_pads(self):
        """C=1 degenerates to CSR (paper Section 2.5)."""
        csr = irregular_rows(50, max_len=20, seed=2)
        assert sliced_padding(csr, 1) == 0
        assert padding_ratio(csr, 1) == 0.0

    def test_full_height_equals_ellpack(self):
        """One slice of every row pads each row to the longest one."""
        csr = make_random_csr(16, density=0.3, seed=0)
        lengths = csr.row_lengths()
        assert sliced_padding(csr, 16) == 16 * lengths.max() - lengths.sum()

    def test_padding_grows_with_slice_height(self):
        csr = irregular_rows(128, seed=3)
        pads = [sliced_padding(csr, c) for c in (1, 2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(pads, pads[1:], strict=False))

    def test_sigma_sorting_reduces_padding(self):
        """Paper Section 5.4: sorting shrinks padded zeros."""
        csr = irregular_rows(256, seed=4)
        unsorted = sliced_padding(csr, 8, sigma=1)
        windowed = sliced_padding(csr, 8, sigma=64)
        assert windowed < unsorted

    def test_larger_windows_pad_no_more(self):
        csr = irregular_rows(256, seed=4)
        pads = [sliced_padding(csr, 8, sigma) for sigma in (1, 8, 32, 128, 256)]
        assert all(b <= a for a, b in zip(pads, pads[1:], strict=False))

    def test_regular_matrix_never_pads(self):
        csr = gray_scott_jacobian(8)
        assert sliced_padding(csr, 8) == 0

    def test_invalid_parameters(self):
        csr = make_random_csr(8)
        with pytest.raises(ValueError):
            sliced_padding(csr, 0)
        with pytest.raises(ValueError):
            sliced_padding(csr, 8, sigma=0)


class TestLocality:
    def test_identity_order_of_banded_matrix_is_tight(self):
        csr = gray_scott_jacobian(8)
        natural = locality_span(csr)
        shuffled = locality_span(
            csr, np.random.default_rng(0).permutation(csr.shape[0])
        )
        assert natural < shuffled

    def test_tiny_matrices(self):
        one = make_random_csr(1, density=1.0)
        assert locality_span(one) == 0.0
