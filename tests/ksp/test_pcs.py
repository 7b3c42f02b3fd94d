"""Preconditioners: Jacobi and block Jacobi."""

import numpy as np
import pytest

from repro.ksp.gmres import GMRES
from repro.ksp.pc.bjacobi import BlockJacobiPC
from repro.ksp.pc.jacobi import JacobiPC
from repro.mat.aij import AijMat
from repro.pde.problems import spd_laplacian

from ..conftest import make_random_csr


class TestJacobi:
    def test_apply_is_diagonal_scaling(self):
        a = AijMat.from_dense(np.diag([2.0, 4.0, 8.0]))
        pc = JacobiPC()
        pc.setup(a)
        z = pc.apply(np.array([2.0, 4.0, 8.0]))
        assert np.array_equal(z, [1.0, 1.0, 1.0])

    def test_zero_diagonal_entries_invert_to_one(self):
        a = AijMat.from_coo((2, 2), np.array([0]), np.array([0]), np.array([2.0]))
        pc = JacobiPC()
        pc.setup(a)
        assert np.array_equal(pc.apply(np.array([2.0, 3.0])), [1.0, 3.0])

    def test_apply_before_setup_raises(self):
        with pytest.raises(RuntimeError):
            JacobiPC().apply(np.ones(3))

    def test_nonconforming_residual_raises(self):
        pc = JacobiPC()
        pc.setup(spd_laplacian(4))
        with pytest.raises(ValueError):
            pc.apply(np.ones(3))


class TestBlockJacobi:
    def test_exactly_inverts_a_block_diagonal_operator(self, rng):
        blocks = [rng.standard_normal((2, 2)) + 3 * np.eye(2) for _ in range(4)]
        dense = np.zeros((8, 8))
        for k, blk in enumerate(blocks):
            dense[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = blk
        a = AijMat.from_dense(dense)
        pc = BlockJacobiPC(bs=2)
        pc.setup(a)
        r = rng.standard_normal(8)
        assert np.allclose(a.multiply(pc.apply(r)), r)

    def test_gray_scott_blocks_strengthen_the_smoother(self, gray_scott_small, rng):
        b = rng.standard_normal(gray_scott_small.shape[0])
        jac = GMRES(rtol=1e-8, pc=JacobiPC()).solve(gray_scott_small, b)
        blk = GMRES(rtol=1e-8, pc=BlockJacobiPC(bs=2)).solve(gray_scott_small, b)
        assert blk.iterations <= jac.iterations

    def test_incompatible_block_size_rejected(self):
        pc = BlockJacobiPC(bs=2)
        with pytest.raises(ValueError):
            pc.setup(make_random_csr(5, density=0.5))

    def test_singular_block_falls_back_to_pinv(self):
        a = AijMat.from_dense(np.zeros((2, 2)))
        pc = BlockJacobiPC(bs=2)
        pc.setup(a)  # must not raise
        assert np.array_equal(pc.apply(np.ones(2)), np.zeros(2))
