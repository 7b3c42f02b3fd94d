"""Preconditioners: Jacobi and parallel block Jacobi."""

import numpy as np
import pytest

from repro.ksp.pc.bjacobi import ParallelBlockJacobiPC
from repro.ksp.pc.jacobi import JacobiPC
from repro.mat.aij import AijMat
from repro.pde.problems import spd_laplacian


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


class TestParallelBlockJacobi:
    def test_pc_apply_before_setup_raises(self):
        with pytest.raises(RuntimeError):
            JacobiPC().apply(None)  # type: ignore[arg-type]
        with pytest.raises(RuntimeError):
            ParallelBlockJacobiPC().apply(None)  # type: ignore[arg-type]
