"""Failure injection: the misconfigurations the paper and PETSc guard against."""

import numpy as np
import pytest

from repro.core.sell import SellMat
from repro.pde.problems import gray_scott_jacobian


class TestAlignmentFaults:
    """Section 3.1: PETSc built with AVX-512 and 16-byte alignment hung on
    KNL; 64-byte alignment fixed it.  Our strict-alignment engine turns
    that hang into a diagnosable fault."""

    def test_16_byte_aligned_sell_faults_under_strict_avx512(self):
        from repro.simd.alignment import AlignmentFault
        from repro.simd.engine import SimdEngine
        from repro.simd.isa import AVX512
        from repro.core.kernels_sell import spmv_sell
        from repro.memory.spaces import misaligned_alloc

        csr = gray_scott_jacobian(4)
        sell = SellMat.from_csr(csr, alignment=16)
        # Deterministically reproduce the old 16-byte default: place the
        # value array at a 16-byte-but-not-64-byte boundary, exactly the
        # misalignment the paper's hang traced back to.
        val = misaligned_alloc(
            sell.val.shape[0], np.float64, alignment=64, offset=16
        )
        val[:] = sell.val
        sell.val = val
        assert sell.val.ctypes.data % 64 == 16
        engine = SimdEngine(AVX512, strict_alignment=True)
        with pytest.raises(AlignmentFault):
            spmv_sell(engine, sell, np.ones(csr.shape[1]),
                      np.zeros(csr.shape[0]))

    def test_64_byte_alignment_never_faults(self):
        from repro.simd.engine import SimdEngine
        from repro.simd.isa import AVX512
        from repro.core.kernels_sell import spmv_sell
        from repro.memory.spaces import aligned_alloc

        csr = gray_scott_jacobian(4)
        sell = SellMat.from_csr(csr, alignment=64)
        engine = SimdEngine(AVX512, strict_alignment=True)
        y = aligned_alloc(csr.shape[0])
        spmv_sell(engine, sell, np.ones(csr.shape[1]), y)  # must not raise
        assert np.allclose(y, csr.multiply(np.ones(csr.shape[1])))


class TestSolverFailurePaths:
    def test_ts_raises_on_a_nonconvergent_nonlinear_solve(self):
        """An absurd time step makes Newton fail; TS must say so loudly,
        not silently continue with garbage."""
        from repro.ksp import GMRES, JacobiPC, ThetaMethod
        from repro.pde import Grid2D, GrayScottProblem

        prob = GrayScottProblem(Grid2D(8, 8, dof=2))
        ts = ThetaMethod(
            rhs=prob.rhs,
            jacobian=prob.jacobian,
            ksp_factory=lambda: GMRES(pc=JacobiPC(), rtol=1e-8, max_it=1),
            dt=1e9,
            snes_max_it=2,
            snes_rtol=1e-14,
        )
        with pytest.raises(RuntimeError, match="nonlinear solve failed"):
            ts.integrate(prob.initial_state(), 1)

    def test_gmres_reports_nan_instead_of_looping(self):
        from repro.ksp import GMRES
        from repro.ksp.base import ConvergedReason
        from repro.pde.problems import random_sparse

        a = random_sparse(10, density=0.5, seed=1)
        b = np.full(10, np.nan)
        result = GMRES(max_it=50).solve(a, b)
        assert result.reason is ConvergedReason.NAN


class TestEngineMisuse:
    def test_kernel_on_the_wrong_format_fails_loudly(self):
        from repro.core.kernels_sell import spmv_sell
        from repro.simd.engine import SimdEngine
        from repro.simd.isa import AVX512

        csr = gray_scott_jacobian(4)  # not a SellMat
        with pytest.raises(AttributeError):
            spmv_sell(SimdEngine(AVX512), csr, np.ones(csr.shape[1]),
                      np.zeros(csr.shape[0]))

    def test_engine_rejects_narrower_slices_than_its_lanes(self):
        from repro.core.kernels_sell import spmv_sell
        from repro.simd.engine import SimdEngine
        from repro.simd.isa import AVX512

        csr = gray_scott_jacobian(4)
        sell = SellMat.from_csr(csr, slice_height=4)  # < 8 lanes
        with pytest.raises(ValueError, match="multiple"):
            spmv_sell(SimdEngine(AVX512), sell, np.ones(csr.shape[1]),
                      np.zeros(csr.shape[0]))
