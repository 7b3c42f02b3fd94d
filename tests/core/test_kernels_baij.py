"""The BAIJ instruction-level kernel and the Section 3.2 efficiency claim."""

import numpy as np
import pytest

from repro.core.kernels_baij import simd_efficiency, spmv_baij
from repro.core.kernels_sell import spmv_sell
from repro.core.sell import SellMat
from repro.mat.baij import BaijMat
from repro.pde.problems import gray_scott_jacobian
from repro.simd.engine import SimdEngine
from repro.simd.isa import AVX, AVX2, AVX512, SCALAR, SVE

from ..conftest import make_random_csr


@pytest.fixture(scope="module")
def gs():
    csr = gray_scott_jacobian(8)
    return csr, BaijMat.from_csr(csr, 2)


class TestCorrectness:
    @pytest.mark.parametrize("isa", [AVX512, AVX2, AVX, SCALAR])
    def test_exact_on_the_gray_scott_operator(self, gs, isa):
        csr, baij = gs
        x = np.random.default_rng(0).standard_normal(csr.shape[0])
        engine = SimdEngine(isa)
        y = np.zeros(csr.shape[0])
        spmv_baij(engine, baij, x, y)
        assert np.allclose(y, csr.multiply(x), atol=1e-12)

    def test_exact_with_odd_block_counts_per_row(self):
        """Rows whose block count is odd exercise the masked tail."""
        rng = np.random.default_rng(1)
        csr = make_random_csr(12, density=0.4, seed=5)
        baij = BaijMat.from_csr(csr, 2)
        x = rng.standard_normal(12)
        engine = SimdEngine(AVX512)
        y = np.zeros(12)
        spmv_baij(engine, baij, x, y)
        assert np.allclose(y, csr.multiply(x), atol=1e-12)
        assert engine.counters.remainder_iterations > 0

    def test_only_bs2_is_modeled(self):
        csr = make_random_csr(12, density=0.4, seed=6)
        baij4 = BaijMat.from_csr(csr, 4)
        with pytest.raises(ValueError):
            spmv_baij(SimdEngine(AVX512), baij4, np.ones(12), np.zeros(12))

    def test_wide_isas_without_mask_registers_refuse(self, gs):
        """An 8-lane register holds two blocks, so the odd-block tail needs
        AVX-512 masks; SVE refuses instead of computing without them."""
        csr, baij = gs
        y = np.full(csr.shape[0], 7.0)
        with pytest.raises(ValueError, match="mask registers"):
            spmv_baij(SimdEngine(SVE), baij, np.ones(csr.shape[0]), y)
        assert np.all(y == 7.0)


class TestSection32Claim:
    """'Matrices with small natural blocks would need zero padding or
    masked vector operations, yielding loss in SIMD efficiency.'"""

    def test_baij_simd_efficiency_trails_sell(self, gs):
        csr, baij = gs
        x = np.ones(csr.shape[0])
        eb = SimdEngine(AVX512)
        spmv_baij(eb, baij, x, np.zeros(csr.shape[0]))
        es = SimdEngine(AVX512)
        spmv_sell(es, SellMat.from_csr(csr), x, np.zeros(csr.shape[0]))
        assert simd_efficiency(eb.counters) < 0.8 * simd_efficiency(es.counters)

    def test_baij_pays_masked_tails_on_gray_scott(self, gs):
        """5 blocks per block row: two full registers + one masked tail."""
        csr, baij = gs
        engine = SimdEngine(AVX512)
        spmv_baij(engine, baij, np.ones(csr.shape[0]), np.zeros(csr.shape[0]))
        mb = csr.shape[0] // 2
        assert engine.counters.remainder_iterations == mb  # one odd block/row
        assert engine.counters.masked_ops > 0

    def test_baij_saves_index_traffic_though(self, gs):
        """The flip side Section 3.2 concedes: one index per block."""
        csr, baij = gs
        assert baij.memory_bytes() < csr.memory_bytes()

    def test_simd_efficiency_of_empty_counters_is_zero(self):
        from repro.simd.counters import KernelCounters

        assert simd_efficiency(KernelCounters()) == 0.0


class TestRegistry:
    def test_baij_variant_is_registered(self):
        from repro.core.dispatch import get_variant

        v = get_variant("BAIJ using AVX512")
        csr = gray_scott_jacobian(4)
        mat = v.prepare(csr)
        assert mat.format_name == "BAIJ"
        x = np.random.default_rng(2).standard_normal(csr.shape[0])
        y, counters = v.run(mat, x)
        assert np.allclose(y, csr.multiply(x))
        assert counters.vector_fmadd > 0
