"""Variant registry and the measure/predict public API."""

import numpy as np
import pytest

from repro.core.dispatch import (
    ALL_VARIANTS,
    FIGURE11_VARIANTS,
    FIGURE8_VARIANTS,
    get_variant,
)
from repro.core.spmv import measure, predict
from repro.machine.perf_model import make_model
from repro.machine.specs import KNL_7230, SKYLAKE
from repro.pde.problems import gray_scott_jacobian

from ..conftest import make_random_csr


class TestRegistry:
    def test_figure8_has_the_nine_paper_series(self):
        names = [v.name for v in FIGURE8_VARIANTS]
        assert names == [
            "SELL using AVX512",
            "SELL using AVX2",
            "SELL using AVX",
            "CSR using AVX512",
            "CSR using AVX2",
            "CSR using AVX",
            "CSRPerm",
            "CSR baseline",
            "MKL CSR",
        ]

    def test_figure11_adds_the_novec_series(self):
        names = {v.name for v in FIGURE11_VARIANTS}
        assert "CSR using novec" in names
        assert "SELL using novec" in names
        assert len(FIGURE11_VARIANTS) == 9

    def test_lookup_and_error(self):
        assert get_variant("SELL using AVX512").fmt == "SELL"
        with pytest.raises(KeyError):
            get_variant("SELL using AVX1024")

    def test_only_mkl_has_an_efficiency_factor(self):
        for name, v in ALL_VARIANTS.items():
            if name == "MKL CSR":
                assert v.efficiency == pytest.approx(0.85)
            else:
                assert v.efficiency == 1.0

    def test_prepare_produces_the_right_format(self, small_csr):
        assert get_variant("CSR baseline").prepare(small_csr) is small_csr
        assert get_variant("SELL using AVX512").prepare(small_csr).format_name == "SELL"
        assert get_variant("CSRPerm").prepare(small_csr).format_name == "CSRPerm"
        assert get_variant("ESB using AVX512").prepare(small_csr).format_name == "ESB"


class TestMeasure:
    def test_measurement_is_verifiable(self, small_csr):
        x = np.random.default_rng(1).standard_normal(small_csr.shape[1])
        meas = measure("SELL using AVX512", small_csr, x)
        assert np.allclose(meas.y, small_csr.multiply(x))
        assert meas.useful_flops == meas.counters.flops - meas.counters.padded_flops

    def test_default_input_vector_is_reproducible(self, small_csr):
        a = measure("CSR baseline", small_csr)
        b = measure("CSR baseline", small_csr)
        assert np.array_equal(a.y, b.y)


class TestPredict:
    def test_scaling_extrapolates_time_linearly(self):
        csr = gray_scott_jacobian(8)
        meas = measure("SELL using AVX512", csr)
        model = make_model(KNL_7230)
        p1 = predict(meas, model, nprocs=64, scale=64.0)
        p2 = predict(meas, model, nprocs=64, scale=128.0)
        assert p2.seconds == pytest.approx(2 * p1.seconds, rel=1e-3)
        # Throughput is scale-invariant (same work rate on bigger input).
        assert p2.gflops == pytest.approx(p1.gflops, rel=1e-3)

    def test_gflops_numerator_is_useful_work(self):
        """Padded SELL arithmetic must not inflate the reported rate."""
        from repro.pde.problems import irregular_rows

        csr = irregular_rows(64, max_len=16, seed=2)
        meas = measure("SELL using AVX512", csr)
        model = make_model(KNL_7230)
        perf = predict(meas, model, nprocs=64)
        assert perf.useful_flops == 2 * csr.nnz

    def test_mkl_efficiency_flows_through_predict(self):
        csr = gray_scott_jacobian(8)
        model = make_model(KNL_7230)
        base = predict(measure("CSR baseline", csr), model, 64, scale=64.0)
        mkl = predict(measure("MKL CSR", csr), model, 64, scale=64.0)
        assert mkl.seconds == pytest.approx(base.seconds / 0.85, rel=1e-6)

    def test_xeon_predictions_are_memory_bound(self):
        """Section 7.4's explanation for the small SELL gains on Xeons."""
        csr = gray_scott_jacobian(8)
        model = make_model(SKYLAKE)
        for name in ("CSR baseline", "SELL using AVX512"):
            perf = predict(measure(name, csr), model, SKYLAKE.cores, scale=4096.0)
            assert perf.bound == "memory", name

    def test_strict_alignment_measurement_passes_on_aligned_data(self, small_csr):
        meas = measure("SELL using AVX512", small_csr, strict_alignment=True)
        assert np.allclose(meas.y, small_csr.multiply(
            np.random.default_rng(12345).standard_normal(small_csr.shape[1])
        ))
