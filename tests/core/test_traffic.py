"""The Section 6 analytic memory-traffic model."""

import pytest

from repro.core.sell import SellMat
from repro.core.traffic import (
    csr_traffic,
    gray_scott_intensity,
    sell_traffic,
    traffic_for,
)
from repro.pde.problems import irregular_rows


class TestFormulas:
    def test_csr_is_12nnz_24m_8n(self):
        """The exact Section 6 expression."""
        est = csr_traffic(m=100, n=80, nnz=500)
        assert est.total_bytes == 12 * 500 + 24 * 100 + 8 * 80

    def test_sell_is_12nnz_10m_8n(self):
        est = sell_traffic(m=100, n=80, nnz=500)
        assert est.total_bytes == 12 * 500 + 10 * 100 + 8 * 80

    def test_sell_saves_fourteen_bytes_per_row(self):
        """The formats differ only in per-row metadata: 24m vs 10m."""
        c = csr_traffic(1000, 1000, 10_000).total_bytes
        s = sell_traffic(1000, 1000, 10_000).total_bytes
        assert c - s == 14 * 1000

    def test_flops_are_two_per_nonzero(self):
        assert csr_traffic(10, 10, 55).flops == 110
        assert sell_traffic(10, 10, 55).flops == 110

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            csr_traffic(-1, 10, 10)
        with pytest.raises(ValueError):
            sell_traffic(10, 10, -5)


class TestArithmeticIntensity:
    def test_paper_quotes_0132_for_gray_scott_csr(self):
        """Figure 9: 'The arithmetic intensity ... is around 0.132'."""
        assert gray_scott_intensity("CSR") == pytest.approx(20 / 152)
        assert f"{gray_scott_intensity('CSR'):.3f}" == "0.132"

    def test_sell_intensity_is_higher(self):
        assert gray_scott_intensity("SELL") == pytest.approx(20 / 138)
        assert gray_scott_intensity("SELL") > gray_scott_intensity("CSR")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            gray_scott_intensity("BAIJ")

    def test_aij_is_an_alias_for_csr(self):
        assert gray_scott_intensity("AIJ") == gray_scott_intensity("CSR")


class TestTrafficFor:
    def test_dispatches_on_the_format(self, gray_scott_small):
        m, n = gray_scott_small.shape
        nnz = gray_scott_small.nnz
        assert (
            traffic_for(gray_scott_small).total_bytes
            == csr_traffic(m, n, nnz).total_bytes
        )
        sell = SellMat.from_csr(gray_scott_small)
        assert (
            traffic_for(sell).total_bytes == sell_traffic(m, n, nnz).total_bytes
        )

    def test_padding_is_excluded_by_default(self):
        """Section 6: padded zeros deliberately not counted."""
        csr = irregular_rows(64, max_len=16, seed=1)
        sell = SellMat.from_csr(csr)
        assert sell.padded_entries > 0
        base = traffic_for(sell).total_bytes
        padded = traffic_for(sell, include_padding=True).total_bytes
        assert padded - base == 12 * sell.padded_entries

    def test_intensity_field(self):
        est = csr_traffic(10, 10, 100)
        assert est.arithmetic_intensity == pytest.approx(
            est.flops / est.total_bytes
        )


class TestTrafficExtensions:
    def test_64bit_indices_add_four_bytes_per_nonzero(self):
        from repro.core.traffic import csr_traffic, sell_traffic

        for fn in (csr_traffic, sell_traffic):
            narrow = fn(100, 100, 1000)
            wide = fn(100, 100, 1000, index_bytes=8)
            assert wide.total_bytes - narrow.total_bytes == 4 * 1000

    def test_paper_grid_is_the_32bit_limit(self):
        from repro.core.traffic import largest_grid_with_32bit_indices

        assert largest_grid_with_32bit_indices(dof=2) == 16384
        # One DOF per point doubles the admissible points.
        assert largest_grid_with_32bit_indices(dof=1) == 32768
