"""Structure and fast sanity of the figure harnesses.

The full shape assertions live in ``benchmarks/``; these tests pin down the
harnesses' structure (series names, axes, data types) so a refactor cannot
silently change what a figure reports.
"""

import pytest

from repro.bench.experiments import (
    ablations,
    fig4,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    table1,
)


class TestTable1:
    def test_four_processors(self):
        rows = table1.run()
        assert [r["processor"].split()[0] for r in rows] == [
            "KNL",
            "Broadwell",
            "Haswell",
            "Skylake",
        ]

    def test_render_contains_all_rows(self):
        out = table1.render()
        for name in ("KNL", "Broadwell", "Haswell", "Skylake"):
            assert name in out


class TestFig4:
    def test_four_series_on_the_paper_axis(self):
        series = fig4.run()
        assert len(series) == 4
        for points in series.values():
            assert [p for p, _ in points] == [8, 16, 24, 32, 40, 48, 56, 64]

    def test_render(self):
        assert "Flat:AVX512" in fig4.render()


class TestFig7:
    def test_27_points(self):
        points = fig7.run()
        assert len(points) == 27

    def test_render_has_three_blocks(self):
        out = fig7.render()
        assert out.count("Figure 7") == 3


class TestFig8:
    def test_nine_series_five_rank_counts(self):
        series = fig8.run()
        assert len(series) == 9
        for points in series.values():
            assert [p for p, _ in points] == [4, 8, 16, 32, 64]

    def test_best_at_full_node_exposes_64_rank_values(self):
        best = fig8.best_at_full_node()
        series = fig8.run()
        for name, value in best.items():
            assert value == series[name][-1][1]


class TestFig9:
    def test_one_point_per_variant(self):
        points = fig9.run()
        assert len(points) == 9

    def test_csr_points_share_the_paper_intensity(self):
        for pt in fig9.run():
            if pt.label.startswith("CSR") or pt.label in ("CSRPerm", "MKL CSR"):
                assert pt.intensity == pytest.approx(0.1316, abs=1e-3)
            else:
                assert pt.intensity == pytest.approx(0.1449, abs=1e-3)

    def test_headroom_is_a_fraction(self):
        for frac in fig9.mcdram_headroom().values():
            assert 0.0 < frac < 1.0


class TestFig10:
    def test_solver_profile_comes_from_a_real_run(self):
        profile = fig10.profile_solver()
        assert profile.newton_per_step >= 1.0
        assert profile.linear_per_newton >= 1.0
        assert profile.matvecs_per_it_coarsest > profile.matvecs_per_it_level > 0

    def test_bar_grid(self):
        points = fig10.run(node_counts=(64, 128))
        # 3 modes x 2 formats x 2 node counts.
        assert len(points) == 12
        for pt in points:
            assert pt.matmult_seconds < pt.total_seconds
            assert pt.other_seconds > 0


class TestFig11:
    def test_avx512_missing_on_old_xeons(self):
        data = fig11.run()
        assert data["CSR using AVX512"]["Haswell"] is None
        assert data["CSR using AVX512"]["Broadwell"] is None
        assert data["CSR using AVX512"]["Skylake"] is not None
        assert data["CSR using AVX512"]["KNL"] is not None

    def test_every_machine_runs_the_narrow_isas(self):
        data = fig11.run()
        for machine in ("Haswell", "Broadwell", "Skylake", "KNL"):
            assert data["CSR using AVX"][machine] is not None


class TestAblations:
    def test_bitarray_rows(self):
        rows = ablations.run_bitarray()
        assert [r.label for r in rows] == ["SELL using AVX512", "ESB using AVX512"]

    def test_sigma_rows_cover_the_sweep(self):
        rows = ablations.run_sigma(sigmas=(1, 8))
        assert [r.label for r in rows] == ["sigma=1", "sigma=8"]

    def test_storage_padding_by_height_starts_at_zero(self):
        pad = ablations.storage_padding_by_height(heights=(1, 8))
        assert pad[1] == 0.0
        assert pad[8] > 0.0


class TestFig7MemoryFootprints:
    def test_all_single_node_grids_fit_mcdram(self):
        """Section 7.1: 'the memory usage does not exceed the limit of
        MCDRAM capacity' for all three Figure 7 grids — the 16 GiB the
        cache-mode model holds — and the multinode grid does not fit."""
        from repro.bench.experiments.common import working_set_bytes
        from repro.machine.perf_model import MemoryMode, make_model
        from repro.machine.specs import KNL_7230

        mcdram = make_model(KNL_7230, MemoryMode.CACHE).cache_model.capacity_bytes
        assert mcdram == 16 * 1024**3
        for grid in (1024, 2048, 4096):
            assert working_set_bytes(grid) <= mcdram
        assert working_set_bytes(16384) > mcdram
