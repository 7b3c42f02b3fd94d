"""Finite-difference stencils: consistency and spectral exactness."""

import numpy as np
import pytest

from repro.pde.grid import Grid2D
from repro.pde.stencil import (
    apply_laplacian,
    laplacian_csr,
    nine_point_laplacian_csr,
)


class TestFivePoint:
    def test_assembled_matches_matrix_free(self):
        g = Grid2D(8, 8)
        rng = np.random.default_rng(0)
        field = rng.standard_normal((8, 8))
        w = g.fields_as_unknowns([field])
        assembled = laplacian_csr(g).multiply(w)
        direct = g.fields_as_unknowns([apply_laplacian(g, field)])
        assert np.allclose(assembled, direct)

    def test_constants_are_in_the_nullspace(self):
        g = Grid2D(6, 6)
        lap = laplacian_csr(g)
        assert np.allclose(lap.multiply(np.ones(36)), 0.0, atol=1e-12)

    def test_fourier_modes_are_eigenvectors(self):
        """On a periodic grid, e^{ikx} is an exact eigenvector of the
        discrete Laplacian with eigenvalue -4 sin^2(k h / 2) / h^2."""
        g = Grid2D(16, 16)
        lap = laplacian_csr(g)
        x, _ = g.point_coordinates()
        k = 2 * np.pi * 3 / g.length  # mode 3 in x
        v = np.cos(k * x)
        expected = -4.0 * np.sin(k * g.hx / 2.0) ** 2 / g.hx**2
        out = lap.multiply(v)
        assert np.allclose(out, expected * v, atol=1e-9)

    def test_five_entries_per_row(self):
        g = Grid2D(8, 8)
        assert set(laplacian_csr(g).row_lengths().tolist()) == {5}

    def test_component_selector_leaves_other_components_empty(self):
        g = Grid2D(4, 4, dof=2)
        lap = laplacian_csr(g, component=1)
        lengths = lap.row_lengths()
        assert np.all(lengths[1::2] == 5)
        assert np.all(lengths[0::2] == 0)

    def test_scale_factor(self):
        g = Grid2D(8, 8)
        a = laplacian_csr(g, scale=2.0)
        b = laplacian_csr(g, scale=1.0)
        assert np.allclose(a.to_dense(), 2.0 * b.to_dense())

    def test_nonsquare_cells_rejected(self):
        g = Grid2D(8, 4)  # hx != hy
        with pytest.raises(ValueError):
            laplacian_csr(g)

    def test_matrix_free_shape_validation(self):
        g = Grid2D(4, 4)
        with pytest.raises(ValueError):
            apply_laplacian(g, np.zeros((4, 5)))


def rolled_laplacian(grid: Grid2D, field: np.ndarray) -> np.ndarray:
    """The five-point stencil as four ``np.roll`` shifts, kept as the oracle."""
    return (
        np.roll(field, 1, axis=0)
        + np.roll(field, -1, axis=0)
        + np.roll(field, 1, axis=1)
        + np.roll(field, -1, axis=1)
        - 4.0 * field
    ) / (grid.hx * grid.hx)


class TestMatrixFreeMatchesTheRolls:
    """``apply_laplacian`` returns the ``np.roll`` formula's bits."""

    @pytest.mark.parametrize(
        "nx, ny", [(8, 8), (7, 5), (5, 9), (6, 1), (1, 6), (1, 1), (2, 3)]
    )
    def test_bytes(self, nx, ny):
        g = Grid2D(nx, ny)
        rng = np.random.default_rng(nx * 10 + ny)
        # 24 decades of magnitude: every reordering of the sum shows.
        field = rng.standard_normal((ny, nx)) * 10.0 ** rng.integers(-12, 12, (ny, nx))
        assert apply_laplacian(g, field).tobytes() == rolled_laplacian(g, field).tobytes()

    def test_special_values(self):
        g = Grid2D(6, 5)
        field = np.random.default_rng(3).standard_normal((5, 6))
        field[0, 0], field[2, 3], field[4, 5] = np.inf, -np.inf, np.nan
        field[1, :] = -0.0
        with np.errstate(invalid="ignore"):
            got, want = apply_laplacian(g, field), rolled_laplacian(g, field)
        assert got.tobytes() == want.tobytes()

    def test_a_view_of_the_state(self):
        g = Grid2D(8, 4)
        w = np.random.default_rng(4).standard_normal(2 * 32)
        u = w[0::2].reshape(4, 8)
        assert apply_laplacian(g, u).tobytes() == rolled_laplacian(g, u).tobytes()


class TestNinePoint:
    def test_nine_entries_per_row(self):
        g = Grid2D(8, 8)
        assert set(nine_point_laplacian_csr(g).row_lengths().tolist()) == {9}

    def test_constants_in_the_nullspace(self):
        g = Grid2D(6, 6)
        lap = nine_point_laplacian_csr(g)
        assert np.allclose(lap.multiply(np.ones(36)), 0.0, atol=1e-12)

    def test_consistent_with_five_point_on_smooth_data(self):
        """Both discretize the same operator to at least O(h^2)."""
        g = Grid2D(64, 64)
        x, y = g.point_coordinates()
        kx = 2 * np.pi / g.length
        v = np.sin(kx * x) * np.cos(kx * y)
        five = laplacian_csr(g).multiply(v)
        nine = nine_point_laplacian_csr(g).multiply(v)
        exact = -2.0 * kx * kx * v
        assert np.abs(five - exact).max() < 0.05 * np.abs(exact).max()
        assert np.abs(nine - exact).max() < 0.05 * np.abs(exact).max()
