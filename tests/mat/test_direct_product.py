"""``Mat.multiply``'s direct call into SciPy's compiled CSR product.

``Mat.multiply`` skips SciPy's operator dispatch and calls the private
``scipy.sparse._sparsetools.csr_matvec`` on the cached handle's arrays.
These tests pin that it returns the bits ``handle @ x`` returns on every
input the dispatch accepted, and fail loudly, naming the installed SciPy,
if the private entry point moves or changes.
"""

import numpy as np
import pytest
import scipy
import scipy.sparse as sp

import repro  # noqa: F401  (registers every format)
from repro.core.sell import SellMat
from repro.mat.aij import AijMat
from repro.mat.baij import BaijMat
from repro.mat.base import MatrixShapeError
from repro.pde.problems import gray_scott_jacobian

from ..conftest import make_random_csr
from ..ksp.test_mg import wide_range_csr


def _reversed_rows(a: sp.csr_matrix) -> sp.csr_matrix:
    """``a`` with every row's entries stored in reverse order."""
    order = np.concatenate(
        [np.arange(hi - 1, lo - 1, -1) for lo, hi in zip(a.indptr[:-1], a.indptr[1:])]
    )
    return sp.csr_matrix((a.data[order], a.indices[order], a.indptr), shape=a.shape)


class TestScipyEntryPoint:
    def test_csr_matvec_matches_the_operator_product_bitwise(self):
        where = "scipy.sparse._sparsetools.csr_matvec"
        try:
            from scipy.sparse._sparsetools import csr_matvec
        except ImportError as exc:
            pytest.fail(f"SciPy {scipy.__version__} has no {where} ({exc}); "
                        "Mat.multiply and mg.ValueMap call it directly")
        a = wide_range_csr(300, 200, density=0.1, seed=4)
        handle = sp.csr_matrix((a.val, a.colidx, a.rowptr), shape=a.shape)
        x = np.random.default_rng(8).standard_normal(200)
        got = np.zeros(300)
        try:
            csr_matvec(300, 200, handle.indptr, handle.indices, handle.data, x, got)
        except (TypeError, ValueError) as exc:
            pytest.fail(f"SciPy {scipy.__version__} changed the signature of "
                        f"{where} ({exc}); Mat.multiply and mg.ValueMap call it "
                        "as (n_row, n_col, indptr, indices, data, x, y)")
        assert got.tobytes() == (handle @ x).tobytes(), (
            f"SciPy {scipy.__version__}: {where} no longer returns the bits of "
            "csr_matrix @ x"
        )
        # The values span 24 decades, so the row sums really depend on the
        # order they are accumulated in.
        assert got.tobytes() != (_reversed_rows(handle) @ x).tobytes()


def _want(mat, x) -> np.ndarray:
    """The product through SciPy's operator dispatch."""
    return mat._spmm_handle() @ x


class TestDirectProductEdges:
    """``Mat.multiply`` against ``handle @ x``, bit for bit."""

    A = wide_range_csr(40, 40, density=0.2, seed=2)

    def test_strided_x(self):
        x = np.random.default_rng(1).standard_normal(80)[::2]
        assert not x.flags.c_contiguous
        assert self.A.multiply(x).tobytes() == _want(self.A, x).tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_non_float64_x(self, dtype):
        x = (np.random.default_rng(1).standard_normal(40) * 100).astype(dtype)
        got = self.A.multiply(x)
        assert got.dtype == np.float64
        assert got.tobytes() == _want(self.A, x).tobytes()

    def test_supplied_y_is_filled_and_returned(self):
        x = np.random.default_rng(1).standard_normal(40)
        y = np.full(40, np.nan)
        assert self.A.multiply(x, y) is y
        assert y.tobytes() == _want(self.A, x).tobytes()

    def test_y_aliasing_x(self):
        x = np.random.default_rng(1).standard_normal(40)
        want = _want(self.A, x.copy())
        assert self.A.multiply(x, x) is x
        assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_empty_dimensions(self, shape):
        mat = AijMat.from_dense(np.zeros(shape))
        x = np.ones(shape[1])
        got = mat.multiply(x)
        assert got.shape == (shape[0],)
        assert got.tobytes() == _want(mat, x).tobytes()

    @pytest.mark.parametrize("fmt", ["SELL", "BAIJ"])
    def test_converted_operators(self, fmt):
        csr = gray_scott_jacobian(6)
        csr = AijMat(csr.shape, csr.rowptr, csr.colidx,
                     csr.val * 10.0 ** np.random.default_rng(3).integers(-12, 12, csr.nnz))
        mat = (SellMat.from_csr(csr, slice_height=8, sigma=1) if fmt == "SELL"
               else BaijMat.from_csr(csr, 2))
        x = np.random.default_rng(1).standard_normal(csr.shape[1])
        got = mat.multiply(x)
        assert got.tobytes() == _want(mat, x).tobytes()
        assert got.tobytes() == _want(csr, x).tobytes()

    @pytest.mark.parametrize(
        "x, y",
        [
            (np.ones(39), None),
            (np.ones((40, 1)), None),
            (np.ones(40), np.empty(39)),
            (np.ones(40), np.empty((40, 1))),
        ],
        ids=["short-x", "2d-x", "short-y", "2d-y"],
    )
    def test_bad_shapes_raise(self, x, y):
        with pytest.raises(MatrixShapeError):
            self.A.multiply(x, y)

    def test_rectangular(self):
        mat = make_random_csr(7, 13, density=0.4, seed=6)
        x = np.random.default_rng(2).standard_normal(13)
        assert mat.multiply(x).tobytes() == _want(mat, x).tobytes()
