"""``Mat``'s direct calls into SciPy's compiled CSR routines.

``Mat.multiply``, ``multiply_multi`` and ``diagonal`` build no
``scipy.sparse`` object: they call the private ``scipy.sparse._sparsetools``
routines on one cached ``(indptr, indices, data)`` triple of
``to_csr()``'s arrays.  These tests pin that they return
the bits a ``csr_matrix`` over the same arrays returns on every input the
dispatch accepted, whatever the format and index width, and fail loudly,
naming the installed SciPy, if the private entry point moves or changes.
"""

from unittest import mock

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro  # noqa: F401  (registers every format)
from repro.core.esb import EsbMat
from repro.core.sell import SellMat
from repro.mat import base as mat_base
from repro.mat.aij import AijMat
from repro.mat.aij_perm import AijPermMat
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


def _handle(mat) -> sp.csr_matrix:
    """A SciPy CSR matrix over copies of ``mat.to_csr()``'s arrays."""
    csr = mat.to_csr()
    return sp.csr_matrix(
        (csr.val.copy(), csr.colidx.copy(), csr.rowptr.copy()), shape=csr.shape
    )


def _want(mat, x) -> np.ndarray:
    """The product through SciPy's operator dispatch."""
    return _handle(mat) @ x


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


#: Values that decide a sum's bits beyond its magnitude: signed zeros,
#: infinities and NaN, among finite values spanning the whole range.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _operands(draw):
    """A CSR with stored special values (no duplicates), x, and a 3-wide X."""
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    mask = draw(hnp.arrays(np.bool_, (m, n)))
    dense = draw(hnp.arrays(np.float64, (m, n), elements=_VALUES))
    rows, cols = np.nonzero(mask)
    a = AijMat.from_coo((m, n), rows, cols, dense[rows, cols])
    x = draw(hnp.arrays(np.float64, n, elements=_VALUES))
    xs = draw(hnp.arrays(np.float64, (n, 3), elements=_VALUES))
    return a, x, xs


def _baij(a: AijMat) -> BaijMat:
    m, n = a.shape
    return BaijMat.from_csr(a, 2 if m % 2 == n % 2 == 0 else 1)


#: Each format's conversion of a CSR (ESB and SELL with a sorting window,
#: so the slots are not in row order).
_FORMATS = {
    "CSR": lambda a: a,
    "SELL": lambda a: SellMat.from_csr(a, slice_height=4, sigma=8),
    "ESB": lambda a: EsbMat.from_csr(a, slice_height=4, sigma=8),
    "BAIJ": _baij,
    "CSRPerm": AijPermMat.from_csr,
}


def _assert_every_product_matches(mat, x, xs):
    handle = _handle(mat)
    assert mat.multiply(x).tobytes() == (handle @ x).tobytes()
    assert mat.diagonal().tobytes() == handle.diagonal().tobytes()
    assert mat.multiply_multi(xs).tobytes() == (handle @ xs).tobytes()
    one = xs[:, :1]
    assert mat.multiply_multi(one).tobytes() == (handle @ one).tobytes()


class TestEveryFormatMatchesTheHandle:
    """Every product and the diagonal return a ``csr_matrix``'s bits."""

    @pytest.mark.parametrize("fmt", sorted(_FORMATS))
    @settings(max_examples=60, deadline=None)
    @given(operands=_operands())
    def test_format(self, fmt, operands):
        a, x, xs = operands
        _assert_every_product_matches(_FORMATS[fmt](a), x, xs)

    @settings(max_examples=40, deadline=None)
    @given(operands=_operands())
    def test_forced_int64_indices(self, operands):
        a, x, xs = operands
        with mock.patch.object(mat_base, "_INT32_NNZ", 0):
            a = AijMat(a.shape, a.rowptr, a.colidx, a.val)
            indptr, indices, _ = a._csr_arrays()
        assert indptr.dtype == indices.dtype == np.int64
        _assert_every_product_matches(a, x, xs)


class TestProductArrays:
    def test_int32_arrays_share_the_values_and_columns(self):
        a = gray_scott_jacobian(6)
        indptr, indices, data = a._csr_arrays()
        assert indptr.dtype == indices.dtype == np.int32
        assert indices is a.colidx and data is a.val
        assert np.array_equal(indptr, a.rowptr)

    def test_a_conversion_shares_its_sources_arrays(self):
        a = gray_scott_jacobian(6)
        sell = SellMat.from_csr(a, slice_height=8, sigma=1)
        assert all(
            got is want for got, want in zip(sell._csr_arrays(), a._csr_arrays())
        )

    def test_diagonal_sums_duplicate_entries(self):
        a = AijMat.from_coo(
            (2, 3), np.array([0, 0, 1]), np.array([0, 0, 2]),
            np.array([1.0, 2.0, 5.0]), sum_duplicates=False,
        )
        assert a.diagonal().tobytes() == _handle(a).diagonal().tobytes()
        assert a.diagonal().tolist() == [3.0, 0.0]
