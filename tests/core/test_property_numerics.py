"""Property-based tests on engine arithmetic and the triangular machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simd.engine import SimdEngine
from repro.simd.isa import AVX, AVX2, AVX512
from repro.simd.register import VectorRegister

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(
    a=st.lists(finite, min_size=8, max_size=8),
    b=st.lists(finite, min_size=8, max_size=8),
    c=st.lists(finite, min_size=8, max_size=8),
)
def test_engine_fmadd_matches_numpy(a, b, c):
    engine = SimdEngine(AVX512)
    result = engine.fmadd(
        VectorRegister(np.array(a)),
        VectorRegister(np.array(b)),
        VectorRegister(np.array(c)),
    )
    assert np.array_equal(result.data, np.array(a) * np.array(b) + np.array(c))


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(finite, min_size=1, max_size=64),
    seed=st.integers(0, 2**31 - 1),
)
def test_gather_and_emulated_gather_agree(values, seed):
    """Hardware gather and the AVX emulation fetch identical lanes."""
    x = np.array(values, dtype=np.float64)
    rng = np.random.default_rng(seed)
    hw_idx = rng.integers(0, x.shape[0], size=4)
    hw = SimdEngine(AVX2).gather(x, VectorRegister(hw_idx))
    sw = SimdEngine(AVX).emulated_gather(x, VectorRegister(hw_idx))
    assert np.array_equal(hw.data, sw.data)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(finite, min_size=8, max_size=8),
    active=st.integers(min_value=0, max_value=8),
)
def test_reduce_of_masked_load_sums_the_prefix(values, active):
    engine = SimdEngine(AVX512)
    buf = np.array(values, dtype=np.float64)
    reg = engine.masked_load(buf, 0, engine.make_mask(active))
    # NumPy's pairwise summation groups differently for 8 lanes than for
    # the bare prefix, so agreement is to rounding, not bitwise.
    expected = float(buf[:active].sum())
    assert engine.reduce_add(reg) == pytest.approx(expected, rel=1e-12, abs=1e-9)


@st.composite
def lower_triangular(draw, max_dim: int = 20):
    """A random nonsingular lower-triangular CSR matrix."""
    from repro.mat.aij import AijMat

    n = draw(st.integers(min_value=1, max_value=max_dim))
    density = draw(st.floats(min_value=0.0, max_value=0.6))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    dense = np.tril(rng.standard_normal((n, n)) * (rng.random((n, n)) < density), -1)
    dense[np.arange(n), np.arange(n)] = rng.uniform(0.5, 2.0, n) * np.where(
        rng.random(n) < 0.5, -1.0, 1.0
    )
    return AijMat.from_dense(dense)


@settings(max_examples=25, deadline=None)
@given(tri_csr=lower_triangular(), seed=st.integers(0, 1000))
def test_sell_triangular_solve_property(tri_csr, seed):
    """T @ solve(b) == b for arbitrary lower-triangular systems, and the
    level schedule respects every dependency."""
    import scipy.linalg as sla

    from repro.core.triangular import SellTriangular, level_schedule

    n = tri_csr.shape[0]
    b = np.random.default_rng(seed).standard_normal(n)
    tri = SellTriangular(tri_csr, lower=True, slice_height=4)
    x = tri.solve(b)
    ref = sla.solve_triangular(tri_csr.to_dense(), b, lower=True)
    assert np.allclose(x, ref, atol=1e-8 * max(1.0, np.abs(ref).max()))

    levels = level_schedule(tri_csr, lower=True)
    level_of = np.empty(n, dtype=int)
    for lvl, rows in enumerate(levels):
        level_of[rows] = lvl
    for i in range(n):
        cols, _ = tri_csr.get_row(i)
        deps = cols[cols < i]
        if deps.size:
            assert level_of[deps].max() < level_of[i]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 16), n=st.integers(2, 16))
def test_transpose_fast_paths_property(seed, m, n):
    """CSR/SELL multiply_transpose equal the dense transpose product, and
    each other bit for bit."""
    from repro.core.sell import SellMat
    from tests.conftest import make_random_csr

    csr = make_random_csr(m, n, density=0.4, seed=seed % 1000)
    x = np.random.default_rng(seed).standard_normal(m)
    ref = csr.to_dense().T @ x
    y = csr.multiply_transpose(x)
    assert np.allclose(y, ref, atol=1e-10)
    if m == n:
        sell = SellMat.from_csr(csr, slice_height=4)
        assert sell.multiply_transpose(x).tobytes() == y.tobytes()
