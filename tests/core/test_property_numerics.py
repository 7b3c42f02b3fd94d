"""Property-based tests on engine arithmetic."""

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
