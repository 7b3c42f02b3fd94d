"""Aligned allocation."""

import numpy as np
import pytest

from repro.memory.spaces import aligned_alloc


class TestAlignedAlloc:
    @pytest.mark.parametrize("alignment", [16, 32, 64, 128, 4096])
    def test_base_address_is_truly_aligned(self, alignment):
        buf = aligned_alloc(100, np.float64, alignment)
        assert buf.ctypes.data % alignment == 0
        assert buf.shape == (100,)
        assert buf.dtype == np.float64

    def test_non_power_of_two_alignment_raises(self):
        with pytest.raises(ValueError):
            aligned_alloc(10, np.float64, 48)

    def test_zero_length_allocation(self):
        buf = aligned_alloc(0, np.float64, 64)
        assert buf.shape == (0,)

    def test_integer_dtype(self):
        buf = aligned_alloc(10, np.int32, 64)
        assert buf.dtype == np.int32
        assert buf.ctypes.data % 64 == 0

    def test_buffer_is_zero_initialized(self):
        assert np.all(aligned_alloc(50) == 0.0)

