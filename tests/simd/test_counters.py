"""Counter arithmetic: accumulation, scaling, derived quantities."""

from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simd.counters import KernelCounters


def make(**kwargs) -> KernelCounters:
    c = KernelCounters()
    for k, v in kwargs.items():
        setattr(c, k, v)
    return c


class TestArithmetic:
    def test_add_is_fieldwise(self):
        a = make(vector_load=3, flops=10, bytes_loaded=100)
        b = make(vector_load=1, vector_store=2, bytes_loaded=50)
        c = a + b
        assert c.vector_load == 4
        assert c.vector_store == 2
        assert c.flops == 10
        assert c.bytes_loaded == 150

    def test_add_leaves_operands_untouched(self):
        a = make(vector_load=3)
        b = make(vector_load=1)
        _ = a + b
        assert a.vector_load == 3 and b.vector_load == 1

    def test_iadd_mutates_in_place(self):
        a = make(scalar_fma=5)
        a += make(scalar_fma=2)
        assert a.scalar_fma == 7

    def test_add_with_non_counter_is_not_implemented(self):
        with pytest.raises(TypeError):
            _ = make() + 3

    def test_reset_zeroes_everything(self):
        a = make(vector_load=3, flops=10)
        a.reset()
        assert all(getattr(a, f.name) == 0 for f in fields(a))

    def test_copy_is_independent(self):
        a = make(vector_gather=4)
        b = a.copy()
        b.vector_gather = 9
        assert a.vector_gather == 4

    def test_copy_is_equal_and_mutating_it_leaves_the_original(self):
        a = make(**{f.name: i + 1 for i, f in enumerate(fields(KernelCounters))})
        before = a.as_dict()
        b = a.copy()
        assert type(b) is KernelCounters and b == a and b is not a
        b += a
        b.reset()
        b.flops = -1
        assert a.as_dict() == before


class TestScaling:
    def test_scaled_multiplies_every_field(self):
        a = make(vector_load=3, bytes_loaded=100, flops=7)
        b = a.scaled(4.0)
        assert b.vector_load == 12
        assert b.bytes_loaded == 400
        assert b.flops == 28

    def test_scaled_rounds_fractional_results(self):
        a = make(vector_load=3)
        assert a.scaled(0.5).vector_load == 2  # banker's rounding of 1.5

    def test_negative_scale_raises(self):
        with pytest.raises(ValueError):
            make().scaled(-1.0)


class TestDerived:
    def test_total_bytes(self):
        assert make(bytes_loaded=30, bytes_stored=12).total_bytes == 42

    def test_arithmetic_intensity(self):
        c = make(flops=20, bytes_loaded=100, bytes_stored=52)
        assert c.arithmetic_intensity == pytest.approx(20 / 152)

    def test_arithmetic_intensity_of_empty_counters_is_zero(self):
        assert KernelCounters().arithmetic_intensity == 0.0

    def test_total_vector_instructions_excludes_scalar(self):
        c = make(vector_load=2, vector_fmadd=3, scalar_load=100, masked_ops=5)
        assert c.total_vector_instructions == 5

    def test_as_dict_roundtrip(self):
        c = make(vector_load=2, flops=4)
        d = c.as_dict()
        assert d["vector_load"] == 2 and d["flops"] == 4
        assert len(d) == len(fields(c))


@given(factor=st.integers(min_value=0, max_value=1000))
def test_integer_scaling_is_exact(factor):
    a = make(vector_load=3, gather_lanes=17, flops=11)
    b = a.scaled(factor)
    assert b.vector_load == 3 * factor
    assert b.gather_lanes == 17 * factor
    assert b.flops == 11 * factor
