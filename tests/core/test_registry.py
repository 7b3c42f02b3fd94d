"""The open kernel/format registries and their dispatch errors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dispatch import (
    ALL_VARIANTS,
    FIGURE8_VARIANTS,
    FIGURE11_VARIANTS,
    SELL_AVX512,
    KernelVariant,
    get_variant,
    register_variant,
    registered_variants,
)
from repro.core.kernels_sell import spmv_sell
from repro.core.traced import TRACE_BUFFERS
from repro.mat.aij import AijMat
from repro.mat.base import (
    UnknownFormatError,
    converter_for,
    register_format,
    registered_formats,
)
from repro.simd.isa import AVX512


class TestVariantRegistry:
    def test_builtin_series_are_registered(self):
        for variant in FIGURE8_VARIANTS + FIGURE11_VARIANTS:
            assert ALL_VARIANTS[variant.name] is variant
        for name in ("BAIJ using AVX512", "ESB using AVX512"):
            assert name in ALL_VARIANTS

    def test_registered_variants_sorted_by_name(self):
        names = [v.name for v in registered_variants()]
        assert names == sorted(names)

    def test_reregistering_the_same_variant_is_a_noop(self):
        assert register_variant(SELL_AVX512) is SELL_AVX512

    def test_name_collision_with_a_different_variant_is_an_error(self):
        impostor = KernelVariant(
            "SELL using AVX512", "CSR", AVX512, spmv_sell
        )
        with pytest.raises(ValueError, match="already registered"):
            register_variant(impostor)

    def test_registration_shows_up_in_lookup(self):
        mine = register_variant(
            KernelVariant("test-only SELL clone", "SELL", AVX512, spmv_sell)
        )
        try:
            assert get_variant("test-only SELL clone") is mine
            assert mine in registered_variants()
        finally:
            del ALL_VARIANTS["test-only SELL clone"]


class TestGetVariantErrors:
    def test_unknown_name_suggests_the_closest_legend(self):
        with pytest.raises(KeyError, match="did you mean 'SELL using AVX512'"):
            get_variant("SELL using AVX-512")

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(KeyError, match="known:"):
            get_variant("no such kernel at all")


class TestFormatRegistry:
    def test_builtin_formats_present(self):
        formats = registered_formats()
        for fmt in ("CSR", "SELL", "ESB", "BAIJ"):
            assert fmt in formats

    def test_converter_dispatch(self, gray_scott_small):
        sell = converter_for("SELL")(gray_scott_small, slice_height=16)
        assert sell.slice_height == 16

    def test_unknown_format_error_lists_registered(self):
        with pytest.raises(UnknownFormatError, match="SELL"):
            converter_for("DIA")

    def test_conflicting_reregistration_is_an_error(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_format("CSR")
            def _other(csr, *, slice_height=8, sigma=1):  # pragma: no cover
                return csr


class TestNoOrphanedRegistrations:
    """A format or trace-buffer map that no variant runs is dead code."""

    #: Registered spellings of a format some variant runs under another name.
    ALIASES = frozenset({"AIJ"})

    def test_every_format_is_run_by_a_variant_or_is_an_alias(self):
        used = {v.fmt for v in registered_variants()}
        orphans = set(registered_formats()) - used - self.ALIASES
        assert not orphans, f"formats no variant runs: {sorted(orphans)}"

    def test_aliases_are_registered_formats(self):
        assert self.ALIASES <= set(registered_formats())

    def test_every_trace_buffer_map_belongs_to_a_variant_format(self):
        used = {v.fmt for v in registered_variants()}
        orphans = set(TRACE_BUFFERS) - used
        assert not orphans, f"trace buffers no variant records: {sorted(orphans)}"


# ---------------------------------------------------------------------------
# Registry-driven correctness: every registered variant must agree with
# the scalar CSR reference on random matrices.  New registrations are
# covered automatically.
# ---------------------------------------------------------------------------


@st.composite
def even_square_matrices(draw, max_half: int = 9):
    """Random square CSR with even dimensions (BAIJ blocks need them)."""
    m = 2 * draw(st.integers(min_value=1, max_value=max_half))
    density = draw(st.floats(min_value=0.05, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random((m, m)) < density
    dense = np.where(mask, rng.standard_normal((m, m)), 0.0)
    return AijMat.from_dense(dense)


@settings(max_examples=20, deadline=None)
@given(csr=even_square_matrices())
def test_every_registered_variant_matches_the_scalar_reference(csr):
    x = np.random.default_rng(99).standard_normal(csr.shape[1])
    reference = csr.multiply(x)
    for variant in registered_variants():
        mat = variant.prepare(csr)
        y, _ = variant.run(mat, x)
        np.testing.assert_allclose(
            y, reference, rtol=1e-12, atol=1e-12,
            err_msg=f"{variant.name} diverges from the scalar CSR reference",
        )
