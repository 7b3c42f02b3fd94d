"""The tiled trace-cache fill equals a full recording, op for op.

The fill records one exemplar per unit shape and tiles the templates
over the matrix (:mod:`repro.simd.tiling`).  Nothing downstream may be
able to tell: the op list, the analyzer's side tables, the register and
scalar counts, the compiled steps, the counters and the product must be
exactly those of a :class:`~repro.simd.trace.TraceRecorder` run over the
whole matrix.  Hypothesis draws the structures that stress the unit
decompositions; the golden digests pin the benchmark's own cells.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.trace_lint import same_payload
from repro.core.dispatch import registered_variants
from repro.core.traced import record_kernel, replay_trace, tile_trace
from repro.mat.aij import AijMat
from repro.simd.replay import compile_trace

from .test_trace_digests import FIXTURE, _digest, cells


#: Lengths reach three full vectors and a remainder of 7 on 8 lanes.
MAX_LENGTH = 3 * 8 + 7


@st.composite
def structures(draw):
    """CSR structures with a palette of row lengths, empty rows and long rows.

    A palette of up to 12 lengths gives shape reuse across many keys:
    every remainder modulo the lanes, and rows and slices of zero to
    three body passes; ``m`` is often not a multiple of the slice height
    (a partial last slice, dead strips under 4 lanes).
    """
    m = draw(st.integers(1, 41))
    n = draw(st.integers(1, MAX_LENGTH + 1))
    palette = draw(
        st.lists(st.integers(0, min(n, MAX_LENGTH)), min_size=1, max_size=12)
    )
    lengths = draw(st.lists(st.sampled_from(palette), min_size=m, max_size=m))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    cols = [np.sort(rng.choice(n, size=k, replace=False)) for k in lengths]
    rowptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    colidx = np.concatenate(cols + [np.zeros(0, dtype=np.int64)]).astype(np.int32)
    csr = AijMat((m, n), rowptr, colidx, rng.standard_normal(colidx.shape[0]))
    knobs = {
        "sigma": draw(st.sampled_from([1, 16])),
        "block_shape": draw(st.sampled_from([(2, 4), (4, 2), (3, 5), (1, 8)])),
    }
    return csr, rng.standard_normal(n), knobs


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(structures())
def test_tiled_fill_equals_full_recording(case):
    csr, x, knobs = case
    for variant in registered_variants():
        try:
            mat = variant.prepare(csr, **knobs)
        except (ValueError, NotImplementedError):
            continue
        recorder, y = record_kernel(variant, mat, x)
        full = compile_trace(recorder)
        tiling = tile_trace(variant, mat)
        tiled = tiling.compile()
        name = variant.name
        assert same_payload(tiling.ops(), recorder.ops), name
        assert tiling.side_ops("aligned_ops") == recorder.aligned_ops, name
        assert tiling.side_ops("emulated_ops") == recorder.emulated_ops, name
        assert (tiled.nregs, tiled.nscalars, tiled.nops) == (
            full.nregs, full.nscalars, full.nops
        ), name
        assert same_payload(tiled.steps, full.steps), name
        assert tiled.counters == full.counters == recorder.counters, name
        y_tiled, _ = replay_trace(variant, tiled, mat, x)
        assert y_tiled.tobytes() == y.tobytes(), name


def test_tiled_fill_reproduces_the_golden_digests():
    """Every pinned cell, digested through the tiled path, is unchanged."""
    from repro.core.dispatch import get_variant

    expected = json.loads(FIXTURE.read_text())
    for cell, name, csr, x in cells():
        if "skipped" in expected[cell]:
            continue
        variant = get_variant(name)
        mat = variant.prepare(csr)
        tiling = tile_trace(variant, mat)
        trace = tiling.compile()
        counters = trace.counters
        got = {
            "ops": _digest(
                (
                    tiling.ops(),
                    sorted(tiling.side_ops("aligned_ops")),
                    sorted(tiling.side_ops("emulated_ops")),
                    tiling.nregs,
                    tiling.nscalars,
                )
            ),
            "buffers": _digest(
                [(s.index, s.name, s.nbytes, s.dtype, s.const) for s in trace.buffers]
            ),
            "counters": _digest(
                [(f.name, getattr(counters, f.name)) for f in dataclasses.fields(counters)]
            ),
            "y": _digest(replay_trace(variant, trace, mat, x)[0]),
            "steps": _digest((trace.lanes, trace.nregs, trace.nscalars, trace.steps)),
        }
        assert got == expected[cell], cell


@pytest.mark.parametrize(
    "name, shapes",
    [("CSR using AVX512", 1), ("SELL using AVX512", 2), ("BETA using AVX512", 4)],
)
def test_uniform_stencil_records_a_few_shapes(name, shapes):
    """The Gray-Scott stencil's thousand rows tile from a handful of shapes."""
    from repro.core.dispatch import get_variant
    from repro.pde.problems import gray_scott_jacobian

    variant = get_variant(name)
    tiling = tile_trace(variant, variant.prepare(gray_scott_jacobian(24)))
    assert len(tiling.templates) == shapes
    recorded = [p for t in tiling.templates for p in getattr(t, "pieces", (t,))]
    assert tiling.nops > 20 * sum(p.nops for p in recorded)


def test_strict_alignment_records_whole():
    """Exemplar addresses are not the target's, so a strict-alignment
    run records the matrix as one unit."""
    from repro.core.dispatch import get_variant
    from repro.pde.problems import gray_scott_jacobian

    variant = get_variant("SELL using AVX512")
    mat = variant.prepare(gray_scott_jacobian(6))
    assert len(tile_trace(variant, mat, strict_alignment=True).seq) == 1
    assert len(tile_trace(variant, mat).seq) == mat.nslices
