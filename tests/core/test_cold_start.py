"""A cold measurement returns the bytes a warm one of the same input does.

The trace-cache fill never interprets the target matrix: it tiles the
program from per-shape exemplars, fuses it, and answers the first
measurement by replaying that program — the one every later
measurement of the structure replays.
"""

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.dispatch import KernelVariant
from repro.core.traced import tile_trace
from repro.pde.problems import gray_scott_jacobian
from repro.simd.isa import SCALAR

VARIANTS = (
    "CSR using novec",
    "SELL using novec",
    "SELL using AVX512",
    "CSR using AVX512",
    "BETA using AVX512",
    "SELL using SVE",
)


@pytest.mark.parametrize("name", VARIANTS)
def test_cold_and_warm_measures_return_the_same_bytes(name):
    """+inf, -inf and NaN in one row's ``x``: rows that read them sum to NaN.

    Interpreted scalar arithmetic and batched NumPy steps propagate
    different NaN payloads (a produced -NaN against the input's +NaN),
    so a cold measurement that interpreted would disagree with the warm
    replay byte for byte.
    """
    csr = gray_scott_jacobian(6)
    x = np.random.default_rng(29).standard_normal(csr.shape[1])
    row0 = csr.colidx[csr.rowptr[0] : csr.rowptr[1]]
    x[row0[1:4]] = (np.inf, -np.inf, np.nan)
    ctx = ExecutionContext()
    with np.errstate(invalid="ignore"):
        cold = ctx.measure(name, csr, x=x)
        warm = ctx.measure(name, csr, x=x.copy())
    assert np.isnan(cold.y[0])
    assert cold.y.tobytes() == warm.y.tobytes()
    assert cold.counters == warm.counters


def _forgets_last_row(engine, a, x, y):
    """A CSR kernel that never computes its last row."""
    for r in range(a.shape[0] - 1):
        acc = 0.0
        for k in range(a.rowptr[r], a.rowptr[r + 1]):
            acc = engine.scalar_fma(
                engine.scalar_load(a.val, int(k)),
                engine.scalar_load(x, int(a.colidx[k])),
                acc,
            )
        engine.scalar_store(y, r, acc)


def test_added_kernel_on_a_decomposed_format_records_whole():
    """Unit decompositions belong to the kernels they were derived for.

    A kernel added on CSR must not be tiled from one-row exemplars of
    its own (this one records nothing on a single row): it records the
    matrix whole, and every measure equals its interpreted run.
    """
    variant = KernelVariant("forgets last row", "CSR", SCALAR, _forgets_last_row)
    csr = gray_scott_jacobian(6)
    x = np.random.default_rng(31).standard_normal(csr.shape[1])
    assert len(tile_trace(variant, csr).seq) == 1
    expected, counters = variant.run(csr, x)
    ctx = ExecutionContext()
    for _ in range(2):  # cold, then warm
        meas = ctx.measure(variant, csr, x=x)
        assert meas.y.tobytes() == expected.tobytes()
        assert meas.counters == counters
