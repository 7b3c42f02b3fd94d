"""β(r,c) conversion: the whole-array cut equals the streaming loop, byte for byte.

``BetaMat.from_csr`` computes the greedy left-to-right cut of every band
with NumPy passes.  The oracle below is the per-band, per-entry loop it
replaced, with the per-mask-bit expansion of the derived arrays.  Every
array either builds, storage and derived, must match in bytes and dtype:
on the benchmark's five structures, and on Hypothesis-drawn structures
with empty rows and bands, ragged last bands, columns next to ``n - 1``,
unsorted columns and rows wider than a block.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.format_shootout import _block_structured, _near_empty_rows
from repro.core.beta import DEFAULT_BLOCK_SHAPE, BetaMat
from repro.mat.aij import AijMat
from repro.pde.problems import gray_scott_jacobian, irregular_rows, tridiagonal

ARRAYS = (
    "blockptr",
    "block_col",
    "block_mask",
    "val",
    "valptr",
    "gathercol",
    "_row_of_element",
)
SHAPES = ((1, 1), (2, 4), (4, 2), (8, 8), (1, 64))


def loop_conversion(csr: AijMat, block_shape: tuple[int, int]) -> dict[str, np.ndarray]:
    """The streaming converter: one left-to-right pass per band, entry by entry."""
    m, _ = csr.shape
    r, c = block_shape
    nbands = (m + r - 1) // r if m else 0
    blockptr = np.zeros(nbands + 1, dtype=np.int64)
    block_col: list[int] = []
    block_mask: list[int] = []
    val_parts: list[np.ndarray] = []
    for band in range(nbands):
        first = band * r
        rows = range(first, min(first + r, m))
        cols = np.concatenate(
            [csr.colidx[csr.rowptr[i] : csr.rowptr[i + 1]] for i in rows]
        ).astype(np.int64)
        vals = np.concatenate([csr.val[csr.rowptr[i] : csr.rowptr[i + 1]] for i in rows])
        rowi = np.concatenate(
            [
                np.full(int(csr.rowptr[i + 1] - csr.rowptr[i]), i - first, dtype=np.int64)
                for i in rows
            ]
        )
        order = np.argsort(cols, kind="stable")
        cols, vals, rowi = cols[order], vals[order], rowi[order]
        pos = 0
        while pos < cols.shape[0]:
            anchor = int(cols[pos])
            end = pos + int(np.searchsorted(cols[pos:], anchor + c))
            mask = 0
            for k in range(pos, end):
                mask |= 1 << (int(rowi[k]) * c + (int(cols[k]) - anchor))
            inblock = np.lexsort((cols[pos:end], rowi[pos:end])) + pos
            block_col.append(anchor)
            block_mask.append(mask)
            val_parts.append(vals[inblock])
            pos = end
        blockptr[band + 1] = len(block_col)
    val = np.concatenate(val_parts) if val_parts else np.zeros(0, dtype=np.float64)
    masks = np.asarray(block_mask, dtype=np.uint64)
    popcnt = np.array([int(mk).bit_count() for mk in masks.tolist()], dtype=np.int64)
    valptr = np.concatenate(([0], np.cumsum(popcnt, dtype=np.int64)))
    gathercol = np.zeros(val.shape[0], dtype=np.int32)
    row_of = np.zeros(val.shape[0], dtype=np.int64)
    for band in range(nbands):
        for b in range(int(blockptr[band]), int(blockptr[band + 1])):
            k = int(valptr[b])
            for i in range(r):
                for j in range(c):
                    if block_mask[b] >> (i * c + j) & 1:
                        gathercol[k] = block_col[b] + j
                        row_of[k] = band * r + i
                        k += 1
    return {
        "blockptr": blockptr,
        "block_col": np.asarray(block_col, dtype=np.int32),
        "block_mask": masks,
        "val": np.ascontiguousarray(val, dtype=np.float64),
        "valptr": valptr,
        "gathercol": gathercol,
        "_row_of_element": row_of,
    }


def assert_same_arrays(csr: AijMat, block_shape: tuple[int, int]) -> None:
    beta = BetaMat.from_csr(csr, block_shape=block_shape)
    expected = loop_conversion(csr, block_shape)
    for name in ARRAYS:
        got, want = getattr(beta, name), expected[name]
        assert got.dtype == want.dtype, (name, got.dtype, want.dtype)
        assert got.shape == want.shape, (name, got.shape, want.shape)
        assert got.tobytes() == want.tobytes(), name


PANEL = {
    "stencil": lambda: gray_scott_jacobian(24),
    "banded": lambda: tridiagonal(1024),
    "long-tail": lambda: irregular_rows(768, min_len=2, max_len=40, alpha=1.1, seed=3),
    "block": lambda: _block_structured(nb=160, bs=4, seed=5),
    "near-empty": lambda: _near_empty_rows(n=1024, seed=9),
}


@pytest.mark.parametrize("family", sorted(PANEL))
def test_panel_structures_convert_like_the_loop(family):
    assert_same_arrays(PANEL[family](), DEFAULT_BLOCK_SHAPE)


@st.composite
def csr_matrices(draw):
    """Small CSR matrices that stress the cut's corner cases.

    Rows are often empty (and so whole bands), ``m`` is often not a
    multiple of ``r``, and columns cluster near ``0`` and ``n - 1``; a
    row may hold every column, and a row's columns may come unsorted.
    """
    m = draw(st.integers(0, 24))
    n = draw(st.integers(1, 70))
    column = st.one_of(
        st.integers(0, n - 1),
        st.integers(max(0, n - 3), n - 1),
        st.integers(0, min(n - 1, 2)),
    )
    empty_share = draw(st.sampled_from((0.0, 0.3, 0.7)))
    rows = []
    for _ in range(m):
        if draw(st.floats(0.0, 1.0)) < empty_share:
            rows.append([])
        elif draw(st.integers(0, 3)) == 0:
            rows.append(list(range(n)))
        else:
            rows.append(draw(st.lists(column, unique=True, max_size=n)))
    if not draw(st.booleans()):
        rows = [sorted(row) for row in rows]
    rowptr = np.concatenate(([0], np.cumsum([len(row) for row in rows], dtype=np.int64)))
    colidx = np.array([col for row in rows for col in row], dtype=np.int32)
    vals = np.arange(1, colidx.shape[0] + 1, dtype=np.float64)
    return AijMat((m, n), rowptr, colidx, vals)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(csr=csr_matrices(), block_shape=st.sampled_from(SHAPES))
def test_drawn_structures_convert_like_the_loop(csr, block_shape):
    assert_same_arrays(csr, block_shape)


@pytest.mark.parametrize("block_shape", SHAPES)
def test_empty_matrices_convert_like_the_loop(block_shape):
    for m, n in ((0, 5), (5, 5), (7, 1)):
        empty = AijMat((m, n), np.zeros(m + 1, dtype=np.int64), [], [])
        assert_same_arrays(empty, block_shape)


def test_anchors_follow_the_first_uncovered_column():
    """Two rows, columns 1-4 and 3-6 under β(2,4): blocks at 1 and 5, not 0 and 4."""
    csr = AijMat(
        (2, 8),
        [0, 4, 8],
        [1, 2, 3, 4, 3, 4, 5, 6],
        np.arange(1.0, 9.0),
    )
    beta = BetaMat.from_csr(csr, block_shape=(2, 4))
    assert beta.block_col.tolist() == [1, 5]
    assert_same_arrays(csr, (2, 4))
