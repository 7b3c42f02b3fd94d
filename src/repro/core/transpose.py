"""Transpose SpMV kernels (MatMultTranspose) for CSR and SELL.

PETSc's MATSELL grew ``MatMultTranspose`` support shortly after the paper.
The product solvers and adjoints use is
:meth:`Mat.multiply_transpose <repro.mat.base.Mat.multiply_transpose>`,
which runs on the same cached handle as the forward product for every
format.  This module keeps the instruction-level kernels that model the
future-work SIMD versions: :func:`spmv_csr_transpose` and
:func:`spmv_sell_transpose` invert Algorithm 1/2's memory behaviour — the
matrix is still read contiguously, but the *output* vector is now the
indirectly-accessed side, turning every gather into an AVX-512
scatter-accumulate.  On narrower ISAs (no scatter until AVX-512) the
accumulation falls back to scalar stores, which is why transpose products
vectorize even worse than forward ones — worth having on the record given
the adjoint context (the paper's own test problem ships as an adjoint
example, ex5adj).
"""

from __future__ import annotations

import numpy as np

from ..mat.aij import AijMat
from ..simd.engine import SimdEngine
from .sell import SellMat


def spmv_csr_transpose(
    engine: SimdEngine, a: AijMat, x: np.ndarray, y: np.ndarray
) -> None:
    """Transpose Algorithm 1: broadcast x[row], scatter into y.

    Per row: the row's values load contiguously, get scaled by the
    broadcast ``x[row]``, and scatter-accumulate through the column
    indices — a hardware scatter on AVX-512, scalar read-modify-writes
    elsewhere.
    """
    m, _ = a.shape
    y[:] = 0.0
    rowptr, colidx, val = a.rowptr, a.colidx, a.val
    c = engine.counters
    lanes = engine.lanes
    use_scatter = engine.isa.has_masks
    for row in range(m):
        start, end = int(rowptr[row]), int(rowptr[row + 1])
        if start == end:
            continue
        xi = engine.scalar_load(x, row)
        xv = engine.set1(xi) if engine.isa.is_vector else None
        idx = start
        body_end = start + ((end - start) // lanes) * lanes
        while idx < body_end and engine.isa.is_vector:
            vec_vals = engine.load(val, idx)
            vec_idx = engine.load_index(colidx, idx)
            scaled = engine.mul(vec_vals, xv)
            if use_scatter:
                engine.scatter_add(y, vec_idx, scaled)
            else:
                for lane in range(lanes):
                    col = int(vec_idx.data[lane])
                    prev = engine.scalar_load_indep(y, col)
                    engine.scalar_store(y, col, prev + float(scaled.data[lane]))
            idx += lanes
            c.body_iterations += 1
        for k in range(idx, end):
            v = engine.scalar_load_indep(val, k)
            col = int(engine.scalar_load_indep(colidx, k))
            prev = engine.scalar_load_indep(y, col)
            engine.scalar_store(y, col, prev + v * xi)
            c.flops += 2
        c.remainder_iterations += end - idx


def spmv_sell_transpose(
    engine: SimdEngine, sell: SellMat, x: np.ndarray, y: np.ndarray
) -> None:
    """Transpose Algorithm 2: gather x by output row, scatter into y.

    Per slice column: values and column indices load contiguously and
    aligned exactly as in the forward kernel; the C input values gather
    through the slice's row map, and the products scatter through the
    column indices.  Requires AVX-512 lanes to use the hardware scatter;
    degrades to scalar accumulation otherwise.
    """
    m, n = sell.shape
    y[:] = 0.0
    if not engine.isa.is_vector:
        # Scalar traversal of the layout.
        c = sell.slice_height
        for s in range(sell.nslices):
            base, end = int(sell.sliceptr[s]), int(sell.sliceptr[s + 1])
            for slot in range(base, end):
                lane = (slot - base) % c
                k = s * c + lane
                if k >= m:
                    continue
                row = sell.storage_row(k)
                v = engine.scalar_load(sell.val, slot)
                col = int(engine.scalar_load(sell.colidx, slot))
                xv = engine.scalar_load(x, row)
                prev = engine.scalar_load(y, col)
                engine.scalar_store(y, col, engine.scalar_fma(v, xv, prev))
        return
    c = sell.slice_height
    lanes = engine.lanes
    if c % lanes:
        raise ValueError(
            f"slice height {c} must be a multiple of the vector length {lanes}"
        )
    counters = engine.counters
    use_scatter = engine.isa.has_masks
    row_map = sell.row_map
    for s in range(sell.nslices):
        base = int(sell.sliceptr[s])
        end = int(sell.sliceptr[s + 1])
        width = (end - base) // c
        for strip in range(0, c, lanes):
            idx = base + strip
            # The strip's x values are fixed across the slice: gather once.
            from ..simd.register import VectorRegister

            row_idx = VectorRegister(row_map[idx : idx + lanes].copy())
            vec_x = engine.gather_auto(x, row_idx)
            for _ in range(width):
                vec_vals = engine.load_aligned(sell.val, idx)
                vec_idx = engine.load_index(sell.colidx, idx)
                scaled = engine.mul(vec_vals, vec_x)
                if use_scatter:
                    engine.scatter_add(y, vec_idx, scaled)
                else:
                    for lane in range(lanes):
                        col = int(vec_idx.data[lane])
                        prev = engine.scalar_load_indep(y, col)
                        engine.scalar_store(
                            y, col, prev + float(scaled.data[lane])
                        )
                idx += c
                counters.body_iterations += 1
    counters.padded_flops += 2 * sell.padded_entries
