"""BAIJ (block CSR) SpMV at instruction level — the Section 3.2 story.

The paper argues that register blocking, the classic CSR optimization for
narrow-SIMD CPUs, turns counterproductive on KNL: "matrices with small
natural blocks would need zero padding or masked vector operations,
yielding loss in SIMD efficiency" (Section 3.2), which is why it ships
SELL instead of leaning on BAIJ.  This kernel makes that argument
measurable.

For block size 2 on an 8-lane machine, one ZMM register holds two whole
2x2 blocks.  The kernel processes a block row's blocks two at a time:

* a contiguous load of 8 block values (aligned — dense blocks pack
  perfectly, BAIJ's real strength: no column index per scalar);
* a gather of the two blocks' x pairs *duplicated per block row*
  (indices ``[x0, x1, x0, x1, x2, x3, x2, x3]``) — the register-blocking
  data reuse, expressed as redundant gather lanes;
* an FMA, then a horizontal pairwise reduction (shuffle + add, counted as
  insert + add) to compress per-lane products into the two output rows.

The efficiency loss the paper predicts shows up directly in the counters:
the pairwise reductions and the odd-block masked tail do work that SELL's
layout never needs, and the benchmarks compare ``useful flops per vector
instruction`` across the two kernels.
"""

from __future__ import annotations

import numpy as np

from ..mat.baij import BaijMat
from ..simd.engine import SimdEngine
from ..simd.register import VectorRegister


def spmv_baij(engine: SimdEngine, a: BaijMat, x: np.ndarray, y: np.ndarray) -> None:
    """Block-CSR SpMV on the engine (block size 2, the Gray-Scott shape).

    Exact numerics; scalar fallback below 4 lanes.  A 4-lane register
    holds one block, so there is no odd-block tail; a wider one needs
    AVX-512 mask registers for it.
    """
    if a.bs != 2:
        raise ValueError("the instruction-level BAIJ kernel models bs=2")
    if engine.lanes > 4 and not engine.isa.has_masks:
        raise ValueError(
            f"the BAIJ kernel's odd-block tail needs mask registers, "
            f"which {engine.isa.name} lacks"
        )
    m, _ = a.shape
    y[:] = 0.0
    if not engine.isa.is_vector or engine.lanes < 4:
        _spmv_baij_scalar(engine, a, x, y)
        return

    lanes = engine.lanes
    blocks_per_reg = lanes // 4  # 2x2 blocks per vector register
    counters = engine.counters
    val_flat = a.val.reshape(-1)  # (nblocks*4,), row-major within blocks
    mb = m // 2
    for bi in range(mb):
        lo, hi = int(a.browptr[bi]), int(a.browptr[bi + 1])
        acc = engine.setzero()
        k = lo
        full = lo + ((hi - lo) // blocks_per_reg) * blocks_per_reg
        while k < full:
            # blocks_per_reg whole blocks: 4*blocks_per_reg contiguous values.
            vec_vals = engine.load(val_flat, 4 * k)
            # x pairs, duplicated per block row: the register-blocking reuse.
            idx = np.empty(lanes, dtype=np.int64)
            for b in range(blocks_per_reg):
                bj = int(a.bcolidx[k + b])
                idx[4 * b : 4 * b + 4] = [2 * bj, 2 * bj + 1, 2 * bj, 2 * bj + 1]
            vec_x = engine.gather_auto(x, VectorRegister(idx))
            acc = engine.fmadd_auto(vec_vals, vec_x, acc)
            k += blocks_per_reg
            counters.body_iterations += 1
        # Odd tail block, masked (the Section 3.2 "zero padding or
        # masked vector operations").
        for kk in range(k, hi):
            bj = int(a.bcolidx[kk])
            mask = engine.make_mask(4)
            vec_vals = engine.masked_load(val_flat, 4 * kk, mask)
            idx = np.zeros(lanes, dtype=np.int64)
            idx[:4] = [2 * bj, 2 * bj + 1, 2 * bj, 2 * bj + 1]
            vec_x = engine.masked_gather(x, VectorRegister(idx), mask)
            acc = engine.masked_fmadd(vec_vals, vec_x, acc, mask)
            counters.remainder_iterations += 1
        # Pairwise horizontal reduction.  Within each block's four lanes,
        # lanes (0, 1) hold output-row-0 products and (2, 3) row 1; one
        # shuffle + add per halving step (counted as insert + add), then
        # two scalar stores.
        row0 = engine.reduce_select(
            acc, (tuple(range(0, lanes, 4)), tuple(range(1, lanes, 4)))
        )
        row1 = engine.reduce_select(
            acc, (tuple(range(2, lanes, 4)), tuple(range(3, lanes, 4)))
        )
        steps = max(int(np.log2(max(blocks_per_reg, 1))) + 1, 1)
        counters.vector_insert += steps
        counters.vector_add += steps
        engine.scalar_store(y, 2 * bi, row0)
        engine.scalar_store(y, 2 * bi + 1, row1)


def _spmv_baij_scalar(
    engine: SimdEngine, a: BaijMat, x: np.ndarray, y: np.ndarray
) -> None:
    """Scalar BAIJ traversal (novec builds and sub-4-lane ISAs)."""
    val_flat = a.val.reshape(-1)
    mb = a.shape[0] // 2
    for bi in range(mb):
        acc0 = 0.0
        acc1 = 0.0
        for k in range(int(a.browptr[bi]), int(a.browptr[bi + 1])):
            bj = int(a.bcolidx[k])
            x0 = engine.scalar_load(x, 2 * bj)
            x1 = engine.scalar_load(x, 2 * bj + 1)
            acc0 = engine.scalar_fma(engine.scalar_load(val_flat, 4 * k), x0, acc0)
            acc0 = engine.scalar_fma(engine.scalar_load(val_flat, 4 * k + 1), x1, acc0)
            acc1 = engine.scalar_fma(engine.scalar_load(val_flat, 4 * k + 2), x0, acc1)
            acc1 = engine.scalar_fma(engine.scalar_load(val_flat, 4 * k + 3), x1, acc1)
        engine.scalar_store(y, 2 * bi, acc0)
        engine.scalar_store(y, 2 * bi + 1, acc1)


def simd_efficiency(counters) -> float:
    """Useful flops per vector instruction: the Section 3.2 quantity.

    SELL's maskless full-width kernel sets the reference; blocked kernels
    fall below it through masked tails and horizontal reductions.
    """
    instructions = counters.total_vector_instructions
    if instructions == 0:
        return 0.0
    return (counters.flops - counters.padded_flops) / instructions
