#!/usr/bin/env python
"""Quickstart: build the paper's operator, run the SELL kernel, predict KNL.

The five-minute tour of the library:

1. assemble the Gray-Scott Crank-Nicolson operator (10 nonzeros per row,
   natural 2x2 blocks — the matrix every figure of the paper measures);
2. convert it to sliced ELLPACK and check the format's storage properties;
3. execute the hand-vectorized AVX-512 SpMV kernel (Algorithm 2) on the
   simulated SIMD engine, verifying the result against the CSR fast path;
4. price the measured instruction stream on the calibrated KNL model at
   the paper's scale (2048x2048 grid, 64 ranks) and compare CSR vs SELL.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import ExecutionContext, SellMat, gray_scott_jacobian


def main() -> None:
    # 1. The paper's operator on a small reference grid.
    csr = gray_scott_jacobian(64)
    m, n = csr.shape
    print(f"Gray-Scott CN operator: {m} x {n}, nnz = {csr.nnz} "
          f"({csr.nnz // m} per row)")

    # 2. Sliced ELLPACK conversion (slice height 8 = one ZMM of doubles).
    sell = SellMat.from_csr(csr, slice_height=8)
    print(f"SELL: {sell.nslices} slices, padded entries = "
          f"{sell.padded_entries} ({100 * sell.padding_fraction:.2f}%)")
    print(f"storage: CSR {csr.memory_bytes():,} B vs SELL "
          f"{sell.memory_bytes():,} B")

    # 3. Run Algorithm 2 on the simulated AVX-512 engine; numerics are real.
    # KNL 7230, flat-MCDRAM, all 64 cores; each kernel runs once, so
    # interpret it instead of recording a trace to replay.
    ctx = ExecutionContext(use_traces=False)
    x = np.random.default_rng(0).standard_normal(n)
    meas_sell = ctx.measure("SELL using AVX512", csr, x)
    meas_csr = ctx.measure("CSR baseline", csr, x)
    assert np.allclose(meas_sell.y, csr.multiply(x))
    c = meas_sell.counters
    print(f"\nSELL AVX-512 kernel on the engine: "
          f"{c.vector_fmadd} fmadds, {c.vector_gather} gathers, "
          f"{c.total_bytes:,} bytes issued")
    print(f"analytic minimum traffic (Sec 6 model): "
          f"{meas_sell.traffic.total_bytes:,} B, "
          f"AI = {meas_sell.traffic.arithmetic_intensity:.3f} flop/B")

    # 4. Predict the paper's single-node experiment: 2048^2 grid, 64 ranks.
    scale = (2048 / 64) ** 2  # reference grid -> paper grid
    perf_sell = ctx.predict(meas_sell, scale=scale)
    perf_csr = ctx.predict(meas_csr, scale=scale)
    print(f"\nKNL 7230, flat-MCDRAM, 64 ranks, 2048x2048 grid:")
    print(f"  CSR baseline      : {perf_csr.gflops:5.1f} Gflop/s "
          f"({perf_csr.bound}-bound)")
    print(f"  SELL using AVX512 : {perf_sell.gflops:5.1f} Gflop/s "
          f"({perf_sell.bound}-bound)")
    print(f"  speedup           : {perf_sell.gflops / perf_csr.gflops:.2f}x "
          f"(paper: ~2x)")


if __name__ == "__main__":
    main()
