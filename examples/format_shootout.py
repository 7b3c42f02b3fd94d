#!/usr/bin/env python
"""Format shootout: choose a sparse format for *your* matrix, KNL-style.

A downstream-user scenario: you have a matrix — one of the gallery
generators, or any Matrix Market ``.mtx`` file — and want to know
(a) which format/ISA combination the calibrated KNL model favours,
(b) how the padding economics look, (c) whether sigma-sorting would pay,
and (d) which SELL (C, sigma) the context's tuning sweep recommends.
This exercises the format zoo, the measurement API, Matrix Market I/O,
and the tuning machinery on matrices very unlike the paper's friendly
banded operator.

Run:  python examples/format_shootout.py [gray-scott|irregular|tridiag|nine-point|/path/to/matrix.mtx]
"""

import sys

from repro import FIGURE8_VARIANTS, ExecutionContext
from repro.core.dispatch import SELL_AVX512
from repro.core.sell import SellMat
from repro.mat.sparsity import profile, sliced_padding
from repro.pde.problems import (
    gray_scott_jacobian,
    irregular_rows,
    nine_point_2d,
    tridiagonal,
)

GALLERY = {
    "gray-scott": lambda: gray_scott_jacobian(32),
    "irregular": lambda: irregular_rows(2048, min_len=2, max_len=64, seed=1),
    "tridiag": lambda: tridiagonal(2048),
    "nine-point": lambda: nine_point_2d(48),
}


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "gray-scott"
    if name.endswith(".mtx"):
        from repro.mat.io import read_matrix_market

        csr = read_matrix_market(name)
    elif name in GALLERY:
        csr = GALLERY[name]()
    else:
        raise SystemExit(
            f"unknown matrix {name!r}; choose from {sorted(GALLERY)} or "
            "pass a .mtx path"
        )
    p = profile(csr)
    print(f"matrix {name!r}: {p.rows} rows, {p.nnz} nnz, row lengths "
          f"{p.min_row}..{p.max_row} (mean {p.mean_row:.1f}, std {p.std_row:.1f})\n")

    # Padding economics per slice height.
    print("SELL padding by slice height:")
    for c in (1, 2, 4, 8, 16):
        pad = sliced_padding(csr, c)
        print(f"  C={c:<3d} padding {pad:7d} slots "
              f"({100 * pad / (pad + csr.nnz):5.1f}%)")
    print()

    # Would sigma-sorting pay?
    base = sliced_padding(csr, 8, sigma=1)
    sigma_gain = {
        sigma: sliced_padding(csr, 8, sigma) for sigma in (8, 64, 512)
        if sigma <= p.rows
    }
    print("padding with sigma-window sorting (C=8):")
    print(f"  sigma=1 (no sorting): {base}")
    for sigma, pad in sigma_gain.items():
        print(f"  sigma={sigma:<4d}          : {pad}")
    print()

    # Model every Figure 8 variant on a full KNL node.
    # KNL 7230, flat-MCDRAM, all 64 cores; each kernel runs once, so
    # interpret it instead of recording a trace to replay.
    ctx = ExecutionContext(use_traces=False)
    print(f"{'variant':22s} {'Gflop/s':>8s}  bound")
    results = []
    for variant in FIGURE8_VARIANTS:
        meas = ctx.measure(variant, csr)
        perf = ctx.predict(meas)
        results.append((perf.gflops, variant.name, perf.bound))
        print(f"{variant.name:22s} {perf.gflops:8.1f}  {perf.bound}")
    best = max(results)
    print(f"\nrecommended: {best[1]} ({best[0]:.1f} Gflop/s)")

    # Let the tuning sweep pick SELL parameters for this structure.
    knobs = {"slice_heights": (8, 16), "sigmas": (1, 64, 256)}
    plans = ctx.sweep(csr, (SELL_AVX512,), **knobs)
    best = ctx.best_plan(csr, (SELL_AVX512,), **knobs)
    padding = ctx.measure(
        SELL_AVX512, csr, slice_height=best.slice_height, sigma=best.sigma
    ).mat.padding_fraction
    print(f"\nSELL tuning sweep: best C={best.slice_height}, "
          f"sigma={best.sigma} ({best.gflops:.1f} Gflop/s, padding "
          f"{100 * padding:.1f}%)", end="")
    default = next(
        p for p in plans if p.slice_height == 8 and p.sigma == 1
    )
    if best.gflops > 1.05 * default.gflops:
        print(f" -- {best.gflops / default.gflops:.2f}x over the "
              f"paper's C=8/sigma=1 default on this matrix")
    else:
        print(" -- the paper's C=8/sigma=1 default stands")

    sell = SellMat.from_csr(csr, 8)
    if sell.padding_fraction > 0.3:
        print("note: heavy padding -- consider sigma-sorting for this "
              "structure")


if __name__ == "__main__":
    main()
