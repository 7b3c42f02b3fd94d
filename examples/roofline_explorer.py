#!/usr/bin/env python
"""Roofline explorer: where does your kernel sit on the KNL roofline?

Recreates the Figure 9 analysis interactively: for a chosen matrix and a
chosen set of kernel variants, compute the Section 6 arithmetic intensity,
the attainable ceiling, and the model's achieved performance, and render a
log-log ASCII roofline with the points placed on it.

Run:  python examples/roofline_explorer.py
"""

import math

from repro import ExecutionContext, gray_scott_jacobian
from repro.core.dispatch import CSR_BASELINE, CSR_NOVEC, SELL_AVX512
from repro.machine.roofline import THETA_CEILINGS, THETA_PEAK_GFLOPS, attainable

VARIANTS = (SELL_AVX512, CSR_BASELINE, CSR_NOVEC)
SCALE = (2048 / 48) ** 2  # model at the paper's grid


def ascii_roofline(points, width=68, height=16) -> str:
    """Log-log plot: ceilings as slopes, kernels as letters."""
    ai_lo, ai_hi = 0.03, 30.0
    gf_lo, gf_hi = 1.0, 2000.0

    def to_col(ai):
        return int(
            (math.log10(ai) - math.log10(ai_lo))
            / (math.log10(ai_hi) - math.log10(ai_lo))
            * (width - 1)
        )

    def to_row(gf):
        frac = (math.log10(gf) - math.log10(gf_lo)) / (
            math.log10(gf_hi) - math.log10(gf_lo)
        )
        return height - 1 - int(frac * (height - 1))

    canvas = [[" "] * width for _ in range(height)]
    for ceiling in THETA_CEILINGS:
        for col in range(width):
            ai = 10 ** (
                math.log10(ai_lo)
                + col / (width - 1) * (math.log10(ai_hi) - math.log10(ai_lo))
            )
            gf = min(THETA_PEAK_GFLOPS, ceiling.bandwidth_gbs * ai)
            row = to_row(max(gf, gf_lo))
            if 0 <= row < height:
                canvas[row][col] = "." if canvas[row][col] == " " else canvas[row][col]
    legend = []
    for marker, (label, ai, gf) in zip("ABCDEFG", points):
        row, col = to_row(max(gf, gf_lo)), to_col(ai)
        if 0 <= row < height and 0 <= col < width:
            canvas[row][col] = marker
        legend.append(f"  {marker} = {label} (AI {ai:.3f}, {gf:.1f} Gflop/s)")
    plot = "\n".join("".join(row) for row in canvas)
    return plot + "\n" + "\n".join(legend)


def main() -> None:
    csr = gray_scott_jacobian(48)
    # KNL 7230, flat-MCDRAM, all 64 cores; each kernel runs once, so
    # interpret it instead of recording a trace to replay.
    ctx = ExecutionContext(use_traces=False)
    points = []
    print(f"{'kernel':20s} {'AI':>7s} {'Gflop/s':>8s} {'MCDRAM roof':>12s} {'of roof':>8s}")
    for variant in VARIANTS:
        meas = ctx.measure(variant, csr)
        perf = ctx.predict(meas, scale=SCALE)
        ai = meas.traffic.arithmetic_intensity
        roof = attainable(ai)["MCDRAM"]
        points.append((variant.name, ai, perf.gflops))
        print(f"{variant.name:20s} {ai:7.3f} {perf.gflops:8.1f} "
              f"{roof:12.1f} {100 * perf.gflops / roof:7.0f}%")

    print("\nroofline (log-log; dots are the L1/L2/MCDRAM ceilings):\n")
    print(ascii_roofline(points))


if __name__ == "__main__":
    main()
