"""Per-figure/table experiment harnesses.

One module per evaluation artifact of the paper:

=================  =======================================================
module             reproduces
=================  =======================================================
``table1``         Table 1 — processor overview
``fig4``           Figure 4 — STREAM bandwidth vs process count on KNL
``fig7``           Figure 7 — out-of-box baseline CSR across grids/modes
``fig8``           Figure 8 — nine kernel variants, single KNL node
``fig9``           Figure 9 — roofline analysis on Theta
``fig10``          Figure 10 — multinode wall time, CSR vs SELL
``fig11``          Figure 11 — Haswell/Broadwell/Skylake/KNL comparison
``ablations``      Section 5 design-decision studies (bit array, sigma, C)
``headline``       the paper's headline quantitative claims in one table
``resilience``     seeded fault campaigns (not a figure; robustness sweep)
=================  =======================================================

Every module exposes ``run()`` returning structured data and ``render()``
returning the paper-style table; ``python -m repro.bench.experiments.figN``
prints it.
"""

from . import (
    ablations,
    fig4,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    headline,
    resilience,
    table1,
)

__all__ = [
    "ablations",
    "fig10",
    "fig11",
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "headline",
    "resilience",
    "table1",
]
