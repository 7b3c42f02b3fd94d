"""Print the paper's entire evaluation section from the model.

``python -m repro.bench.run_all`` renders Table 1, Figures 4 and 7-11,
the ablations (Sections 5.3, 5.4, 5.1, 3.2 and 2.2), and the
headline-claim checklist, in paper order.  This is the human-readable
companion to ``pytest benchmarks/``.
"""

from __future__ import annotations

from .experiments import (
    ablations,
    fig4,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    headline,
    table1,
)

#: Render order follows the paper.
SECTIONS = (
    table1,
    fig4,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    ablations,
    headline,
)


def main() -> None:
    """Render every experiment, separated by rules."""
    for module in SECTIONS:
        print(module.render())
        print()
        print("=" * 78)
        print()


if __name__ == "__main__":
    main()
