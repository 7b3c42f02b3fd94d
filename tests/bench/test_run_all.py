"""`run_all` renders every section, and its output is pinned."""

from pathlib import Path

from repro.bench import run_all

RUN_ALL_OUTPUT = Path(__file__).parent / "data" / "run_all.txt"


def test_sections_cover_the_whole_evaluation():
    names = [m.__name__.rsplit(".", 1)[-1] for m in run_all.SECTIONS]
    assert names == [
        "table1",
        "fig4",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "ablations",
        "headline",
    ]


def test_main_prints_all_sections(capsys):
    """The whole evaluation, byte for byte as pinned in ``data/run_all.txt``.

    Regenerate with
    ``PYTHONPATH=src python -m repro.bench.run_all > tests/bench/data/run_all.txt``
    only when a section's output is meant to change.
    """
    run_all.main()
    assert capsys.readouterr().out == RUN_ALL_OUTPUT.read_text()
