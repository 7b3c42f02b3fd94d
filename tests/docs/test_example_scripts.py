"""Run every example script the README lists: the tuning API, the
Gray-Scott solve, the parallel SpMV, the distributed solve and the
profiling tour.

The scripts in ``examples/`` are user-facing tutorials; each must still
run end to end against the current package.  They execute as separate
processes, exactly as the README tells a user to run them, with the
test's ``tmp_path`` as cwd (``profiling_tour.py`` writes its exports
there).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

SCRIPTS = (
    "quickstart.py",
    "gray_scott_simulation.py",
    "format_shootout.py",
    "parallel_spmv_demo.py",
    "roofline_explorer.py",
    "profiling_tour.py",
    "parallel_simulation.py",
)


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_script_runs(script, tmp_path):
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(REPO / "examples" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip(), f"{script} printed nothing"
