#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload kernel_panel --seeds 1-10 --seconds 10

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints per
metric the median over seeds, the first and third quartiles
(``statistics.quantiles(values, n=4)``), and the interquartile distance as
a share of the median.  ``--json FILE`` also writes every run's metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in seeds_of(args.seeds):
        out = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append({"seed": seed, **out})
        values = " ".join(
            f"{k}={v['value']:.4g}" for k, v in out["metrics"].items() if v["value"]
        )
        print(f"seed {seed}: correct={out['correct']} failed={out['failed']} {values}",
              flush=True)
    print(f"\n{args.workload}: {len(runs)} runs")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) < 2 or not any(values):
            continue
        med, q1, q3, share = spread(values)
        print(f"  {name:32s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
              f"IQR/median {share:7.2%}")
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
