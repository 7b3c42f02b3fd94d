#!/usr/bin/env python3
"""Wall-clock benchmark of the repro stack, one seeded workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grayscott_sell --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` wraps the entry points of each layer with spans and reports
the per-layer metrics instead, including the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.

``--cold-set-up`` is the child mode behind ``setup_s``: the process runs
one set-up and reports its timing to the parent that started it.
"""

from __future__ import annotations

import os

# Pin the BLAS pools to one thread before NumPy is first imported: on a
# two-core machine a second BLAS thread competes with the serving executor.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"
# Set-up must record and compile; an on-disk plan cache would skip that.
os.environ.pop("REPRO_PLAN_CACHE", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Prefix of the line on which a child process reports processor seconds.
COLD_TAG = "cold-set-up "
#: Seconds after which a child process is killed.
COLD_TIMEOUT_S = 60.0
#: A fixed cold start that uses nothing from ``repro``.  It tracks how fast
#: the machine currently runs a fresh interpreter (loading, unmarshalling
#: and running module code), which the short calibration probe of
#: ``harness.probe`` does not: on a shared machine the same cold start
#: can use 0.28 s of processor time in one process and 0.47 s in the next.
REFERENCE_START_UP = (
    "import time, numpy, scipy.sparse, scipy.sparse.linalg; "
    f"print('{COLD_TAG}' + repr(time.process_time()))"
)
#: Processor seconds :data:`REFERENCE_START_UP` takes at reference speed.
REFERENCE_START_UP_S = 0.45

WORKLOADS = {
    "grayscott_sell": "wl_grayscott",
    "serve_open": "wl_serve",
    "kernel_panel": "wl_kernel",
}

END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src`` (and nowhere else)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401

    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def report_cold_set_up(workload: str, seed: int, seconds: float) -> None:
    """Child side of :func:`cold_set_ups`: start-up and one set-up.

    Prints the processor seconds this process used from its start until
    its set-up was done.
    """
    import time

    load_program()
    module = importlib.import_module(WORKLOADS[workload])
    out = module.set_up(seed, seconds)
    print(f"{COLD_TAG}{time.process_time()!r}", flush=True)
    module.discard(out)


def processor_seconds(cmd: list[str]) -> float:
    """Run ``cmd`` to the end; the number it printed after :data:`COLD_TAG`."""
    out = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=COLD_TIMEOUT_S
    ).stdout
    line = next(line for line in out.splitlines() if line.startswith(COLD_TAG))
    return float(line[len(COLD_TAG):])


def cold_set_ups(
    workload: str, seed: int, seconds: float, repeats: int
) -> tuple[list[float], list[str]]:
    """``setup_s`` samples at reference speed, and notes on how they came.

    Each sample is a fresh interpreter started with ``--cold-set-up``: the
    processor time it used from its start until its set-up was done
    (interpreter start, imports, inputs, warm-up, spin-up or recording,
    as the timed ops of a run would first meet them).  Processor time
    leaves out waiting on the disk, on timers and on other processes.
    A reference start-up runs before the first child and after every
    child; a sample is its child's processor time at the speed where the
    reference takes :data:`REFERENCE_START_UP_S`, judged by the mean of
    the two references around it.
    """
    from harness import median

    child = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--cold-set-up",
    ]
    reference = [sys.executable, "-c", REFERENCE_START_UP]
    refs = [processor_seconds(reference)]
    raw = []
    for _ in range(repeats):
        raw.append(processor_seconds(child))
        refs.append(processor_seconds(reference))
    samples = [
        cpu * 2.0 * REFERENCE_START_UP_S / (before + after)
        for cpu, before, after in zip(raw, refs, refs[1:])
    ]

    def listed(values) -> str:
        return ", ".join(f"{v:.3f}" for v in values)

    notes = [
        f"set-up from process start, processor seconds at reference speed: "
        f"median {median(samples):.3f} of {listed(samples)} s",
        f"  raw {listed(raw)} s; reference start-ups {listed(refs)} s",
    ]
    return samples, notes


def parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-set-up", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if args.cold_set_up:
        report_cold_set_up(args.workload, args.seed, args.seconds)
        return 0
    load_program()

    from harness import median
    from layers import PER_LAYER

    module = importlib.import_module(WORKLOADS[args.workload])
    if not args.trace:
        # Before this process's own set-up, so the children never share
        # the machine with a large parent.
        cold, cold_notes = cold_set_ups(
            args.workload, args.seed, args.seconds, module.COLD_SET_UPS
        )
    # Traced: the untraced set-up, then a traced one that must match it.
    result = module.run(
        args.seed,
        args.seconds,
        bool(args.trace),
        setup_repeats=2 if args.trace else 1,
    )

    if args.trace:
        metrics = {
            name: {"value": float(result.per_layer.get(name, 0.0)), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
    else:
        result.put("setup_s", median(cold), "s")
        if "p50_ms" not in result.metrics:  # serve_open scales its own
            result.latency(result.op_times)
        result.notes += cold_notes
        result.notes.append(
            f"this process's own set-up took {result.setup_wall_s[0]:.3f} s"
        )
        if result.scaled:
            result.notes.append(
                f"op times are scaled to reference speed; wall-clock p50 "
                f"{median(result.raw_op_times) * 1000:.3f} ms"
            )
        metrics = {
            name: {"value": result.metrics[name][0], "unit": unit}
            for name, unit in END_TO_END
        }

    for line in result.notes + [f"FAILED CHECK: {p}" for p in result.problems]:
        print(f"# {line}")
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
