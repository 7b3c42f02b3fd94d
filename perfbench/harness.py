"""Measurement helpers shared by the workloads.

Order statistics (medians, percentiles and the tail rule), scaling of
processor-bound op times to a reference machine speed, repeated set-ups,
peak memory, garbage-collector quiescing, and the result record every
workload returns.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Percentiles the tail rule may report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

clock = time.perf_counter


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile with linear interpolation (NumPy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return math.floor(n * (100.0 - q) / 100.0 + 1e-9)


def tail_percentile(
    n: int, candidates=TAIL_CANDIDATES, beyond: int = TAIL_BEYOND
) -> float | None:
    """The highest candidate percentile with ``beyond`` samples above it.

    ``None`` when even the lowest candidate has too few samples beyond it,
    in which case no tail may be reported.
    """
    for q in sorted(candidates, reverse=True):
        if samples_beyond(n, q) >= beyond:
            return q
    return None


#: Seconds one calibration probe takes at the reference machine speed.
#: Scaled times are "seconds at reference speed": what the interval would
#: have taken had the probe around it run in exactly this long.
CAL_REFERENCE_S = 4.0e-4


def probe() -> float:
    """Seconds a fixed calibration workload takes now (fastest of three).

    The workload mixes interpreter work (a loop with dict updates) with
    small NumPy calls and element access, like the layers it normalizes.
    It depends on nothing in ``repro``, so no change to the program can
    move it.
    """
    import numpy as np

    best = float("inf")
    for _ in range(3):
        vec = np.linspace(0.0, 1.0, 256)
        seen: dict[int, float] = {}
        acc = 0.0
        t0 = clock()
        for i in range(400):
            acc += float(vec[i & 255] * vec[(i * 7) & 255])
            vec[i & 255] = acc % 1.0
            seen[i & 63] = acc
            if i % 8 == 0:
                acc += float(np.dot(vec[:64], vec[64:128]))
        best = min(best, clock() - t0)
    return best


class Speed:
    """Scales wall-clock intervals to the reference machine speed.

    The machine this runs on may be shared: the same fixed loop can take
    25% longer from one minute to the next.  A probe before and after each
    interval measures the speed the interval ran at; the interval times
    ``CAL_REFERENCE_S`` over the mean of the two probes is its length at
    reference speed.  Every scaled interval ends with a probe that also
    serves as the next interval's starting probe; :meth:`restart` takes a
    fresh one after untimed work.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []
        #: (probe before, probe after) of every scaled interval.
        self.probes: list[tuple[float, float]] = []
        self.restart()

    def restart(self) -> None:
        self._last = probe()

    def scale(self, elapsed: float) -> float:
        now = probe()
        factor = CAL_REFERENCE_S / ((self._last + now) / 2.0)
        self.probes.append((self._last, now))
        self._last = now
        self.factors.append(factor)
        return elapsed * factor


def repeat_set_up(
    res: "Result", set_up, repeats: int, same, instr=None, discard=None
):
    """Run ``set_up()`` ``repeats`` times; return the last one's output.

    Each repeat's wall-clock seconds are recorded on ``res``.  With
    ``instr`` (an :class:`~spans.Instrumentation`) the last repeat is
    traced, under op ``"setup"``.  ``same(first, other)`` must hold between
    the first output and every later one, which makes a traced repeat also
    a passivity check; a mismatch fails the run.  ``discard(output)``
    releases an output no later step uses (it runs before the next repeat).
    """
    first = last = None
    for k in range(repeats):
        if last is not None and discard is not None:
            discard(last)
        traced = instr is not None and k == repeats - 1
        if traced:
            instr.recorder.op = "setup"
            instr.install()
        t0 = clock()
        try:
            last = set_up()
        finally:
            if traced:
                instr.remove()
        res.setup_wall_s.append(clock() - t0)
        if first is None:
            first = last
        elif not same(first, last):
            res.fail(f"set-up repeat {k + 1} differs from the first")
        thaw()
    return last


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quiesce() -> None:
    """Collect garbage, then freeze survivors out of later collections.

    Called before every timed loop so that a collection of set-up garbage
    does not land inside a timed operation.  :func:`thaw` undoes the
    freeze so that objects dropped between loops can still be collected.
    """
    gc.collect()
    gc.freeze()


def thaw() -> None:
    """Return frozen objects to the collector and collect them."""
    gc.unfreeze()
    gc.collect()


@dataclass
class Result:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    #: Human-readable reasons for every failed check.
    problems: list[str] = field(default_factory=list)
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Extra lines printed before the JSON summary.
    notes: list[str] = field(default_factory=list)
    #: Wall-clock seconds of each set-up this process ran.
    setup_wall_s: list[float] = field(default_factory=list)
    #: Each untraced timed op: seconds at reference speed, or wall-clock
    #: seconds where :attr:`scaled` is false.
    op_times: list[float] = field(default_factory=list)
    #: Wall-clock seconds of the same ops.
    raw_op_times: list[float] = field(default_factory=list)
    #: Whether :attr:`op_times` are scaled to reference speed.
    scaled: bool = True
    #: Per-layer metrics of a traced run, name -> value.
    per_layer: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0

    def fail(self, reason: str, count: int = 0) -> None:
        """Record a failed check (``count`` failed operations with it)."""
        self.failed += count
        self.problems.append(reason)

    def op_time(self, elapsed: float, speed: Speed) -> float:
        """Record one untraced op's wall-clock seconds; return them scaled."""
        return self.record_op(elapsed, speed.scale(elapsed))

    def record_op(self, raw: float, scaled: float) -> float:
        """Record one untraced op already scaled; return the scaled time."""
        self.raw_op_times.append(raw)
        self.op_times.append(scaled)
        return scaled

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def latency(self, samples_s) -> None:
        """Put ``p50_ms`` and ``p90_ms`` from samples in seconds."""
        ms = [s * 1000.0 for s in samples_s]
        self.put("p50_ms", median(ms), "ms")
        self.put("p90_ms", percentile(ms, 90.0), "ms")
        tail = tail_percentile(len(ms))
        self.notes.append(
            f"op latency over {len(ms)} samples: "
            f"p50 {median(ms):.3f} ms, p90 {percentile(ms, 90.0):.3f} ms "
            f"({samples_beyond(len(ms), 90.0)} beyond)"
            + (
                f", p{tail:g} {percentile(ms, tail):.3f} ms"
                if tail is not None and tail > 90.0
                else ""
            )
        )
