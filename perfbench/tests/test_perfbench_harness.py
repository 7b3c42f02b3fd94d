"""Order statistics, the tail rule, and the BENCHMARK.json contract."""

import json
from pathlib import Path

import numpy as np
import pytest

import harness
import layers
import run

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


@pytest.mark.parametrize(
    "n, tail",
    [(10, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, tail):
    assert harness.tail_percentile(n) == tail
    if tail is not None:
        assert harness.samples_beyond(n, tail) >= harness.TAIL_BEYOND


def test_samples_beyond_counts_the_sorted_tail():
    values = np.arange(100.0)
    p90 = harness.percentile(values, 90.0)
    assert harness.samples_beyond(100, 90.0) == int((values > p90).sum())


def test_percentile_matches_numpy():
    values = np.random.default_rng(0).exponential(size=57)
    for q in (0, 10, 50, 90, 99, 100):
        assert harness.percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_speed_scaling_uses_the_probes_around_the_interval(monkeypatch):
    probes = iter([2 * harness.CAL_REFERENCE_S, 2 * harness.CAL_REFERENCE_S,
                   harness.CAL_REFERENCE_S])
    monkeypatch.setattr(harness, "probe", lambda: next(probes))
    speed = harness.Speed()
    assert speed.scale(1.0) == pytest.approx(0.5)  # machine ran at half speed
    assert speed.scale(1.0) == pytest.approx(1.0 / 1.5)


def test_cold_set_up_is_normalized_by_the_references_around_it(monkeypatch):
    # Processor seconds in run order: reference, child, reference, child,
    # reference.
    seconds = iter([0.45, 2.0, 0.9, 3.0, 0.9])
    monkeypatch.setattr(run, "processor_seconds", lambda cmd: next(seconds))
    samples, _ = run.cold_set_ups("serve_open", 1, 1.0, repeats=2)
    ref = run.REFERENCE_START_UP_S
    assert samples == pytest.approx([2.0 * ref / 0.675, 3.0 * ref / 0.9])


def test_repeat_set_up_keeps_the_last_and_discards_the_rest():
    res = harness.Result()
    made, dropped = [], []

    def set_up():
        made.append(len(made))
        return made[-1]

    out = harness.repeat_set_up(
        res, set_up, 3, lambda a, b: True, discard=dropped.append
    )
    assert out == 2
    assert dropped == [0, 1]
    assert len(res.setup_wall_s) == 3 and not res.problems


def test_repeat_set_up_fails_when_a_repeat_differs():
    res = harness.Result()
    harness.repeat_set_up(res, iter([1, 2]).__next__, 2, lambda a, b: a == b)
    assert res.problems and not res.correct


def test_benchmark_json_names_what_the_runner_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END
    )
    assert {
        m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    } == layers.PER_LAYER
    for name in layers.COUNT_METRICS:
        assert name in layers.PER_LAYER
