"""Seeded inputs, and count metrics that must repeat exactly.

The repeat tests run each workload twice for a short time with tracing on
(tens of seconds in all).
"""

import numpy as np
import pytest

import layers
import wl_grayscott
import wl_kernel
import wl_serve


def _same_kernel_inputs(a, b) -> bool:
    return all(
        np.array_equal(ma.val, mb.val) and np.array_equal(xa, xb)
        for (_, ma, xa, _, _), (_, mb, xb, _, _) in zip(a, b)
    )


def test_kernel_inputs_follow_the_seed():
    assert _same_kernel_inputs(wl_kernel.inputs(3), wl_kernel.inputs(3))
    assert not _same_kernel_inputs(wl_kernel.inputs(3), wl_kernel.inputs(4))


def test_kernel_structures_do_not_follow_the_seed():
    for (_, a, *_), (_, b, *_) in zip(wl_kernel.inputs(3), wl_kernel.inputs(4)):
        assert np.array_equal(a.rowptr, b.rowptr)
        assert np.array_equal(a.colidx, b.colidx)


def _serve_fingerprint(inputs):
    return (
        inputs.offsets.tobytes(),
        inputs.kinds.tobytes(),
        inputs.ops.tobytes(),
        inputs.picks.tobytes(),
        tuple(m.val.tobytes() for m in inputs.pool),
        tuple(x.tobytes() for bank in inputs.xs for x in bank),
        tuple((i, m.val.tobytes()) for i, m in sorted(inputs.fresh.items())),
        tuple(inputs.burst),
    )


def test_serve_inputs_follow_the_seed():
    a = wl_serve.make_inputs(5, 400)
    assert _serve_fingerprint(a) == _serve_fingerprint(wl_serve.make_inputs(5, 400))
    assert _serve_fingerprint(a) != _serve_fingerprint(wl_serve.make_inputs(6, 400))
    assert (a.kinds == wl_serve.FRESH).sum() == 20
    assert (a.kinds == wl_serve.SOLVE).sum() == 20


def test_serve_burst_does_not_depend_on_run_length():
    assert wl_serve.make_inputs(5, 400).burst == wl_serve.make_inputs(5, 900).burst


def test_grayscott_initial_state_follows_the_seed():
    assert np.array_equal(wl_grayscott.initial_state(1), wl_grayscott.initial_state(1))
    assert not np.array_equal(
        wl_grayscott.initial_state(1), wl_grayscott.initial_state(2)
    )


@pytest.mark.parametrize(
    "module, seconds",
    [(wl_kernel, 0.5), (wl_serve, 0.4), (wl_grayscott, 0.5)],
)
def test_count_metrics_repeat_exactly(module, seconds):
    first = module.run(11, seconds, trace=True, setup_repeats=2)
    again = module.run(11, seconds, trace=True, setup_repeats=2)
    for result in (first, again):
        assert result.correct, result.problems
    for name in layers.COUNT_METRICS:
        assert first.per_layer.get(name, 0.0) == again.per_layer.get(name, 0.0), name
