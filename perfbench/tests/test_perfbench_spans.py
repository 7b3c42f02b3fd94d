"""Span recording: self-time tiling, instrumentation, layer attribution."""

import types

import pytest

import layers
from spans import Instrumentation, Span, SpanRecorder, Target


class FakeClock:
    """Returns scripted instants, one per call."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_times_tile_the_root_span():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    recorder = SpanRecorder(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    root = recorder.begin("root")
    a = recorder.begin("a")
    b = recorder.begin("b")
    recorder.end(b)
    recorder.end(a)
    c = recorder.begin("c")
    recorder.end(c)
    recorder.end(root)

    own = recorder.self_times()
    assert own == [10 - 3 - 4, 3 - 1, 1, 4]
    assert sum(own) == recorder.spans[root].end - recorder.spans[root].start
    assert [s.parent for s in recorder.spans] == [None, root, a, root]


def test_overlapping_children_are_counted_once():
    recorder = SpanRecorder()
    recorder.spans = [
        Span("root", 0.0, 10.0),
        Span("x", 1.0, 5.0, parent=0),
        Span("y", 4.0, 6.0, parent=0),
    ]
    assert recorder.self_times()[0] == pytest.approx(10.0 - 5.0)


def test_spans_carry_the_current_op():
    recorder = SpanRecorder(clock=FakeClock(0, 1, 2, 3))
    recorder.op = 7
    recorder.end(recorder.begin("a"))
    recorder.op = "setup"
    recorder.end(recorder.begin("b"))
    assert [s.op for s in recorder.spans] == [7, "setup"]


def test_out_of_order_end_is_refused():
    recorder = SpanRecorder()
    outer = recorder.begin("outer")
    recorder.begin("inner")
    with pytest.raises(RuntimeError):
        recorder.end(outer)


class Thing:
    def method(self, x):
        return x + 1

    @staticmethod
    def helper(x):
        return 2 * x


def test_instrumentation_wraps_and_restores_exactly():
    module = types.SimpleNamespace(func=lambda x: x - 1)
    originals = (vars(Thing)["method"], vars(Thing)["helper"], module.func)
    recorder = SpanRecorder()
    instr = Instrumentation(
        recorder,
        [
            Target(Thing, "method", "thing.method", meta=lambda self, x: x),
            Target(Thing, "helper", lambda x: f"thing.helper{x}"),
            Target(module, "func", "module.func"),
        ],
    )
    with instr:
        assert Thing().method(1) == 2
        assert Thing.helper(3) == 6
        assert module.func(5) == 4
    assert [(s.name, s.meta) for s in recorder.spans] == [
        ("thing.method", 1),
        ("thing.helper3", None),
        ("module.func", None),
    ]
    assert (vars(Thing)["method"], vars(Thing)["helper"], module.func) == originals
    Thing().method(1)
    assert len(recorder.spans) == 3  # removed wrappers record nothing


def test_fold_charges_conversion_to_its_caller_only_in_timed_ops():
    recorder = SpanRecorder()
    recorder.spans = [
        Span("core.reformat", 0.0, 4.0, op=1),
        Span("core.prepare", 1.0, 3.0, parent=0, op=1),
        Span("core.signature", 1.5, 2.0, parent=1, op=1),
        Span("core.prepare", 5.0, 6.0, op="setup"),
    ]
    seconds, calls = layers.totals(recorder, [1])
    assert seconds["core.reformat"] == pytest.approx(2.0 + 1.5)
    assert seconds["core.signature"] == pytest.approx(0.5)
    assert "core.prepare" not in seconds
    assert calls["core.prepare"] == 1
    setup, _ = layers.totals(recorder, ["setup"], fold=False)
    assert setup["core.prepare"] == pytest.approx(1.0)


def test_every_layer_target_exists_in_the_program():
    for target in layers.targets():
        assert target.attr in vars(target.owner), (target.owner, target.attr)
