"""In-memory span recording for the traced run.

A :class:`Span` is one timed call into a layer: its name, start and end on
the recorder's clock, the index of the span that was open on the same
thread when it began (its parent), the op it belongs to, and optional
metadata.  A span's *self time* is its duration minus the part of that
interval its child spans cover, so the self times of one thread's spans
tile its root spans exactly.

:class:`Instrumentation` wraps public entry points of the program with
spans.  The wrappers live only in this process and only while installed:
:meth:`Instrumentation.remove` puts the original attributes back, so the
untraced operations of a traced run execute exactly the program's code.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    op: Any = None
    meta: Any = None


class SpanRecorder:
    """Collects spans from any thread; parents are tracked per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        #: The op new spans are attributed to; set by the workload loop.
        self.op: Any = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, meta: Any = None) -> int:
        stack = self._stack()
        span = Span(
            name,
            self.clock(),
            parent=stack[-1] if stack else None,
            op=self.op,
            meta=meta,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        stack.pop()

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with :attr:`spans`."""
        children: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        return [
            (span.end - span.start) - _covered(span.start, span.end, kids)
            for span, kids in zip(self.spans, children)
        ]


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``owner.attr`` recorded as ``name``.

    ``name`` may be a callable of the call's arguments, for entry points
    whose layer depends on an argument.  ``meta`` likewise maps the call's
    arguments to the span's metadata.
    """

    owner: Any
    attr: str
    name: str | Callable[..., str]
    meta: Callable[..., Any] | None = None


class Instrumentation:
    """Installs span wrappers around :class:`Target` entry points."""

    def __init__(self, recorder: SpanRecorder, targets: list[Target]):
        self.recorder = recorder
        self.targets = targets
        self._originals: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("instrumentation already installed")
        for target in self.targets:
            original = vars(target.owner)[target.attr]
            self._originals.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrapped(original, target))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrapped(self, original, target: Target):
        if isinstance(original, staticmethod):
            return staticmethod(self._wrap_function(original.__func__, target))
        return self._wrap_function(original, target)

    def _wrap_function(self, fn, target: Target):
        recorder = self.recorder
        name, meta = target.name, target.meta

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = recorder.begin(
                name if isinstance(name, str) else name(*args, **kwargs),
                meta(*args, **kwargs) if meta is not None else None,
            )
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.end(index)

        return wrapper
