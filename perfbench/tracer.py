"""In-memory span tracer that wraps functions at the names their callers bind.

Two kinds of record:

* a *span* (name, start, end, parent) for each call of a coarse function;
* a *leaf tally* (calls, seconds) for each hot function, such as a
  right-hand side called millions of times.  A tally is kept on the
  innermost open span instead of as a span of its own, which keeps memory
  flat and the cost per call to two clock reads.

A span's self time is its duration minus its child spans and leaf tallies.
A leaf wrapper's own work (the call, the clock reads, the tally update)
falls partly outside the tallied interval and would count as the caller's
self time, and partly inside it and would count as the leaf's; ``calibrate``
measures both per call, and ``self_times`` and ``leaf_seconds`` take them
out.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    parent: int                  # index of the enclosing span, -1 for a root
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    leaves: dict = field(default_factory=dict)   # name -> [calls, seconds]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.orphan_leaves: dict = {}   # tallies made while no span was open
        self._stack: list = []
        self._leaves = self.orphan_leaves
        # seconds per leaf call that the wrapper adds outside and inside its
        # tally; zero until ``calibrate``
        self.leaf_outside = 0.0
        self.leaf_inside = 0.0

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Measure ``leaf_outside`` and ``leaf_inside`` on a wrapped no-op
        called like a right-hand side, against the bare loop and the bare
        call; medians of ``repeats`` loops of ``calls`` calls."""
        probe = Tracer(self.clock)
        clock = self.clock

        def noop(t, y):
            return None

        wrapped = probe.wrap_leaf("noop", noop)
        outside, inside = [], []
        for _ in range(repeats):
            probe.orphan_leaves.clear()
            t0 = clock()
            for _ in range(calls):
                pass
            empty = clock() - t0
            t0 = clock()
            for _ in range(calls):
                noop(0.0, None)
            bare = clock() - t0
            t0 = clock()
            for _ in range(calls):
                wrapped(0.0, None)
            total = clock() - t0
            tallied = probe.orphan_leaves["noop"][1]
            outside.append((total - tallied - empty) / calls)
            inside.append((tallied - (bare - empty)) / calls)
        self.leaf_outside = max(0.0, statistics.median(outside))
        self.leaf_inside = max(0.0, statistics.median(inside))

    def leaf_seconds(self, tally) -> float:
        """A leaf tally's seconds without the wrapper's clock reads."""
        calls, seconds = tally
        return seconds - calls * self.leaf_inside

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        span = Span(name, self.clock(), self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        self._leaves = span.leaves
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = self.clock()
            self._stack.pop()
            self._leaves = self.spans[self._stack[-1]].leaves if self._stack else self.orphan_leaves

    def wrap_span(self, name: str, fn: Callable,
                  annotate: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.  ``annotate(span, args,
        kwargs, result, exc)`` may add attributes, such as work counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with tracer.span(name) as span:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if annotate:
                        annotate(span, args, kwargs, None, exc)
                    raise
                if annotate:
                    annotate(span, args, kwargs, result, None)
                return result

        return wrapped

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        """``fn`` adding its calls and time to the innermost open span."""
        tracer, clock = self, self.clock

        def wrapped(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                tally = tracer._leaves.get(name)
                if tally is None:
                    tracer._leaves[name] = [1, elapsed]
                else:
                    tally[0] += 1
                    tally[1] += elapsed

        return wrapped

    def wrap_factory(self, leaf_name: str, fn: Callable) -> Callable:
        """``fn`` whose returned callable is tallied as leaf ``leaf_name``."""
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.wrap_leaf(leaf_name, fn(*args, **kwargs))

        return wrapped

    def subtree(self, index: int) -> list:
        """``index`` and every span opened inside it."""
        # spans are appended in opening order, so descendants follow their root
        inside = {index}
        for i in range(index + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
        return sorted(inside)

    def self_times(self) -> list:
        """Each span's duration minus its child spans, its leaf tallies and
        the leaf wrappers' work outside them."""
        busy = [sum(seconds + calls * self.leaf_outside for calls, seconds in s.leaves.values())
                for s in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                busy[span.parent] += span.duration
        return [span.duration - b for span, b in zip(self.spans, busy)]

    def export(self) -> list:
        return [
            {"id": i, "name": s.name, "parent": s.parent, "start": s.start,
             "end": s.end, "self": own, "attrs": s.attrs, "leaves": s.leaves}
            for i, (s, own) in enumerate(zip(self.spans, self.self_times()))
        ]


def install(modules, replacements: dict) -> Callable[[], None]:
    """Rebind, in every module of ``modules``, each name bound to a key of
    ``replacements`` (an original function) to its value (the wrapper).

    Patching only the defining module would miss callers that imported the
    name into their own namespace.  Returns a function that undoes it.
    """
    by_id = {id(original): (original, wrapper) for original, wrapper in replacements.items()}
    undo = []
    for module in modules:
        namespace = vars(module)
        for name, value in list(namespace.items()):
            entry = by_id.get(id(value))
            if entry is not None and entry[0] is value:
                namespace[name] = entry[1]
                undo.append((namespace, name, value))

    def restore() -> None:
        for namespace, name, value in reversed(undo):
            namespace[name] = value

    return restore
