"""In-memory span recorder and self-time arithmetic.

A span records name, start, end and the id of the span that was open on the
same thread when it started.  A span opened on another thread with nothing
open there takes the main thread's innermost open span as parent: the code
that handed the work to a pool and waits for it.  Spans stay in memory until
the caller reads ``Tracer.spans``; nothing is written while a run is measured.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, id, name, parent, start, end, attrs=None):
        self.id = id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps callables so each call records a span; undoes its patches on exit."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[Span]] = {}
        self._undo = []

    def wrap(self, name, fn, attrs=None):
        """Return fn recording one span per call; attrs(args, kwargs) adds fields."""

        def traced(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            # a slice, unlike an index, cannot fail while the main thread pops
            opener = (stack or self._stacks.get(threading.main_thread().ident, []))[-1:]
            span = Span(next(self._ids), name, opener[0].id if opener else None, 0.0, 0.0,
                        attrs(args, kwargs) if attrs else None)
            stack.append(span)
            span.start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
                self.spans.append(span)

        return traced

    def replace(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr, name, attrs=None) -> None:
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), attrs))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    Children may overlap one another (spans from worker threads) or stick out
    of the parent; only the union of their intervals, clipped to the parent,
    is subtracted.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = span.duration - covered
    return out
