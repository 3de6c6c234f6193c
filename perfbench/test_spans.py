"""Span arithmetic of the benchmark's tracer.

    python3 -m pytest perfbench/test_spans.py
"""

from __future__ import annotations

import itertools
import threading

import pytest

from spans import Span, Tracer, self_times


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 3.0),    # overlaps b: the union 1..5 is subtracted once
        Span(2, "b", 0, 2.0, 5.0),
        Span(3, "c", 0, 8.0, 12.0),   # sticks out of root: only 8..10 counts
        Span(4, "a.child", 1, 1.5, 2.5),
        Span(5, "a.child.child", 4, 2.0, 2.25),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[4] == pytest.approx(1.0 - 0.25)
    assert own[5] == pytest.approx(0.25)
    assert own[3] == pytest.approx(4.0)


def test_recorded_nesting_gives_parents_and_self_times():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return "leaf"

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        return traced_leaf() + traced_leaf()

    outer = tracer.wrap("outer", tracer.wrap("middle", middle))
    assert outer() == "leafleaf"
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (out,), (mid,), leaves = by_name["outer"], by_name["middle"], by_name["leaf"]
    assert mid.parent == out.id and all(s.parent == mid.id for s in leaves)
    own = self_times(tracer.spans)
    # clock ticks: outer 0, middle 1, leaf 2..3, leaf 4..5, middle end 6, outer end 7
    assert (out.start, out.end, mid.start, mid.end) == (0.0, 7.0, 1.0, 6.0)
    assert own[out.id] == pytest.approx(2.0)
    assert own[mid.id] == pytest.approx(5.0 - 2.0)
    assert sum(own.values()) == pytest.approx(out.duration)


def test_pool_thread_spans_hang_under_the_waiting_main_thread_span():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    task = tracer.wrap("task", inner)
    worker = threading.Thread(target=task)
    outer = tracer.wrap("outer", lambda: (worker.start(), worker.join(timeout=10)))
    outer()
    assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["task"].parent == by_name["outer"].id
    assert by_name["inner"].parent == by_name["task"].id


def test_patch_is_undone_on_exit():
    class Owner:
        @staticmethod
        def fn():
            return 1

    original = Owner.fn
    with Tracer() as tracer:
        tracer.patch(Owner, "fn", "owner.fn")
        assert Owner.fn() == 1 and Owner.fn is not original
    assert Owner.fn is original
    assert [s.name for s in tracer.spans] == ["owner.fn"]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
