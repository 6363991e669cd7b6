"""Span self-time arithmetic.  Run: python3 -m pytest perfbench/test_trace.py"""

from perfbench.trace import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = Tracer("t", clock=clock)
    with tr.span("op"):              # 0 .. 10
        clock.now = 1.0
        with tr.span("read"):        # 1 .. 3
            clock.now = 3.0
        with tr.span("kernel"):      # 3 .. 9
            clock.now = 4.0
            with tr.span("cusum"):   # 4 .. 8
                clock.now = 8.0
            clock.now = 9.0
        clock.now = 10.0
    with tr.span("read"):            # 10 .. 12
        clock.now = 12.0
    assert tr.self_times() == {"op": 2.0, "read": 4.0, "kernel": 2.0,
                               "cusum": 4.0}
    assert tr.durations("read") == [2.0, 2.0]
    assert [s["parent"] for s in tr.spans] == [None, 0, 0, 2, None]
    assert {s["run"] for s in tr.spans} == {"t"}


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer("t", clock=clock)
    try:
        with tr.span("op"):
            clock.now = 5.0
            raise ValueError
    except ValueError:
        pass
    with tr.span("next"):
        clock.now = 6.0
    assert tr.self_times() == {"op": 5.0, "next": 1.0}
    assert tr.spans[1]["parent"] is None


def test_disabled_tracer_records_nothing():
    tr = Tracer("t", enabled=False)
    with tr.span("op"):
        tr.count("points", 3)
    assert tr.spans == [] and dict(tr.counts) == {} and tr.self_times() == {}
