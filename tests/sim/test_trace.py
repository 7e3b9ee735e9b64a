"""Tests for the event trace recorder."""

from repro.sim.trace import NullTraceRecorder, TraceRecorder


def test_records_events_with_payload():
    recorder = TraceRecorder()
    recorder.record(5, "bus", "bus.grant", master=2, duration=28)
    assert len(recorder) == 1
    event = recorder.events[0]
    assert event.cycle == 5
    assert event.source == "bus"
    assert event.kind == "bus.grant"
    assert event.payload == {"master": 2, "duration": 28}


def test_kind_filter_drops_other_kinds():
    recorder = TraceRecorder(kinds=["bus.grant"])
    recorder.record(1, "bus", "bus.request")
    recorder.record(2, "bus", "bus.grant")
    assert len(recorder) == 1
    assert recorder.events[0].kind == "bus.grant"


def test_capacity_keeps_most_recent():
    recorder = TraceRecorder(capacity=3)
    for cycle in range(10):
        recorder.record(cycle, "x", "k")
    assert [e.cycle for e in recorder.events] == [7, 8, 9]


def test_unbounded_keeps_everything():
    recorder = TraceRecorder()
    for cycle in range(100):
        recorder.record(cycle, "bus", "bus.grant")
    assert len(recorder) == 100
    assert recorder.dropped == 0


def test_ring_keeps_most_recent_and_counts_drops():
    recorder = TraceRecorder(capacity=10)
    for cycle in range(25):
        recorder.record(cycle, "bus", "bus.grant")
    assert len(recorder) == 10
    assert recorder.dropped == 15
    assert [event.cycle for event in recorder.events] == list(range(15, 25))


def test_disabled_recorder_drops_without_counting():
    recorder = TraceRecorder(capacity=5)
    recorder.enabled = False
    recorder.record(1, "bus", "bus.grant")
    assert len(recorder) == 0
    assert recorder.dropped == 0


def test_clear_resets_ring_and_drop_count():
    recorder = TraceRecorder(capacity=2)
    for cycle in range(5):
        recorder.record(cycle, "bus", "bus.grant")
    recorder.clear()
    assert len(recorder) == 0
    assert recorder.dropped == 0


def test_filter_by_kind_source_and_predicate():
    recorder = TraceRecorder()
    recorder.record(1, "bus", "bus.grant", master=0)
    recorder.record(2, "bus", "bus.grant", master=1)
    recorder.record(3, "cache", "cache.miss")
    assert len(recorder.filter(kind="bus.grant")) == 2
    assert len(recorder.filter(source="cache")) == 1
    only_master1 = recorder.filter(predicate=lambda e: e.payload.get("master") == 1)
    assert [e.cycle for e in only_master1] == [2]


def test_disabled_recorder_drops_events():
    recorder = TraceRecorder()
    recorder.enabled = False
    recorder.record(1, "x", "k")
    assert len(recorder) == 0


def test_clear_removes_events():
    recorder = TraceRecorder()
    recorder.record(1, "x", "k")
    recorder.clear()
    assert len(recorder) == 0


def test_null_recorder_never_records():
    recorder = NullTraceRecorder()
    recorder.record(1, "x", "k")
    assert len(recorder) == 0
