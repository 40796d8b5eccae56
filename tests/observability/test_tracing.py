"""Trace ring buffer: emit, overwrite, filter, format."""

import pytest

from repro.observability import (
    ALL_HOOKS,
    HOOK_FDIR_EVICT,
    HOOK_PPL_DROP,
    TimelineReconstructor,
    TraceBuffer,
)


def _stream_events(buffer, five_tuple):
    """A connection's retained events: its timeline's, or none."""
    timeline = TimelineReconstructor(buffer).for_stream(five_tuple)
    return timeline.events if timeline is not None else []


def test_emit_and_read_back():
    buffer = TraceBuffer(capacity=8, enabled=True)
    buffer.emit(0.5, HOOK_PPL_DROP, core=2, priority=1)
    buffer.emit(0.7, HOOK_FDIR_EVICT, timeout_at=1.0)
    events = buffer.events()
    assert [event.hook for event in events] == [HOOK_PPL_DROP, HOOK_FDIR_EVICT]
    assert events[0].time == 0.5
    assert events[0].fields == {"core": 2, "priority": 1}


def test_disabled_emit_is_noop():
    buffer = TraceBuffer(capacity=8, enabled=False)
    buffer.emit(0.0, HOOK_PPL_DROP)
    assert len(buffer) == 0 and buffer.emitted == 0


def test_ring_overwrites_oldest():
    buffer = TraceBuffer(capacity=4, enabled=True)
    for i in range(6):
        buffer.emit(float(i), HOOK_PPL_DROP, seq=i)
    assert len(buffer) == 4
    assert buffer.emitted == 6
    assert buffer.overwritten == 2
    assert [event.fields["seq"] for event in buffer.events()] == [2, 3, 4, 5]


def test_filter_by_hook():
    buffer = TraceBuffer(capacity=8, enabled=True)
    buffer.emit(0.0, HOOK_PPL_DROP)
    buffer.emit(0.1, HOOK_FDIR_EVICT)
    buffer.emit(0.2, HOOK_PPL_DROP)
    assert len(buffer.events(HOOK_PPL_DROP)) == 2
    assert len(buffer.events(HOOK_FDIR_EVICT)) == 1


def test_clear_keeps_counts():
    buffer = TraceBuffer(capacity=4, enabled=True)
    buffer.emit(0.0, HOOK_PPL_DROP)
    buffer.clear()
    assert len(buffer) == 0 and buffer.emitted == 1


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        TraceBuffer(capacity=0)


def test_format_is_one_line_with_fields():
    buffer = TraceBuffer(capacity=4, enabled=True)
    buffer.emit(1.25, HOOK_PPL_DROP, core=3, reason="watermark")
    line = buffer.events()[0].format()
    assert "\n" not in line
    assert "ppl_drop" in line and "core=3" in line and "reason=watermark" in line


def test_all_hooks_are_unique_strings():
    assert len(set(ALL_HOOKS)) == len(ALL_HOOKS)
    assert all(isinstance(hook, str) for hook in ALL_HOOKS)


def test_by_hook_selects_and_validates():
    buffer = TraceBuffer(capacity=8, enabled=True)
    buffer.emit(0.0, HOOK_PPL_DROP)
    buffer.emit(0.1, HOOK_FDIR_EVICT)
    buffer.emit(0.2, HOOK_PPL_DROP)
    both = buffer.by_hook(HOOK_PPL_DROP, HOOK_FDIR_EVICT)
    assert [event.hook for event in both] == [
        HOOK_PPL_DROP, HOOK_FDIR_EVICT, HOOK_PPL_DROP,
    ]
    assert len(buffer.by_hook(HOOK_FDIR_EVICT)) == 1
    with pytest.raises(ValueError, match="no_such_hook"):
        buffer.by_hook("no_such_hook")


def test_by_stream_matches_both_directions():
    client = "10.0.0.1:40000 > 10.0.0.2:80/6"
    server = "10.0.0.2:80 > 10.0.0.1:40000/6"
    other = "10.9.9.9:1 > 10.8.8.8:2/6"
    buffer = TraceBuffer(capacity=8, enabled=True)
    buffer.emit(0.0, HOOK_PPL_DROP, five_tuple=client)
    buffer.emit(0.1, HOOK_PPL_DROP, five_tuple=server)
    buffer.emit(0.2, HOOK_PPL_DROP, five_tuple=other)
    buffer.emit(0.3, HOOK_PPL_DROP)  # no five_tuple field at all
    for query in (client, server):
        events = _stream_events(buffer, query)
        assert len(events) == 2
        assert {event.fields["five_tuple"] for event in events} == {client, server}


def test_by_stream_accepts_five_tuple_objects():
    from repro.netstack.flows import FiveTuple

    tuple_obj = FiveTuple(0x0A000001, 40000, 0x0A000002, 80, 6)
    buffer = TraceBuffer(capacity=8, enabled=True)
    buffer.emit(0.0, HOOK_PPL_DROP, five_tuple=str(tuple_obj))
    buffer.emit(0.1, HOOK_PPL_DROP, five_tuple=str(tuple_obj.reversed()))
    assert len(_stream_events(buffer, tuple_obj)) == 2
    assert len(_stream_events(buffer, tuple_obj.reversed())) == 2


def test_overwrite_accounting_stays_consistent():
    buffer = TraceBuffer(capacity=4, enabled=True)
    for i in range(11):
        buffer.emit(float(i), HOOK_PPL_DROP, seq=i)
        # Invariant at every step: emitted = retained + overwritten.
        assert buffer.emitted == len(buffer) + buffer.overwritten
    assert buffer.emitted == 11
    assert len(buffer) == 4
    assert buffer.overwritten == 7
    # The retained window is the most recent `capacity` events.
    assert [event.fields["seq"] for event in buffer.events()] == [7, 8, 9, 10]
    # clear() empties the window but keeps the lifetime counters.
    buffer.clear()
    assert len(buffer) == 0
    assert buffer.emitted == 11 and buffer.overwritten == 7


def test_filters_see_only_the_retained_window():
    client = "10.0.0.1:40000 > 10.0.0.2:80/6"
    buffer = TraceBuffer(capacity=2, enabled=True)
    buffer.emit(0.0, HOOK_PPL_DROP, five_tuple=client, seq=0)
    buffer.emit(0.1, HOOK_FDIR_EVICT, seq=1)
    buffer.emit(0.2, HOOK_FDIR_EVICT, seq=2)  # overwrites the ppl_drop
    assert buffer.by_hook(HOOK_PPL_DROP) == []
    assert _stream_events(buffer, client) == []
    assert [event.fields["seq"] for event in buffer.by_hook(HOOK_FDIR_EVICT)] == [1, 2]
