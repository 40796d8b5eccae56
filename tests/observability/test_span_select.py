"""``SpanTreeReconstructor.select``: the one answer to a span query."""

from repro.observability import SpanRecord, SpanTreeReconstructor


def _span(trace_id, span_id, duration, parent=None):
    return SpanRecord(
        trace_id=trace_id, span_id=span_id, parent_id=parent,
        name="op", kind="internal", start=0.0, duration=duration,
    )


RECORDS = [
    _span("a", "1", 0.010),
    _span("b", "1", 0.050),
    _span("a", "2", 0.004, parent="1"),
    _span("c", "1", 0.020),
    _span("b", "2", 0.001, parent="1"),
]


def _ids(records):
    return [(r.trace_id, r.span_id) for r in records]


def test_no_selector_returns_everything_in_retention_order():
    wanted, records = SpanTreeReconstructor(RECORDS).select()
    assert wanted == ["a", "b", "c"]
    assert _ids(records) == _ids(RECORDS)


def test_trace_id_selects_one_trace():
    wanted, records = SpanTreeReconstructor(RECORDS).select(trace_id="a")
    assert wanted == ["a"]
    assert _ids(records) == [("a", "1"), ("a", "2")]


def test_slowest_ranks_traces_but_keeps_record_order():
    wanted, records = SpanTreeReconstructor(RECORDS).select(slowest=2)
    assert wanted == ["b", "c"]
    assert _ids(records) == [("b", "1"), ("c", "1"), ("b", "2")]


def test_trace_id_wins_over_slowest():
    wanted, _ = SpanTreeReconstructor(RECORDS).select(trace_id="c", slowest=1)
    assert wanted == ["c"]


def test_limit_keeps_the_last_records():
    _, records = SpanTreeReconstructor(RECORDS).select(limit=2)
    assert _ids(records) == [("c", "1"), ("b", "2")]
    _, records = SpanTreeReconstructor(RECORDS).select(slowest=1, limit=1)
    assert _ids(records) == [("b", "2")]


def test_wire_values_are_coerced():
    # The daemon passes header values straight from JSON.
    wanted, records = SpanTreeReconstructor(RECORDS).select(slowest="1", limit="1")
    assert wanted == ["b"] and _ids(records) == [("b", "2")]


def test_unknown_trace_selects_nothing():
    wanted, records = SpanTreeReconstructor(RECORDS).select(trace_id="zzz")
    assert wanted == ["zzz"] and records == []
