"""One connection key: ``TraceBuffer.by_stream`` and the flight recorder agree."""

from repro.apps import StreamDeliveryApp, attach_app
from repro.core import ScapSocket
from repro.observability import Observability, TimelineReconstructor, timeline
from repro.observability.tracing import canonical_tuple_str
from repro.traffic import campus_mix

GBIT = 1e9


def test_helper_lives_in_tracing_and_is_re_exported():
    import repro.observability as package

    assert timeline.canonical_tuple_str is canonical_tuple_str
    assert package.canonical_tuple_str is canonical_tuple_str


def test_by_stream_matches_timeline_for_every_connection():
    trace = campus_mix(flow_count=30, seed=11)
    obs = Observability(enabled=True, trace_capacity=65536)
    socket = ScapSocket(trace, rate_bps=4.0 * GBIT, memory_size=1 << 22, observability=obs)
    socket.set_cutoff(4096)
    attach_app(socket, StreamDeliveryApp())
    socket.start_capture()
    buffer = obs.trace
    assert buffer.overwritten == 0
    reconstructor = TimelineReconstructor(buffer)
    assert len(reconstructor) > 10
    compared = 0
    for flow in trace.flows:
        five_tuple = flow.five_tuple
        story = reconstructor.for_stream(five_tuple)
        expected = story.events if story is not None else []
        for query in (five_tuple, five_tuple.reversed(), str(five_tuple.reversed())):
            assert buffer.by_stream(query) == expected, query
        compared += bool(expected)
    assert compared == len(reconstructor)
