"""Frame codec and robustness tests for the service wire protocol."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netstack.flows import FiveTuple
from repro.service.owner import CaptureOwner
from repro.service.protocol import (
    COMMANDS,
    ERR_BAD_FRAME,
    EVENT_CODES,
    EVENT_KINDS,
    EVENT_ROW,
    MAX_FRAME_BYTES,
    MSG_ERROR,
    MSG_EVENT,
    MSG_REQUEST,
    MSG_RESPONSE,
    PROTOCOL_VERSION,
    STREAM_ROW,
    Frame,
    GATHER_MIN_BYTES,
    IOV_MAX,
    FrameReader,
    FrameReceiver,
    FrameRejection,
    FrameTooLarge,
    ProtocolError,
    decode_frame_body,
    encode_frame,
    event_parts,
    frame_parts,
    frame_size,
    split_events,
    split_streams,
    write_parts,
)
from repro.store.query import QueryResult, StreamPayload


def test_round_trip_all_message_types():
    for msg_type in (MSG_REQUEST, MSG_RESPONSE, MSG_EVENT, MSG_ERROR):
        wire = encode_frame(
            msg_type, 42, {"command": "ping", "x": [1, 2]}, b"\x00\xffpayload"
        )
        frame = decode_frame_body(wire[4:])
        assert frame.msg_type == msg_type
        assert frame.request_id == 42
        assert frame.header == {"command": "ping", "x": [1, 2]}
        assert frame.payload == b"\x00\xffpayload"
        assert frame.version == PROTOCOL_VERSION


def test_reader_reassembles_across_arbitrary_splits():
    frames = [
        encode_frame(MSG_REQUEST, i, {"command": "ping", "i": i}, b"x" * i)
        for i in range(1, 20)
    ]
    wire = b"".join(frames)
    rng = random.Random(7)
    for _ in range(20):
        reader = FrameReader()
        out = []
        pos = 0
        while pos < len(wire):
            step = rng.randint(1, 37)
            out.extend(reader.feed(wire[pos:pos + step]))
            pos += step
        assert [f.request_id for f in out] == list(range(1, 20))
        assert all(isinstance(f, Frame) for f in out)
        assert reader.pending_bytes == 0
    # Every fixed split size yields the same frames, payloads included.
    frames.append(b"".join(event_parts(3, 5, [
        ("data", 1, [1, 2, 3, 4, 6], 0, 9, 0, b"abc"),
        ("closed", 1, [1, 2, 3, 4, 6], 1, 9, 0, b""),
    ])))
    wire = b"".join(frames)
    expected = [decode_frame_body(frame[4:]) for frame in frames]
    for step in range(1, len(wire) + 1):
        reader = FrameReader()
        out = []
        for pos in range(0, len(wire), step):
            out.extend(reader.feed(wire[pos:pos + step]))
        assert out == expected, step
        assert all(type(f.payload) is bytes for f in out)
        assert reader.pending_bytes == 0


def test_header_encoding_matches_json_dumps():
    header = {"z": [1, "é"], "a": {"b": None, "a": 1.5}, "command": "ping"}
    wire = encode_frame(MSG_REQUEST, 1, header)
    assert wire[14:] == json.dumps(header, separators=(",", ":"), sort_keys=True).encode()


def test_event_frame_splits_into_per_event_frames():
    flow = (167772161, 1234, 167772162, 80, 6)
    events = [("created", 2, flow, 0, 7, 0, b""), ("data", 2, flow, 0, 7, 40, b"payload")]
    (frame,) = FrameReader().feed(b"".join(event_parts(4, 10, events)))
    assert frame.msg_type == MSG_EVENT and frame.payload[2 * EVENT_ROW.size:] == b"payload"
    assert frame.header == {"sub": 4, "seq": 10, "events": 2}
    split = split_events(frame)
    assert [f.header for f in split] == [
        {"event": "created", "capture": 2, "flow": list(flow), "direction": 0,
         "stream_id": 7, "offset": 0, "len": 0, "sub": 4, "seq": 10},
        {"event": "data", "capture": 2, "flow": list(flow), "direction": 0,
         "stream_id": 7, "offset": 40, "len": 7, "sub": 4, "seq": 11},
    ]
    assert [f.payload for f in split] == [b"", b"payload"]


def test_zero_length_frame_rejected_not_fatal():
    reader = FrameReader()
    good = encode_frame(MSG_REQUEST, 1, {"command": "ping"})
    out = reader.feed(b"\x00\x00\x00\x00" + good)
    assert isinstance(out[0], FrameRejection)
    assert out[0].reason == ERR_BAD_FRAME
    assert isinstance(out[1], Frame)
    assert out[1].request_id == 1


def test_oversized_frame_drained_without_buffering():
    reader = FrameReader(max_frame_bytes=64)
    declared = 1000
    wire = declared.to_bytes(4, "big") + b"z" * declared
    good = encode_frame(MSG_REQUEST, 9, {"command": "ping"})
    out = []
    for i in range(0, len(wire), 100):
        out.extend(reader.feed(wire[i:i + 100]))
        # The oversized body must never accumulate in the buffer.
        assert reader.pending_bytes <= 100
    out.extend(reader.feed(good))
    rejections = [o for o in out if isinstance(o, FrameRejection)]
    frames = [o for o in out if isinstance(o, Frame)]
    assert len(rejections) == 1 and rejections[0].skipped_bytes > 0
    assert "exceeds max" in rejections[0].detail
    assert [f.request_id for f in frames] == [9]


def test_encode_rejects_oversized_payload():
    with pytest.raises(FrameTooLarge):
        encode_frame(MSG_REQUEST, 1, {}, b"x" * (MAX_FRAME_BYTES + 1))


def test_payload_parts_encode_like_their_join():
    parts = [b"ab", memoryview(b"\x00cde")[1:], b"", bytearray(b"\xff" * 300), b"z"]
    header = {"command": "query", "streams": [1, 2]}
    for chosen in (parts, parts[:1], [], [b"only"]):
        assert encode_frame(MSG_RESPONSE, 7, header, chosen) == encode_frame(
            MSG_RESPONSE, 7, header, b"".join(chosen)
        )


def test_payload_parts_refused_at_the_limit_on_their_total():
    # The largest payload a frame with an empty header holds (the
    # length prefix does not count against the limit).
    fits = MAX_FRAME_BYTES - len(encode_frame(MSG_RESPONSE, 1, {})) + 4
    data = memoryview(b"x" * (fits + 1))
    half = fits // 2
    assert encode_frame(MSG_RESPONSE, 1, {}, [data[:half], data[half:fits]]) == encode_frame(
        MSG_RESPONSE, 1, {}, bytes(data[:fits])
    )
    for payload in ([data[:half], data[half:]], bytes(data)):
        with pytest.raises(FrameTooLarge):
            encode_frame(MSG_RESPONSE, 1, {}, payload)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b[:6],                          # truncated fixed header
        lambda b: bytes([99]) + b[1:],            # bad version
        lambda b: b[:1] + bytes([77]) + b[2:],    # unknown msg type
        lambda b: b[:13] + b"{broken" + b[13:],   # corrupt JSON header
    ],
)
def test_malformed_bodies_become_rejections(mutate):
    body = encode_frame(MSG_REQUEST, 5, {"command": "ping"})[4:]
    bad = mutate(body)
    with pytest.raises(ProtocolError) as raised:
        decode_frame_body(bad)
    # Through the reader the same bytes are a rejection, not a raise.
    reader = FrameReader()
    wire = len(bad).to_bytes(4, "big") + bad
    out = reader.feed(wire)
    assert len(out) == 1 and isinstance(out[0], FrameRejection)
    assert out[0].detail == raised.value.message
    assert out[0].skipped_bytes == len(bad)


def test_garbage_resynchronizes_on_later_valid_frames():
    rng = random.Random(11)
    garbage = bytes(rng.randrange(256) for _ in range(64))
    # Force the garbage to parse as an oversized declared length so the
    # reader drains and resynchronizes deterministically.
    garbage = b"\xff\xff\xff\xff" + garbage
    reader = FrameReader(max_frame_bytes=1 << 16)
    out = list(reader.feed(garbage))
    assert all(isinstance(o, FrameRejection) for o in out)


def test_header_must_be_json_object():
    body = encode_frame(MSG_REQUEST, 1, {})[4:]
    # Splice a JSON array header in place of the object.
    import struct

    fixed = struct.Struct("!BBII")
    raw = b"[1,2]"
    spliced = fixed.pack(PROTOCOL_VERSION, MSG_REQUEST, 1, len(raw)) + raw
    with pytest.raises(ProtocolError):
        decode_frame_body(spliced)
    assert decode_frame_body(body).header == {}


def test_command_codes_are_unique_and_stable():
    # A request header names its command: the name is the command's code.
    assert len(COMMANDS) == len(set(COMMANDS))


# ----------------------------------------------------------------------
# Rows: query replies and event frames carry one fixed row per item
# ----------------------------------------------------------------------
_U64 = st.integers(0, (1 << 64) - 1)
_FLOWS = st.tuples(
    st.integers(0, 0xFFFFFFFF), st.sampled_from([0, 1, 80, 65535]),
    st.integers(0, 0xFFFFFFFF), st.integers(0, 65535), st.sampled_from([0, 6, 17, 255]),
)
_EVENTS = st.lists(st.tuples(
    st.sampled_from(EVENT_KINDS), _U64, _FLOWS, st.integers(0, 1), _U64, _U64,
    st.binary(max_size=40),
), max_size=12)
_STREAMS = st.lists(st.builds(
    StreamPayload,
    client_tuple=_FLOWS.map(lambda flow: FiveTuple(*flow)),
    direction=st.integers(0, 1),
    data=st.binary(max_size=40),
    first_ts=st.floats(allow_nan=False),
    last_ts=st.floats(allow_nan=False),
    base_offset=_U64,
    gap_bytes=_U64,
), max_size=6)


class _Store:
    """A store whose queries answer with the given results, in turn."""

    def __init__(self, results):
        self.results = list(results)

    def flush(self):
        pass

    def query(self, five_tuple, start_ts=None, end_ts=None):
        return QueryResult(self.results.pop(0))


def _reply(streams):
    """The wire reply the daemon's owner gives to a query answered with
    ``streams``, read back by a frame reader."""
    owner = CaptureOwner(_Store([streams]), 1 << 20, 1, post=lambda item: None)
    header, payload = owner.query({"flow": None})
    (frame,) = FrameReader().feed(encode_frame(MSG_RESPONSE, 1, header, payload))
    return frame


def _as_dicts(streams):
    return [
        {"flow": list(s.client_tuple), "direction": s.direction, "len": len(s.data),
         "first_ts": s.first_ts, "last_ts": s.last_ts, "base_offset": s.base_offset,
         "gap_bytes": s.gap_bytes, "data": s.data}
        for s in streams
    ]


@settings(max_examples=150, deadline=None)
@given(events=_EVENTS, sub=_U64, seq=st.integers(0, 1 << 40))
def test_event_rows_round_trip(events, sub, seq):
    (frame,) = FrameReader().feed(b"".join(event_parts(sub, seq, events)))
    assert frame.header == {"sub": sub, "seq": seq, "events": len(events)}
    split = split_events(frame)
    assert [f.header for f in split] == [
        {"event": kind, "capture": capture, "flow": list(flow), "direction": direction,
         "stream_id": stream_id, "offset": offset, "len": len(payload),
         "sub": sub, "seq": seq + index}
        for index, (kind, capture, flow, direction, stream_id, offset, payload)
        in enumerate(events)
    ]
    assert [f.payload for f in split] == [event[6] for event in events]
    assert all(type(f.payload) is bytes and f.msg_type == MSG_EVENT for f in split)


@settings(max_examples=150, deadline=None)
@given(results=st.lists(_STREAMS, min_size=1, max_size=4))
def test_stream_rows_round_trip(results):
    for streams in results:
        frame = _reply(streams)
        assert frame.header == {
            "streams": len(streams), "total_bytes": sum(len(s.data) for s in streams)
        }
        assert split_streams([frame.header["streams"]], frame.payload) == [_as_dicts(streams)]


def test_rows_carry_extreme_values_and_an_empty_result_carries_none():
    flow = FiveTuple(0xFFFFFFFF, 65535, 0, 0, 255)
    streams = [StreamPayload(flow, 0, b"abc", 1.5, 2.5, (1 << 64) - 1, (1 << 64) - 1),
               StreamPayload(flow, 1, b"", 0.0, 0.0, 0, 0),
               StreamPayload(flow.reversed(), 0, b"z" * 9, 3.0, 4.0, 7, 0)]
    frame = _reply(streams)
    assert frame.header == {"streams": 3, "total_bytes": 12}
    assert split_streams([3], frame.payload) == [_as_dicts(streams)]
    empty = _reply([])
    assert empty.header == {"streams": 0, "total_bytes": 0} and empty.payload == b""
    assert split_streams([0], b"") == [[]]
    (frame,) = FrameReader().feed(b"".join(event_parts(1, 0, [])))
    assert frame.payload == b"" and split_events(frame) == []


def _header_len(wire):
    return int.from_bytes(wire[10:14], "big")


def test_a_reply_header_does_not_grow_with_its_item_count():
    flow = (1, 2, 3, 4, 6)
    few, many = ([("data", 1, flow, 0, 1, i, b"x") for i in range(n)] for n in (10, 99))
    assert _header_len(b"".join(event_parts(1, 0, few))) == _header_len(
        b"".join(event_parts(1, 0, many))
    )
    streams = [StreamPayload(FiveTuple(*flow), 0, b"", 0.0, 1.0, 0) for _ in range(99)]
    owner = CaptureOwner(_Store([streams[:10], streams]), 1 << 20, 1, lambda item: None)
    lengths = [
        _header_len(encode_frame(MSG_RESPONSE, 1, *owner.query({}))) for _ in range(2)
    ]
    assert lengths[0] == lengths[1]


@pytest.mark.parametrize("cut", [-1, 1, EVENT_ROW.size])
def test_event_rows_that_do_not_fill_the_payload_are_refused(cut):
    wire = b"".join(event_parts(2, 0, [("data", 1, (1, 2, 3, 4, 6), 0, 1, 0, b"abcd")] * 3))
    frame = decode_frame_body(wire[4:])
    frame.payload = frame.payload[:-cut] if cut > 0 else frame.payload + b"!"
    with pytest.raises(ProtocolError):
        split_events(frame)
    frame = decode_frame_body(wire[4:])
    frame.header["events"] = 4
    with pytest.raises(ProtocolError):
        split_events(frame)


def test_stream_rows_that_do_not_fill_the_payload_are_refused():
    flow = FiveTuple(1, 2, 3, 4, 6)
    frame = _reply([StreamPayload(flow, 0, b"abc", 0.0, 1.0, 0)] * 2)
    for counts, payload in (
        ([2], frame.payload[:-1]), ([2], frame.payload + b"!"), ([1], frame.payload),
        ([3], frame.payload), ([-1], frame.payload), ([True], frame.payload),
        ([1, 1], frame.payload[STREAM_ROW.size:]),
    ):
        with pytest.raises(ProtocolError):
            split_streams(counts, payload)
    assert len(split_streams([1, 1], frame.payload)) == 2


# ----------------------------------------------------------------------
# Frames as parts on the way out, received in place on the way in
# ----------------------------------------------------------------------
def test_a_frame_is_its_head_then_its_payload_buffers():
    data = [b"r" * 3000, memoryview(b"stream one" * 400), b"", bytearray(b"two" * 1000)]
    parts = frame_parts(MSG_RESPONSE, 3, {"streams": 2}, data)
    assert len(parts) == 5 and all(a is b for a, b in zip(parts[1:], data))
    assert b"".join(parts) == encode_frame(MSG_RESPONSE, 3, {"streams": 2}, data)
    assert frame_size(parts) == len(b"".join(parts))
    assert frame_parts(MSG_RESPONSE, 3, {}) == [encode_frame(MSG_RESPONSE, 3, {})]
    # Buffers averaging under GATHER_MIN_BYTES are cheaper to copy into one.
    small = [b"x" * (GATHER_MIN_BYTES - 1), b"y", b""]
    head, joined = frame_parts(MSG_RESPONSE, 3, {}, small)
    assert joined == b"".join(small)
    events = [("data", 1, (1, 2, 3, 4, 6), 0, 1, 0, b"abc")] * 2
    rows = [EVENT_ROW.pack(EVENT_CODES["data"], 1, 1, 2, 3, 4, 6, 0, 1, 0, 3)] * 2
    header = {"sub": 1, "seq": 0, "events": 2}
    assert b"".join(event_parts(1, 0, events)) == encode_frame(
        MSG_EVENT, 0, header, rows + [b"abc", b"abc"]
    )


class ChunkSocket:
    """Takes at most ``chunk`` bytes per write and gives at most
    ``chunk`` bytes per read, from ``inbound``."""

    def __init__(self, chunk, inbound=b""):
        self.chunk = chunk
        self.inbound = memoryview(inbound)
        self.sent = bytearray()
        self.offered = []

    def send(self, data):
        return self.sendmsg([data])

    def sendmsg(self, buffers):
        buffers = list(buffers)
        self.offered.append(len(buffers))
        taken = b"".join(buffers)[: self.chunk]
        self.sent += taken
        return len(taken)

    def recv(self, size):
        data = bytes(self.inbound[: min(size, self.chunk)])
        self.inbound = self.inbound[len(data):]
        return data

    def recv_into(self, buffer):
        data = self.recv(len(buffer))
        buffer[: len(data)] = data
        return len(data)


def test_write_parts_takes_at_most_iov_max_buffers_a_call():
    parts = [bytes([i % 251]) * (i % 5) for i in range(IOV_MAX + 500)]
    wire = b"".join(parts)
    for chunk in (1, 7, 4096, len(wire)):
        sock = ChunkSocket(chunk)
        pending = list(parts)
        while pending:
            write_parts(sock, pending)
        assert bytes(sock.sent) == wire, chunk
        assert max(sock.offered) <= IOV_MAX


def _received(wire, chunk, max_frame_bytes=MAX_FRAME_BYTES):
    receiver = FrameReceiver(ChunkSocket(chunk, wire), max_frame_bytes)
    frames = []
    while True:
        got = receiver.receive()
        if got is None:
            return frames
        frames.extend(got)


def test_the_client_reader_decodes_a_reply_fed_one_byte_a_read():
    streams = [b"s" * 5000, b"", b"t" * 70_000]
    wire = b"".join([
        encode_frame(MSG_RESPONSE, 1, {"command": "ping"}),
        encode_frame(MSG_RESPONSE, 2, {"streams": 3}, streams),
        b"".join(event_parts(4, 9, [("data", 1, (1, 2, 3, 4, 6), 0, 1, 0, b"abc")])),
    ])
    expected = FrameReader().feed(wire)
    for chunk in (1, 3, 4, 5, 4096, 1 << 16, len(wire)):
        frames = _received(wire, chunk)
        assert frames == expected, chunk
        for frame in frames:
            assert type(frame.payload) is bytes or frame.payload.readonly
    # Received into its own buffer, a payload is a view of it; a frame
    # that came whole in one read owns its payload and pins nothing else.
    assert all(type(frame.payload) is memoryview for frame in _received(wire, 1))
    assert _received(wire, 1)[1].payload == b"".join(streams)
    # (An event frame's payload stays a view: split_events copies it out.)
    assert [type(frame.payload) for frame in _received(wire, 1 << 16)] == [
        bytes, memoryview, memoryview
    ]


@pytest.mark.parametrize("wire", [
    b"\x00\x00\x00\x01\x00",                   # shorter than the fixed header
    b"\x00\x00\x00\x00",                       # zero length
    (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x" * 10,
])
def test_the_client_reader_refuses_what_is_not_a_frame(wire):
    receiver = FrameReceiver(ChunkSocket(1 << 16, wire))
    with pytest.raises(ProtocolError):
        receiver.receive()
    assert receiver._body is None  # an oversized length allocated nothing
