"""Event frames: one frame per run of a subscription's events.

Timing-free where it can be: the frame counts below are bounds that
hold however the loop and owner threads interleave (each frame that
ends short of ``GATHER_BYTES`` ends where a drain's events ran out, and
a capture posts its events in bursts of ``EVENT_BURST``), and every
count is checked against the daemon's own ledger.
"""

from __future__ import annotations

import math
import threading
import time

import pytest

from repro.service import DaemonConfig, FrameReader, ScapClient, encode_frame
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    MSG_ERROR,
    MSG_EVENT,
    MSG_REQUEST,
    MSG_RESPONSE,
    PROTOCOL_MINOR,
    split_events,
)
from repro.service.session import ClientQuotas, ClientSession

from .test_daemon import _start_daemon
from .test_event_loop import _raw_call, _raw_connect
from .test_session import CountingSocket

RATE = 1e9
KINDS = ["created", "data", "closed"]


def _ledger(client, name):
    return next(entry for entry in client.stats()["clients"] if entry["name"] == name)


def test_a_capture_arrives_in_few_event_frames(tmp_path):
    """One connection subscribes and submits: the capture's N events
    arrive, before the response, in at most N/8 frames."""
    daemon, path = _start_daemon(tmp_path)
    raw, reader = _raw_connect(path), FrameReader()
    _raw_call(raw, reader, 1, "hello", name="both", protocol_minor=PROTOCOL_MINOR)
    _raw_call(raw, reader, 2, "subscribe", events=KINDS)
    # A cutoff keeps the capture's events inside one socket buffer.
    _raw_call(raw, reader, 3, "set_cutoff", cutoff=512)
    raw.sendall(encode_frame(
        MSG_REQUEST, 4,
        {"command": "submit_trace", "kind": "campus", "flows": 60, "seed": 7, "rate_bps": RATE},
    ))
    frames = []
    while not any(frame.request_id == 4 for frame in frames):
        frames.extend(reader.feed(raw.recv(1 << 20)))
    assert frames[-1].msg_type == MSG_RESPONSE
    assert all(frame.msg_type == MSG_EVENT for frame in frames[:-1])
    events = [event for frame in frames[:-1] for event in split_events(frame)]
    count = len(events)
    assert count > 2 * 64
    assert len(frames) - 1 <= math.ceil(count / 8)
    assert [event.header["seq"] for event in events] == list(range(count))
    ledger = _raw_call(raw, reader, 5, "stats").header["clients"][0]["ledger"]
    assert ledger["enqueued"] == ledger["delivered"] == count
    assert ledger["dropped"] == 0
    raw.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()


@pytest.mark.parametrize("k", [1, 5, 64, 333, 4096])
def test_a_socket_taking_k_bytes_per_send_gets_every_event_once(k, monkeypatch):
    monkeypatch.setattr("repro.service.session.GATHER_BYTES", 700)
    session = ClientSession(1, CountingSocket(k), ClientQuotas())
    sub = session.add_subscription(("data",))
    flow = (1, 2, 3, 4, 6)
    count = 40
    for i in range(count):
        session.enqueue_event(sub, ("data", 1, flow, 0, 1, i, bytes([i]) * (i % 7 * 30)))
    reader = FrameReader()
    events = []
    while session.queue_depth() or session.has_unsent:
        session.pump()
        for frame in reader.feed(bytes(session.sock.sent)):
            events.extend(split_events(frame))
        session.sock.sent.clear()
        # The events of a frame still leaving are queued, not delivered.
        queued = session.describe()["queued"]
        assert session.ledger.delivered == len(events)
        assert session.ledger.balanced(pending=queued)
        assert queued == count - len(events)
    assert [event.header["offset"] for event in events] == list(range(count))
    assert [event.header["seq"] for event in events] == list(range(count))
    assert [event.payload for event in events] == [
        bytes([i]) * (i % 7 * 30) for i in range(count)
    ]
    assert reader.pending_bytes == 0
    assert (session.ledger.delivered, session.ledger.dropped) == (count, 0)


@pytest.mark.parametrize("declared", [{}, {"protocol_minor": 1}])
def test_subscribe_without_minor_2_is_refused_and_the_connection_kept(tmp_path, declared):
    daemon, path = _start_daemon(tmp_path)
    raw, reader = _raw_connect(path), FrameReader()
    _raw_call(raw, reader, 1, "hello", name="old", **declared)
    raw.sendall(encode_frame(MSG_REQUEST, 2, {"command": "subscribe", "events": KINDS}))
    (refusal,) = reader.feed(raw.recv(65536))
    assert refusal.msg_type == MSG_ERROR and refusal.request_id == 2
    assert refusal.header["code"] == ERR_BAD_REQUEST
    assert "protocol_minor" in refusal.header["message"]
    assert _raw_call(raw, reader, 3, "ping").header["pong"] is True
    stats = _raw_call(raw, reader, 4, "stats").header
    assert stats["clients"][0]["subscriptions"] == 0
    raw.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()


def test_subscribing_mid_capture_holds_every_event_from_seq_0(tmp_path):
    """The events right behind the subscribe response reach the new
    stream: none is lost between the response and the registration."""
    daemon, path = _start_daemon(tmp_path)
    watcher = ScapClient(unix_path=path, name="watcher")
    watched = watcher.subscribe(events=KINDS)
    submitter = ScapClient(unix_path=path, name="submitter")
    stop = threading.Event()

    def capture():
        seed = 0
        while not stop.is_set():
            submitter.submit_campus(flows=20, seed=seed, rate_bps=RATE)
            seed += 1

    capturing = threading.Thread(target=capture)
    capturing.start()
    late = ScapClient(unix_path=path, name="late")
    call = late.call

    def descheduled_call(command, *args, **kwargs):
        result = call(command, *args, **kwargs)
        if command == "subscribe":
            time.sleep(0.3)  # the caller runs late; events keep arriving
        return result

    late.call = descheduled_call
    try:
        assert watched.next_event(timeout=10.0) is not None  # events are flowing
        stream = late.subscribe(events=KINDS)
        first = stream.next_event(timeout=10.0)
    finally:
        stop.set()
        capturing.join()
    assert first is not None and first.header["seq"] == 0
    seqs = [first.header["seq"]]
    while (event := stream.next_event(timeout=1.0)) is not None:
        seqs.append(event.header["seq"])
    assert seqs == list(range(len(seqs)))
    ledger = _ledger(submitter, "late")["ledger"]
    assert ledger["delivered"] == len(seqs) and ledger["dropped"] == 0
    for client in (watcher, submitter, late):
        client.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()


@pytest.mark.parametrize("declared", [{"protocol_minor": 2}, {"protocol_minor": True}])
@pytest.mark.parametrize("command, header", [
    ("query", {"flow": None}),
    ("subscribe", {"events": KINDS}),
])
def test_row_commands_below_minor_3_are_refused_and_the_connection_kept(
    tmp_path, declared, command, header
):
    daemon, path = _start_daemon(tmp_path, DaemonConfig(store_dir=str(tmp_path / "store")))
    raw, reader = _raw_connect(path), FrameReader()
    _raw_call(raw, reader, 1, "hello", name="old", **declared)
    raw.sendall(encode_frame(MSG_REQUEST, 2, dict(header, command=command)))
    (refusal,) = reader.feed(raw.recv(65536))
    assert refusal.msg_type == MSG_ERROR and refusal.request_id == 2
    assert refusal.header["code"] == ERR_BAD_REQUEST
    assert f"protocol_minor >= {PROTOCOL_MINOR}" in refusal.header["message"]
    assert _raw_call(raw, reader, 3, "ping").header["pong"] is True
    raw.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()


def test_a_bool_protocol_minor_declares_nothing(tmp_path):
    daemon, path = _start_daemon(tmp_path)
    raw, reader = _raw_connect(path), FrameReader()
    client_id = _raw_call(
        raw, reader, 1, "hello", name="bool", protocol_minor=True
    ).header["client_id"]
    session = daemon._sessions[client_id]
    assert daemon._on_loop(lambda: session.protocol_minor) == 0
    _raw_call(raw, reader, 2, "hello", name="int", protocol_minor=PROTOCOL_MINOR)
    assert daemon._on_loop(lambda: session.protocol_minor) == PROTOCOL_MINOR
    raw.close()
    daemon.shutdown()
