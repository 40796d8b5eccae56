"""The client refuses what it cannot read: a daemon below minor 3, and
a reply whose rows do not describe its payload."""

from __future__ import annotations

import gc
import socket
import sys
import threading
import time
import warnings

import pytest

from repro.observability import Observability
from repro.service import ScapClient, encode_frame
from repro.service import client as client_module
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    MSG_EVENT,
    MSG_RESPONSE,
    PROTOCOL_MINOR,
    STREAM_ROW,
    FrameReader,
    ProtocolError,
    event_parts,
    write_parts,
)

ROW = STREAM_ROW.pack(1, 2, 3, 4, 6, 0, 3, 0.5, 1.5, 0, 0)


class FakeDaemon:
    """Answers each command with a scripted ``(header, payload)`` or raw
    wire bytes, or with the next of a scripted list of them (None: hang
    up); a ``subscribe`` reply is followed by the scripted event frame."""

    def __init__(self, path, replies, events=b""):
        self.replies = {"hello": ({"client_id": 1, "protocol_minor": PROTOCOL_MINOR}, b"")}
        self.replies.update(replies)
        self.events = events
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(path)
        self.listener.listen(1)
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.listener.accept()
        reader = FrameReader()
        try:
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                for frame in reader.feed(data):
                    reply = self.replies[frame.command]
                    reply = reply.pop(0) if isinstance(reply, list) else reply
                    if reply is None:
                        return
                    if isinstance(reply, bytes):
                        conn.sendall(reply)
                        continue
                    header, payload = reply
                    conn.sendall(encode_frame(MSG_RESPONSE, frame.request_id, header, payload))
                    if frame.command == "subscribe":
                        conn.sendall(self.events)
        except OSError:
            pass
        finally:
            conn.close()

    def close(self):
        self.listener.close()
        self.thread.join(timeout=5.0)


@pytest.mark.parametrize("minor", [None, 2, True, "3"])
def test_a_daemon_below_minor_3_is_refused_at_hello(tmp_path, minor):
    path = str(tmp_path / "fake.sock")
    hello = {"client_id": 1}
    if minor is not None:
        hello["protocol_minor"] = minor
    server = FakeDaemon(path, {"hello": (hello, b"")})
    with pytest.raises(ProtocolError, match="protocol minor"):
        ScapClient(unix_path=path, timeout=2.0)
    server.close()


@pytest.mark.parametrize("payload", [ROW + b"abc", ROW + b"ab", ROW + b"abcd", ROW[:-1]])
def test_a_query_reply_is_sliced_only_when_its_rows_fill_the_payload(tmp_path, payload):
    path = str(tmp_path / "fake.sock")
    one = ({"streams": 1, "total_bytes": 3}, payload)
    # ``query``, then the two pipelined queries of ``bulk_query``.
    server = FakeDaemon(path, {"query": [one, one, ({"streams": 0, "total_bytes": 0}, b"")]})
    client = ScapClient(unix_path=path, timeout=2.0)
    if payload == ROW + b"abc":
        expected = {"flow": [1, 2, 3, 4, 6], "direction": 0, "len": 3, "first_ts": 0.5,
                    "last_ts": 1.5, "base_offset": 0, "gap_bytes": 0, "data": b"abc"}
        assert client.query() == [expected]
        assert client.bulk_query([{}, {}]) == [[expected], []]
    else:
        with pytest.raises(ProtocolError):
            client.query()
        with pytest.raises(ProtocolError):
            client.bulk_query([{}, {}])
    client.close()
    server.close()


def test_a_batch_cut_by_a_closed_connection_leaves_no_request_pending(tmp_path):
    path = str(tmp_path / "fake.sock")
    empty = ({"streams": 0, "total_bytes": 0}, b"")
    server = FakeDaemon(path, {"query": [empty, None]})
    client = ScapClient(
        unix_path=path, timeout=2.0, observability=Observability(enabled=True)
    )
    with pytest.raises(ConnectionError):
        client.bulk_query([{}, {}, {}, {}])
    assert client._pending == {}
    # hello, then the four queries: every client span was ended.
    assert [span.status for span in client.local_spans()] == ["ok", "ok", "error", "error", "error"]
    client.close()
    server.close()


def test_a_send_that_fails_mid_batch_keeps_the_answers_before_it(tmp_path, monkeypatch):
    path = str(tmp_path / "fake.sock")
    empty = ({"streams": 0, "total_bytes": 0}, b"")
    server = FakeDaemon(path, {"query": [empty, None]})
    client = ScapClient(
        unix_path=path, timeout=2.0, observability=Observability(enabled=True)
    )
    writes = []

    def late_write(sock, parts):
        writes.append(len(parts))
        if len(writes) == 3:  # the third query leaves after the hang-up
            server.thread.join(timeout=5.0)
        return write_parts(sock, parts)

    monkeypatch.setattr(client_module, "write_parts", late_write)
    with pytest.raises(ConnectionError):
        client.bulk_query([{}, {}, {}, {}])
    assert client._pending == {}
    # The first query was answered before the failed send: it ends ok.
    assert [span.status for span in client.local_spans()] == ["ok", "ok", "error", "error", "error"]
    client.close()
    server.close()


def test_a_mis_sized_event_frame_closes_the_connection(tmp_path):
    path = str(tmp_path / "fake.sock")
    good = b"".join(event_parts(1, 0, [("data", 1, (1, 2, 3, 4, 6), 0, 1, 0, b"abcd")]))
    # The same frame, its payload one byte short of what its row declares.
    short = (len(good) - 5).to_bytes(4, "big") + good[4:-1]
    server = FakeDaemon(
        path, {"subscribe": ({"subscription_id": 1, "events": ["data"]}, b"")},
        events=good + short,
    )
    client = ScapClient(unix_path=path, timeout=2.0)
    stream = client.subscribe(events=["data"])
    first = stream.next_event(timeout=5.0)
    assert first.msg_type == MSG_EVENT and first.payload == b"abcd"
    assert stream.next_event(timeout=5.0) is None  # out of step: nothing more is read
    with pytest.raises(ConnectionError):
        client.ping()
    client.close()
    server.close()


def test_a_failed_connect_or_hello_leaves_no_socket_open(tmp_path, monkeypatch):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for attempt in range(3):
            with pytest.raises(OSError):
                ScapClient(unix_path=str(tmp_path / "nobody.sock"))
            path = str(tmp_path / f"hangup{attempt}.sock")
            server = FakeDaemon(path, {"hello": None})
            with pytest.raises(ConnectionError):
                ScapClient(unix_path=path, timeout=2.0)
            server.close()
        gc.collect()
    assert [hook.exc_value for hook in unraisable] == []


@pytest.mark.parametrize("reply", [
    b"\x00\x00\x00\x01\x00",  # a 5-byte frame no body can be decoded from
    b"\x00\x00\x00\x00",  # zero length
    (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x" * 64,  # oversized
])
def test_a_frame_the_client_cannot_read_ends_the_connection(tmp_path, reply):
    path = str(tmp_path / "fake.sock")
    server = FakeDaemon(path, {"ping": reply})
    client = ScapClient(unix_path=path, timeout=3.0)
    started = time.monotonic()
    with pytest.raises(ConnectionError):
        client.ping()
    assert time.monotonic() - started < 1.0  # at once, not after the timeout
    assert client._pending == {}
    client.close()
    server.close()
