"""Integration tests: daemon + clients over a Unix socket.

The centerpiece is the end-to-end parity test required by the issue: a
remote client submits a trace, installs a cutoff and a priority,
receives subscribed stream events in order, bulk-queries the store,
and the retrieved bytes match a library-mode run **bit for bit**.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time

import pytest

from repro.apps import StreamRecorder
from repro.core import ScapSocket
from repro.filters import BPFFilter
from repro.netstack import FiveTuple, read_pcap
from repro.service import (
    ClientQuotas,
    DaemonConfig,
    FrameReader,
    RemoteCallError,
    ScapClient,
    ScapDaemon,
    encode_frame,
    trace_to_pcap_bytes,
)
from repro.service.protocol import (
    ERR_BAD_FRAME,
    ERR_QUOTA,
    ERR_UNAUTHORIZED,
    MSG_ERROR,
    MSG_REQUEST,
    MSG_RESPONSE,
    RECV_BYTES,
    Frame,
)
from repro.store import StreamStore
from repro.traffic import Trace, campus_mix

RATE = 1e9
CUTOFF = 50_000
PRIORITY_EXPR = "tcp and port 80"
PRIORITY = 3


def _start_daemon(tmp_path, config=None, **kwargs):
    daemon = ScapDaemon(config, **kwargs)
    path = str(tmp_path / "scapd.sock")
    daemon.add_unix_listener(path)
    daemon.start()
    return daemon, path


@pytest.fixture()
def pcap_bytes():
    # Round-trip through pcap once so library mode and daemon mode
    # consume byte-identical input (pcap stores usec timestamps).
    trace = campus_mix(flow_count=25, seed=5, max_flow_bytes=60_000)
    return trace_to_pcap_bytes(trace)


def _library_run(tmp_path, pcap_bytes):
    """The same capture through the plain library API."""
    pcap_path = tmp_path / "lib.pcap"
    pcap_path.write_bytes(pcap_bytes)
    trace = Trace(read_pcap(str(pcap_path)), name="lib")
    store = StreamStore(str(tmp_path / "libstore"), cores=1)
    scap = ScapSocket(trace, rate_bps=RATE, memory_size=64 << 20, core_count=8)
    scap.set_cutoff(CUTOFF)
    rule = BPFFilter(PRIORITY_EXPR)

    def on_creation(stream):
        if rule.matches_five_tuple(stream.five_tuple):
            scap.set_stream_priority(stream, PRIORITY)

    scap.dispatch_creation(on_creation)
    scap.set_store(StreamRecorder(store))
    scap.start_capture(name="lib")
    store.flush()
    result = store.query()
    by_key = {
        (tuple(s.client_tuple), s.direction): bytes(s.data) for s in result.streams
    }
    store.close()
    return by_key


def test_end_to_end_parity_with_library_mode(tmp_path, pcap_bytes):
    daemon, path = _start_daemon(
        tmp_path, DaemonConfig(store_dir=str(tmp_path / "store"))
    )
    client = ScapClient(unix_path=path, name="e2e")
    sub = client.subscribe(events=["created", "data", "closed"])
    client.set_cutoff(CUTOFF)
    client.set_priority(PRIORITY_EXPR, PRIORITY)
    summary = client.submit_trace(pcap_bytes, rate_bps=RATE, name="e2e")
    assert summary["streams_created"] > 0

    # Subscribed events arrive in order: per-subscription sequence
    # numbers are contiguous from 0 and per-stream data offsets are
    # non-decreasing.
    events = []
    while True:
        frame = sub.next_event(timeout=2.0)
        if frame is None:
            break
        events.append(frame)
        if len(events) >= summary["streams_created"] * 2:
            last_closed = sum(
                1 for e in events if e.header["event"] == "closed"
            ) == summary["streams_created"]
            if last_closed:
                break
    seqs = [e.header["seq"] for e in events]
    assert seqs == list(range(len(events)))
    offsets = {}
    for event in events:
        if event.header["event"] != "data":
            continue
        key = (tuple(event.header["flow"]), event.header["direction"])
        assert event.header["offset"] >= offsets.get(key, 0)
        offsets[key] = event.header["offset"] + event.header["len"]
    kinds = {e.header["event"] for e in events}
    assert {"created", "data", "closed"} <= kinds

    # Bulk-query the store remotely and compare to library mode.
    remote = {}
    for streams in client.bulk_query([{"flow": None}, {"flow": None, "start": 0.0}]):
        collected = {}
        for stream in streams:
            collected[(tuple(stream["flow"]), stream["direction"])] = stream["data"]
        remote = collected
    library = _library_run(tmp_path, pcap_bytes)
    assert set(remote) == set(library)
    for key in library:
        assert remote[key] == library[key], f"byte mismatch for {key}"

    client.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()


def test_concurrent_clients_capture_subscribe_query(tmp_path):
    daemon, path = _start_daemon(
        tmp_path, DaemonConfig(store_dir=str(tmp_path / "store"))
    )
    clients = [ScapClient(unix_path=path, name=f"c{i}") for i in range(4)]
    subs = [c.subscribe(events=["closed"]) for c in clients]
    errors = []
    summaries = []

    def work(index, client):
        try:
            summary = client.submit_campus(
                flows=8, seed=index, rate_bps=RATE, name=f"run-{index}"
            )
            assert summary["streams_created"] > 0
            summaries.append(summary)
            assert client.stats()["server"]["captures"] >= 1
            assert client.query() is not None
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append((index, repr(exc)))

    threads = [
        threading.Thread(target=work, args=(i, c)) for i, c in enumerate(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors
    # Every client's subscription saw every capture's closed events.
    # Termination fires once per direction, so two per created stream.
    expected = 2 * sum(s["streams_created"] for s in summaries)
    for sub in subs:
        seen = 0
        while sub.next_event(timeout=1.0) is not None:
            seen += 1
        assert seen == expected
    for c in clients:
        c.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()
    assert len(daemon.final_ledgers) == 4


def test_auth_token_required(tmp_path):
    daemon, path = _start_daemon(
        tmp_path, DaemonConfig(auth_tokens=("sesame",))
    )
    with pytest.raises(RemoteCallError) as err:
        ScapClient(unix_path=path, token="wrong")
    assert err.value.code == "unauthorized"

    # Unauthenticated requests other than hello are refused.
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(path)
    raw.sendall(encode_frame(MSG_REQUEST, 7, {"command": "ping"}))
    reader = FrameReader()
    reply = None
    while reply is None:
        for item in reader.feed(raw.recv(65536)):
            reply = item
    assert isinstance(reply, Frame)
    assert reply.msg_type == MSG_ERROR
    assert reply.header["code"] == ERR_UNAUTHORIZED
    raw.close()

    good = ScapClient(unix_path=path, token="sesame")
    assert good.ping()["pong"] is True
    good.close()
    daemon.shutdown()


def test_subscription_quota_denied(tmp_path):
    daemon, path = _start_daemon(
        tmp_path,
        DaemonConfig(quotas=ClientQuotas(max_subscriptions=2)),
    )
    client = ScapClient(unix_path=path)
    client.subscribe()
    client.subscribe()
    with pytest.raises(RemoteCallError) as err:
        client.subscribe()
    assert err.value.code == ERR_QUOTA
    client.close()
    daemon.shutdown()


def test_unknown_command_and_bad_request(tmp_path):
    daemon, path = _start_daemon(tmp_path)
    client = ScapClient(unix_path=path)
    with pytest.raises(RemoteCallError) as err:
        client.call("frobnicate")
    assert err.value.code == "unknown_command"
    with pytest.raises(RemoteCallError) as err:
        client.call("install_filter")  # missing expression
    assert err.value.code == "bad_request"
    with pytest.raises(RemoteCallError) as err:
        client.call("query")  # no store configured
    assert err.value.code == "bad_request"
    client.close()
    daemon.shutdown()


def test_invalid_cutoff_rejected_and_config_kept(tmp_path, pcap_bytes):
    daemon, path = _start_daemon(tmp_path)
    client = ScapClient(unix_path=path)
    client.set_cutoff(CUTOFF)
    with pytest.raises(RemoteCallError) as err:
        client.set_cutoff(-5)
    assert err.value.code == "bad_request"
    # The rejected value never reached the config, so captures still run.
    summary = client.submit_trace(pcap_bytes, rate_bps=RATE, name="after")
    assert summary["streams_created"] > 0
    client.close()
    daemon.shutdown()


def test_malformed_frames_get_typed_errors_not_disconnects(tmp_path):
    daemon, path = _start_daemon(tmp_path)
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(path)
    reader = FrameReader()
    replies = []

    def pump(expected):
        while len(replies) < expected:
            data = raw.recv(65536)
            assert data, "daemon dropped the connection"
            replies.extend(reader.feed(data))

    # Zero-length frame, then a valid ping on the same connection.
    raw.sendall(b"\x00\x00\x00\x00")
    raw.sendall(encode_frame(MSG_REQUEST, 1, {"command": "ping"}))
    pump(2)
    assert replies[0].msg_type == MSG_ERROR
    assert replies[0].header["code"] == ERR_BAD_FRAME
    assert replies[1].msg_type == MSG_RESPONSE and replies[1].request_id == 1

    # A frame body full of garbage (valid length prefix), then ping.
    raw.sendall(len(b"garbage!").to_bytes(4, "big") + b"garbage!")
    raw.sendall(encode_frame(MSG_REQUEST, 2, {"command": "ping"}))
    pump(4)
    assert replies[2].msg_type == MSG_ERROR
    assert replies[3].msg_type == MSG_RESPONSE and replies[3].request_id == 2

    # A valid frame delivered byte-by-byte still parses.
    for byte in encode_frame(MSG_REQUEST, 3, {"command": "ping"}):
        raw.sendall(bytes([byte]))
    pump(5)
    assert replies[4].msg_type == MSG_RESPONSE and replies[4].request_id == 3
    raw.close()

    # The daemon is still healthy for other clients.
    client = ScapClient(unix_path=path)
    assert client.ping()["pong"] is True
    client.close()
    daemon.shutdown()
    ledgers = list(daemon.final_ledgers.values())
    assert any(entry["ledger"]["frames_rejected"] >= 2 for entry in ledgers)


def test_persistent_garbage_closes_the_connection(tmp_path):
    daemon, path = _start_daemon(tmp_path)
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(path)
    # The daemon hangs up after MAX_CONSECUTIVE_REJECTIONS garbage
    # frames; if it wins the race against our blind send loop, the
    # kernel surfaces that closure as EPIPE/ECONNRESET — equally valid
    # evidence of the hang-up we are asserting.
    closed = False
    try:
        for _ in range(16):
            raw.sendall(b"\x00\x00\x00\x00")
    except (BrokenPipeError, ConnectionResetError):
        closed = True
    if not closed:
        raw.settimeout(5.0)
        # Drain error responses until the daemon hangs up.
        for _ in range(64):
            try:
                data = raw.recv(65536)
            except ConnectionResetError:
                data = b""
            if not data:
                closed = True
                break
    assert closed
    raw.close()
    daemon.shutdown()


def test_client_disconnect_mid_subscription_survives(tmp_path):
    daemon, path = _start_daemon(
        tmp_path, DaemonConfig(store_dir=str(tmp_path / "store"))
    )
    victim = ScapClient(unix_path=path, name="victim")
    victim.subscribe(events=["created", "data", "closed"])
    driver = ScapClient(unix_path=path, name="driver")

    done = threading.Event()

    def capture():
        driver.submit_campus(flows=10, seed=2, rate_bps=RATE, name="mid")
        done.set()

    thread = threading.Thread(target=capture)
    thread.start()
    # Sever the victim's socket while events are (or will be) fanning out.
    victim.sock.close()
    assert done.wait(timeout=120)
    thread.join(timeout=10)

    assert driver.ping()["pong"] is True
    driver.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()


def test_reload_drains_and_seals(tmp_path):
    daemon, path = _start_daemon(
        tmp_path, DaemonConfig(store_dir=str(tmp_path / "store"))
    )
    client = ScapClient(unix_path=path)
    client.submit_campus(flows=6, seed=1, rate_bps=RATE)
    report = client.reload()
    assert report["reloaded"] is True
    assert client.ping()["pong"] is True  # connection survived the reload
    client.close()
    daemon.shutdown()


def test_shutdown_refuses_new_work(tmp_path):
    daemon, path = _start_daemon(tmp_path)
    client = ScapClient(unix_path=path)
    assert client.shutdown_server()["shutting_down"] is True
    client.close()
    daemon.shutdown()  # idempotent with the remote-triggered one
    assert not os.path.exists(path)


def test_control_commands_can_be_disabled(tmp_path):
    daemon, path = _start_daemon(tmp_path, DaemonConfig(allow_control=False))
    client = ScapClient(unix_path=path)
    with pytest.raises(RemoteCallError) as err:
        client.shutdown_server()
    assert err.value.code == "unauthorized"
    client.close()
    daemon.shutdown()


@pytest.mark.parametrize(
    "settings",
    [{"core_count": 0}, {"core_count": -1}, {"max_frame_bytes": 0}],
)
def test_config_without_cores_or_frame_room_is_refused(settings):
    # Such a daemon would start and then refuse every capture.
    config = DaemonConfig(**settings)
    with pytest.raises(ValueError, match=next(iter(settings))):
        config.validate()
    with pytest.raises(ValueError):
        ScapDaemon(config)


def test_tcp_listener_works(tmp_path):
    daemon = ScapDaemon(DaemonConfig())
    host, port = daemon.add_tcp_listener("127.0.0.1", 0)
    daemon.start()
    client = ScapClient(host=host, port=port)
    assert client.ping(echo="tcp")["echo"] == "tcp"
    client.close()
    daemon.shutdown()


def test_install_and_remove_filter_shapes_captures(tmp_path):
    daemon, path = _start_daemon(
        tmp_path, DaemonConfig(store_dir=str(tmp_path / "store"))
    )
    client = ScapClient(unix_path=path)
    filter_id = client.install_filter("port 80")
    first = client.submit_campus(flows=12, seed=4, rate_bps=RATE, name="filtered")
    client.remove_filter(filter_id)
    second = client.submit_campus(flows=12, seed=4, rate_bps=RATE, name="open")
    # The keep-filter strictly reduces (or keeps equal) created streams.
    assert first["streams_created"] <= second["streams_created"]
    client.close()
    daemon.shutdown()


def _drain(sub):
    """Every event a subscription holds, as ``(header, payload)`` pairs."""
    return [(frame.header, frame.payload) for frame in sub.events(timeout=0.5)]


def test_filtered_subscriptions_get_the_matching_subset(tmp_path):
    """A subscriber with a ``flow_filter`` gets exactly the events of an
    unfiltered subscriber whose flow the filter matches, in order, with
    its own ``seq`` contiguous from 0."""
    daemon, path = _start_daemon(tmp_path)
    client = ScapClient(unix_path=path, name="filters")
    everything = client.subscribe()
    expressions = ("tcp port 80", "udp or port 443")
    filtered = [client.subscribe(flow_filter=expr) for expr in expressions]
    summary = client.submit_campus(flows=20, seed=11, rate_bps=RATE, name="subs")
    assert summary["streams_created"] > 0

    def strip(event):
        header, payload = event
        return (
            {key: value for key, value in header.items() if key not in ("sub", "seq")},
            payload,
        )

    full = _drain(everything)
    assert [header["seq"] for header, _ in full] == list(range(len(full)))
    for expression, sub in zip(expressions, filtered):
        bpf = BPFFilter(expression)
        expected = [
            strip(event) for event in full
            if bpf.matches_five_tuple(FiveTuple(*event[0]["flow"]))
        ]
        got = _drain(sub)
        assert expected and len(expected) < len(full)
        assert [header["seq"] for header, _ in got] == list(range(len(got)))
        assert [strip(event) for event in got] == expected
    client.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()


def test_blank_keep_filter_is_refused(tmp_path):
    """A blank keep-filter is refused like an empty one, and captures
    (of any client) still run afterwards."""
    daemon, path = _start_daemon(tmp_path)
    client = ScapClient(unix_path=path)
    other = ScapClient(unix_path=path)
    for blank in ("", "   ", "\t"):
        with pytest.raises(RemoteCallError) as err:
            client.install_filter(blank)
        assert err.value.code == "bad_request"
    summary = other.submit_campus(flows=6, seed=2, rate_bps=RATE, name="after-blank")
    assert summary["streams_created"] > 0
    client.close()
    other.close()
    daemon.shutdown()


def test_a_declared_length_is_not_allocated_ahead_of_the_bytes(tmp_path):
    """A peer declaring a ``max_frame_bytes`` frame and sending its first
    64 KiB leaves the daemon holding what it received, plus at most the
    one read in hand."""
    config = DaemonConfig(max_frame_bytes=16 << 20)
    daemon, path = _start_daemon(tmp_path, config)
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        raw.connect(path)
        head = config.max_frame_bytes.to_bytes(4, "big") + b"z" * (64 << 10)
        raw.sendall(head)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            sessions = list(daemon._sessions.values())
            if sessions and sessions[0].ledger.bytes_received == len(head):
                break
            time.sleep(0.01)
        (session,) = sessions
        assert session.ledger.bytes_received == len(head)
        held = sys.getsizeof(session.reader._buffer) - sys.getsizeof(bytearray())
        assert len(head) <= held <= len(head) + RECV_BYTES
    finally:
        raw.close()
        daemon.shutdown()
