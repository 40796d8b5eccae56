"""The daemon's shape: one loop thread, one owner thread, any number of clients.

Thread count does not grow with connections, an idle or stalled peer
costs nothing, a response larger than the socket buffer goes out over
write-readiness without holding anyone else up, every event of a
capture is ledgered before that capture's response, and
``serve_forever`` returns only when the shutdown has finished.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.service import (
    ClientQuotas,
    DaemonConfig,
    FrameReader,
    ScapClient,
    ScapDaemon,
    encode_frame,
)
from repro.service.protocol import (
    MSG_EVENT,
    MSG_REQUEST,
    MSG_RESPONSE,
    PROTOCOL_MINOR,
    split_events,
    split_streams,
)
from repro.store import StreamStore

from .test_daemon import _start_daemon

RATE = 1e9


def _daemon_threads():
    return sorted(t.name for t in threading.enumerate() if t.name.startswith("scapd-"))


def _raw_connect(path):
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.connect(path)
    return raw


def _raw_call(raw, reader, request_id, command, **header):
    """One request on a raw socket; returns its response frame."""
    header["command"] = command
    raw.sendall(encode_frame(MSG_REQUEST, request_id, header))
    while True:
        for frame in reader.feed(raw.recv(65536)):
            if frame.request_id == request_id:
                assert frame.msg_type == MSG_RESPONSE, frame.header
                return frame


def _read_until_quiet(raw, reader, quiet=1.0):
    """Every frame the peer sends until it stays silent for ``quiet`` s."""
    frames = []
    raw.settimeout(quiet)
    try:
        while True:
            data = raw.recv(1 << 20)
            if not data:
                break
            frames.extend(reader.feed(data))
    except socket.timeout:
        pass
    return frames


def test_thread_count_is_constant_in_client_count(tmp_path):
    before = _daemon_threads()
    daemon, path = _start_daemon(tmp_path)
    clients = [ScapClient(unix_path=path, name="c0")]
    clients[0].subscribe(events=["closed"])
    assert clients[0].ping()["pong"] is True
    with_one = _daemon_threads()
    for index in range(1, 64):
        client = ScapClient(unix_path=path, name=f"c{index}")
        client.subscribe(events=["closed"])
        clients.append(client)
    assert all(client.ping()["pong"] is True for client in clients)
    assert clients[0].stats()["server"]["active_clients"] == 64
    assert _daemon_threads() == with_one
    assert len(with_one) - len(before) <= 3
    for client in clients:
        client.close()
    daemon.shutdown()
    assert _daemon_threads() == before
    assert len(daemon.final_ledgers) == 64


def test_idle_and_slowloris_peers_cost_no_threads_and_delay_nobody(tmp_path):
    daemon, path = _start_daemon(tmp_path)
    client = ScapClient(unix_path=path, timeout=2.0, retry_idempotent=False)
    threads = _daemon_threads()
    idle = [_raw_connect(path) for _ in range(64)]
    slowloris = _raw_connect(path)
    slowloris.sendall(b"\x00\x00")  # half a length prefix, then nothing
    started = time.monotonic()
    for _ in range(50):
        assert client.ping()["pong"] is True
    assert time.monotonic() - started < 2.0
    assert client.stats()["server"]["active_clients"] == 66
    assert _daemon_threads() == threads
    for raw in idle + [slowloris]:
        raw.close()
    client.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()
    assert len(daemon.final_ledgers) == 66


def test_every_event_is_ledgered_before_the_submit_response(tmp_path):
    daemon, path = _start_daemon(
        tmp_path, DaemonConfig(quotas=ClientQuotas(max_queued_events=8))
    )
    reading = ScapClient(unix_path=path, name="reading")
    sub = reading.subscribe(events=["created", "data", "closed"])
    # A subscriber that reads nothing while the capture runs: its socket
    # fills, its queue overflows, and its events are dropped oldest-first.
    stalled, stalled_reader = _stalled_subscriber(path)
    driver = ScapClient(unix_path=path, name="driver")
    driver.submit_campus(flows=60, seed=7, rate_bps=RATE)

    def ledgers():
        return {
            entry["name"]: entry["ledger"] for entry in driver.stats()["clients"]
        }

    at_return = ledgers()
    held = {"reading": 0, "stalled": 0}
    while sub.next_event(timeout=1.0) is not None:
        held["reading"] += 1
    held["stalled"] = sum(
        len(split_events(frame)) for frame in _read_until_quiet(stalled, stalled_reader)
        if frame.msg_type == MSG_EVENT
    )
    final = ledgers()
    assert final["stalled"]["dropped"] > 0
    for name in ("reading", "stalled"):
        assert at_return[name]["enqueued"] > 0
        # Nothing of the capture was still on its way when submit returned.
        assert final[name]["enqueued"] == at_return[name]["enqueued"]
        assert held[name] + final[name]["dropped"] == at_return[name]["enqueued"]
    stalled.close()
    reading.close()
    driver.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()


def test_a_subscriber_that_keeps_up_loses_nothing_at_a_tiny_queue(tmp_path):
    """Events are queued a drain at a time; a queue of four must still
    be enough for a client whose socket takes everything it is offered
    (the loop writes before it would drop)."""
    daemon, path = _start_daemon(
        tmp_path, DaemonConfig(quotas=ClientQuotas(max_queued_events=4))
    )
    reading = ScapClient(unix_path=path, name="reading")
    sub = reading.subscribe(events=["created", "data", "closed"])
    driver = ScapClient(unix_path=path, name="driver")
    # A cutoff keeps the capture's ~300 events inside one socket buffer,
    # so "keeps up" does not depend on how the threads are scheduled.
    driver.set_cutoff(512)
    driver.submit_campus(flows=60, seed=7, rate_bps=RATE)
    held = 0
    while sub.next_event(timeout=1.0) is not None:
        held += 1
    ledger = next(
        entry["ledger"] for entry in driver.stats()["clients"] if entry["name"] == "reading"
    )
    assert ledger["enqueued"] > 2 * 64  # several bursts, each far over the queue bound
    assert ledger["dropped"] == 0
    assert held == ledger["delivered"] == ledger["enqueued"]
    reading.close()
    driver.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()


def test_events_reach_a_shared_connection_before_the_submit_response(tmp_path):
    """One connection subscribes and submits: every event frame of the
    capture is written before the capture's response."""
    daemon, path = _start_daemon(tmp_path)
    raw, reader = _raw_connect(path), FrameReader()
    _raw_call(raw, reader, 1, "hello", name="both", protocol_minor=PROTOCOL_MINOR)
    _raw_call(raw, reader, 2, "subscribe", events=["created", "data", "closed"])
    _raw_call(raw, reader, 3, "set_cutoff", cutoff=512)
    raw.sendall(encode_frame(
        MSG_REQUEST, 4,
        {"command": "submit_trace", "kind": "campus", "flows": 60, "seed": 7, "rate_bps": RATE},
    ))
    frames = []
    while not any(frame.request_id == 4 for frame in frames):
        frames.extend(reader.feed(raw.recv(1 << 20)))
    assert frames[-1].msg_type == MSG_RESPONSE and frames[-1].request_id == 4
    assert all(frame.msg_type == MSG_EVENT for frame in frames[:-1])
    events = [event for frame in frames[:-1] for event in split_events(frame)]
    assert [event.header["seq"] for event in events] == list(range(len(events)))
    stats = _raw_call(raw, reader, 5, "stats")
    ledger = stats.header["clients"][0]["ledger"]
    assert ledger["enqueued"] == ledger["delivered"] == len(events) > 2 * 64
    assert _read_until_quiet(raw, reader, quiet=0.3) == []  # nothing was still on its way
    raw.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()


def _stalled_subscriber(path):
    """A subscribed raw connection that reads nothing until told to."""
    raw, reader = _raw_connect(path), FrameReader()
    _raw_call(raw, reader, 1, "hello", name="stalled", protocol_minor=PROTOCOL_MINOR)
    _raw_call(raw, reader, 2, "subscribe", events=["created", "data", "closed"])
    return raw, reader


def test_client_that_cannot_keep_up_is_evicted(tmp_path):
    daemon, path = _start_daemon(
        tmp_path,
        DaemonConfig(quotas=ClientQuotas(max_queued_events=8, eviction_drop_limit=20)),
    )
    stalled, reader = _stalled_subscriber(path)
    driver = ScapClient(unix_path=path, name="driver")
    driver.submit_campus(flows=60, seed=7, rate_bps=RATE)
    # The daemon hung up on it: what was already in its socket, then EOF.
    stalled.settimeout(5.0)
    while stalled.recv(1 << 20):
        pass
    assert [entry["name"] for entry in driver.stats()["clients"]] == ["driver"]
    evicted = next(
        entry for entry in daemon.final_ledgers.values() if entry["name"] == "stalled"
    )
    assert evicted["evicted"] is True
    assert evicted["ledger"]["dropped"] >= 20
    stalled.close()
    driver.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()


def test_global_event_budget_bounds_what_is_queued(tmp_path):
    daemon, path = _start_daemon(
        tmp_path,
        DaemonConfig(quotas=ClientQuotas(max_queued_events=64), global_event_budget=4),
    )
    stalled, reader = _stalled_subscriber(path)
    driver = ScapClient(unix_path=path, name="driver")
    driver.submit_campus(flows=60, seed=7, rate_bps=RATE)
    clients = {entry["name"]: entry for entry in driver.stats()["clients"]}
    assert clients["stalled"]["ledger"]["dropped"] > 0
    # The budget bounds the queue; the events of the one half-written
    # frame are queued too, but have begun to leave and cannot be dropped.
    session = daemon._sessions[clients["stalled"]["client_id"]]
    depth = daemon._on_loop(session.queue_depth)
    assert depth <= 4 and depth <= clients["stalled"]["queued"]
    stalled.close()
    driver.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()


def test_reload_waits_for_queues_only_until_its_deadline(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.service.daemon.RELOAD_DRAIN_SECONDS", 0.3)
    daemon, path = _start_daemon(
        tmp_path, DaemonConfig(store_dir=str(tmp_path / "store"))
    )
    stalled, reader = _stalled_subscriber(path)
    driver = ScapClient(unix_path=path, name="driver")
    driver.submit_campus(flows=60, seed=7, rate_bps=RATE)
    started = time.monotonic()
    report = driver.reload()  # the stalled client's queue cannot empty
    assert 0.3 <= time.monotonic() - started < 3.0
    assert report["reloaded"] is True
    assert report["drained_clients"] == 1  # the driver; not the stalled one
    assert driver.ping()["pong"] is True  # ready again, connections kept
    _read_until_quiet(stalled, reader, quiet=0.5)
    assert driver.reload()["drained_clients"] == 2  # and at once, now
    stalled.close()
    driver.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()


def test_large_response_to_a_pausing_reader_is_intact_and_stalls_nobody(tmp_path):
    daemon, path = _start_daemon(
        tmp_path, DaemonConfig(store_dir=str(tmp_path / "store"))
    )
    client = ScapClient(unix_path=path, timeout=2.0, retry_idempotent=False)
    for seed in (7, 8):
        client.submit_campus(flows=60, seed=seed, rate_bps=RATE)
    expected = b"".join(stream["data"] for stream in client.query())
    assert len(expected) > 2_000_000  # several socket buffers' worth

    raw, reader = _raw_connect(path), FrameReader()
    _raw_call(raw, reader, 1, "hello", name="pauser", protocol_minor=PROTOCOL_MINOR)
    raw.sendall(encode_frame(MSG_REQUEST, 2, {"command": "query", "flow": None}))
    head = raw.recv(1000)  # the response has begun; now stop reading
    assert head
    for _ in range(20):
        assert client.ping()["pong"] is True  # the loop is not waiting on the pauser
    frames = reader.feed(head)
    while not frames:
        frames = reader.feed(raw.recv(1 << 20))
    assert frames[0].request_id == 2
    (streams,) = split_streams([frames[0].header["streams"]], frames[0].payload)
    assert b"".join(stream["data"] for stream in streams) == expected
    raw.close()
    client.close()
    daemon.shutdown()
    assert daemon.ledgers_balanced()


def test_serve_forever_returns_only_after_shutdown_completed(tmp_path):
    store_dir = str(tmp_path / "store")
    path = str(tmp_path / "scapd.sock")
    daemon = ScapDaemon(DaemonConfig(store_dir=store_dir))
    daemon.add_unix_listener(path)
    seen = {}

    def serve():
        daemon.serve_forever()
        # What a caller (the `serve` CLI) finds the instant it returns.
        seen["threads"] = _daemon_threads()
        seen["balanced"] = daemon.ledgers_balanced()
        seen["ledgers"] = [entry["name"] for entry in daemon.final_ledgers.values()]
        store = StreamStore(store_dir)
        seen["stored_bytes"] = store.query().total_bytes
        store.close()

    before = _daemon_threads()
    server = threading.Thread(target=serve)
    server.start()
    client = ScapClient(unix_path=path, name="only")
    client.subscribe(events=["closed"])
    summary = client.submit_campus(flows=8, seed=3, rate_bps=RATE)
    assert client.shutdown_server()["shutting_down"] is True
    server.join(timeout=60)
    assert not server.is_alive()
    assert seen["threads"] == before
    assert seen["ledgers"] == ["only"]
    assert seen["balanced"] is True
    assert seen["stored_bytes"] == summary["delivered_bytes"] > 0
    assert not os.path.exists(path)
    client.close()
