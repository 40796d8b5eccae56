"""The client reads its own replies: the thread that waits for a
response reads the socket itself, so a connection without subscriptions
runs no thread of its own, and the first subscription starts exactly
one drainer."""

from __future__ import annotations

import threading
import time

import pytest

from repro.service import DaemonConfig, ScapClient
from repro.service.client import CallTimeout

from .test_client_retry import StubServer
from .test_daemon import _start_daemon


def _drainers():
    return [t for t in threading.enumerate() if t.name == "scap-client-drain"]


def _wait_for_request(server, command):
    deadline = time.monotonic() + 5.0
    while command not in server.requests:
        assert time.monotonic() < deadline, f"{command!r} never reached the server"
        time.sleep(0.01)
    time.sleep(0.05)  # the caller is now waiting on its response


def _in_background(target):
    outcome = {}

    def run():
        try:
            outcome["value"] = target()
        except Exception as exc:  # noqa: BLE001 — inspected by the test
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


def test_a_client_without_subscriptions_starts_no_thread(tmp_path):
    daemon, path = _start_daemon(tmp_path, DaemonConfig(store_dir=str(tmp_path / "store")))
    before = threading.active_count()
    client = ScapClient(unix_path=path)
    assert threading.active_count() == before
    client.ping()
    client.query()
    assert threading.active_count() == before
    client.close()
    assert threading.active_count() == before
    daemon.shutdown()


def test_subscribe_starts_exactly_one_drainer(tmp_path):
    daemon, path = _start_daemon(tmp_path)
    client = ScapClient(unix_path=path)
    assert _drainers() == []
    client.subscribe(events=["closed"])
    client.subscribe(events=["created"])
    assert len(_drainers()) == 1
    client.close()
    assert _drainers() == []
    daemon.shutdown()


def test_concurrent_callers_each_get_their_own_echo(tmp_path):
    daemon, path = _start_daemon(tmp_path)
    client = ScapClient(unix_path=path)
    wrong = []

    def pings(index):
        for i in range(200):
            echo = index * 1000 + i
            got = client.ping(echo=echo)["echo"]
            if got != echo:
                wrong.append((echo, got))

    threads = [threading.Thread(target=pings, args=(index,)) for index in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    client.close()
    daemon.shutdown()


def test_a_call_times_out_in_time_while_another_thread_reads(tmp_path):
    server = StubServer(str(tmp_path / "stub.sock"), drop_first={"stats": 99, "submit_trace": 99})
    client = ScapClient(unix_path=server.path)
    reading, _ = _in_background(lambda: client.low_level_call("stats", timeout=30.0))
    _wait_for_request(server, "stats")
    started = time.monotonic()
    with pytest.raises(CallTimeout):
        client.low_level_call("submit_trace", timeout=0.3)
    assert time.monotonic() - started < 0.3 + 1.0
    client.close()
    reading.join(timeout=5)
    server.close()


def test_close_wakes_a_thread_blocked_in_call(tmp_path):
    server = StubServer(str(tmp_path / "stub.sock"), drop_first={"stats": 99})
    client = ScapClient(unix_path=server.path)
    blocked, outcome = _in_background(lambda: client.low_level_call("stats", timeout=30.0))
    _wait_for_request(server, "stats")
    client.close()
    blocked.join(timeout=2.0)
    assert not blocked.is_alive()
    assert isinstance(outcome.get("error"), ConnectionError)
    server.close()


def test_close_wakes_a_thread_blocked_in_next_event(tmp_path):
    daemon, path = _start_daemon(tmp_path)
    client = ScapClient(unix_path=path)
    stream = client.subscribe(events=["closed"])
    blocked, outcome = _in_background(lambda: stream.next_event(timeout=30.0))
    time.sleep(0.1)
    client.close()
    blocked.join(timeout=2.0)
    assert not blocked.is_alive()
    assert outcome == {"value": None}
    daemon.shutdown()
