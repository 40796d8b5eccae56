"""Client-side robustness: idempotent retry with exponential backoff."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.service import ScapClient, encode_frame
from repro.service.client import CallTimeout
from repro.service.protocol import MSG_RESPONSE, PROTOCOL_MINOR, FrameReader


class StubServer:
    """A scripted daemon: answers hello, then drops the first N requests
    of each command so the client's retry path is exercised."""

    def __init__(self, path, drop_first):
        self.path = path
        self.drop_first = dict(drop_first)
        self.requests = []
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
                    command = frame.header.get("command", "")
                    self.requests.append(command)
                    if self.drop_first.get(command, 0) > 0:
                        self.drop_first[command] -= 1
                        continue  # swallow it: the client times out
                    conn.sendall(
                        encode_frame(
                            MSG_RESPONSE,
                            frame.request_id,
                            {"client_id": 1, "protocol_minor": PROTOCOL_MINOR,
                             "pong": True, "echo": None},
                        )
                    )
        except OSError:
            pass
        finally:
            conn.close()

    def close(self):
        self.listener.close()


def test_idempotent_call_retries_once_after_timeout(tmp_path):
    path = str(tmp_path / "stub.sock")
    server = StubServer(path, drop_first={"ping": 1})
    client = ScapClient(unix_path=path, timeout=0.3, retry_backoff=0.01)
    # First ping is swallowed; the retry (idempotent) succeeds.
    assert client.ping()["pong"] is True
    assert server.requests.count("ping") == 2
    client.close()
    server.close()


def test_idempotent_retry_gives_up_after_one_retry(tmp_path):
    path = str(tmp_path / "stub.sock")
    server = StubServer(path, drop_first={"stats": 99})
    client = ScapClient(unix_path=path, timeout=0.2, retry_backoff=0.01)
    with pytest.raises(CallTimeout):
        client.call("stats")
    assert server.requests.count("stats") == 2  # original + exactly one retry
    client.close()
    server.close()


def test_non_idempotent_call_never_retries(tmp_path):
    path = str(tmp_path / "stub.sock")
    server = StubServer(path, drop_first={"submit_trace": 99})
    client = ScapClient(unix_path=path, timeout=0.2, retry_backoff=0.01)
    with pytest.raises(CallTimeout):
        client.call("submit_trace", kind="campus", flows=1)
    assert server.requests.count("submit_trace") == 1  # no retry: not idempotent
    client.close()
    server.close()


def test_retry_can_be_disabled(tmp_path):
    path = str(tmp_path / "stub.sock")
    server = StubServer(path, drop_first={"ping": 1})
    client = ScapClient(
        unix_path=path, timeout=0.2, retry_backoff=0.01, retry_idempotent=False
    )
    with pytest.raises(CallTimeout):
        client.ping()
    assert server.requests.count("ping") == 1
    client.close()
    server.close()
