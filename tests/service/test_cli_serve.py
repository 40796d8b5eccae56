"""End-to-end `repro-scap serve`: a real daemon process, a real client."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.service import RemoteCallError, ScapClient

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _spawn_serve(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.tools.cli", "serve", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _wait_for_socket(path, process, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return
        if process.poll() is not None:
            out, err = process.communicate()
            raise AssertionError(f"serve exited early: {out}\n{err}")
        time.sleep(0.05)
    raise AssertionError("daemon socket never appeared")


def test_serve_process_full_loop(tmp_path):
    sock = str(tmp_path / "scapd.sock")
    store = str(tmp_path / "store")
    process = _spawn_serve(["--unix", sock, "--store", store, "--observability"])
    try:
        _wait_for_socket(sock, process)
        client = ScapClient(unix_path=sock, name="cli-e2e")
        sub = client.subscribe(events=["closed"])
        summary = client.submit_campus(flows=6, seed=8, rate_bps=1e9, name="cli")
        assert summary["streams_created"] > 0
        closed = 0
        while sub.next_event(timeout=2.0) is not None:
            closed += 1
        streams = client.query()
        # Termination events fire once per stream direction.
        assert closed == len(streams)
        assert sum(len(s["data"]) for s in streams) == summary["delivered_bytes"]
        client.shutdown_server()
        client.close()
        out, err = process.communicate(timeout=60)
        assert process.returncode == 0, err
        assert "ledgers balanced: True" in out
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()


def test_serve_process_auth(tmp_path):
    sock = str(tmp_path / "scapd.sock")
    process = _spawn_serve(["--unix", sock, "--token", "hunter2"])
    try:
        _wait_for_socket(sock, process)
        with pytest.raises(RemoteCallError):
            ScapClient(unix_path=sock, token="nope")
        client = ScapClient(unix_path=sock, token="hunter2")
        assert client.ping()["pong"] is True
        client.shutdown_server()
        client.close()
        process.communicate(timeout=60)
        assert process.returncode == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
