"""Health rules, and the HTTP endpoints (/metrics, /healthz, /readyz)
the daemon's loop thread serves."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.observability import MetricsRegistry, Observability, TelemetryRing, to_prometheus
from repro.service import DaemonConfig, ScapClient, ScapDaemon
from repro.service import daemon as daemon_module
from repro.service.daemon import register_service_metrics
from repro.service.health import (
    DEFAULT_HEALTH_RULES,
    MODE_RATE,
    MODE_VALUE,
    VERDICT_DEGRADED,
    VERDICT_HEALTHY,
    VERDICT_UNHEALTHY,
    HealthRule,
    evaluate_health,
)

RULE = HealthRule(
    name="drop_rate",
    family="drops_total",
    mode=MODE_RATE,
    degraded_above=10.0,
    unhealthy_above=100.0,
    reason="dropping",
)


def _ring_with_rate(per_second: float) -> TelemetryRing:
    registry = MetricsRegistry(enabled=True)
    drops = registry.counter("drops_total", "drops")
    ring = TelemetryRing(registry)
    ring.sample(0.0)
    drops.inc(int(per_second))
    ring.sample(1.0)
    return ring


def test_rate_rule_thresholds():
    assert RULE.evaluate(_ring_with_rate(5))[0] == VERDICT_HEALTHY
    assert RULE.evaluate(_ring_with_rate(50))[0] == VERDICT_DEGRADED
    assert RULE.evaluate(_ring_with_rate(500))[0] == VERDICT_UNHEALTHY


def test_rate_rule_is_healthy_before_an_interval_exists():
    registry = MetricsRegistry(enabled=True)
    registry.counter("drops_total", "drops").inc(10**9)
    ring = TelemetryRing(registry)
    ring.sample(0.0)  # one sample: no rate is judgeable yet
    assert RULE.evaluate(ring) == (VERDICT_HEALTHY, None)


def test_value_rule_reads_the_latest_gauge():
    rule = HealthRule(
        name="saturation", family="sat", mode=MODE_VALUE,
        degraded_above=0.8, unhealthy_above=0.99, reason="full",
    )
    registry = MetricsRegistry(enabled=True)
    sat = registry.gauge("sat", "saturation")
    ring = TelemetryRing(registry)
    sat.set(0.9)
    ring.sample(0.0)
    assert rule.evaluate(ring) == (VERDICT_DEGRADED, 0.9)


def test_evaluate_health_takes_the_worst_verdict_with_reasons():
    ring = _ring_with_rate(50)  # degraded under RULE
    report = evaluate_health(ring, rules=(RULE,))
    assert report.verdict == VERDICT_DEGRADED
    assert report.checks["drop_rate"]["verdict"] == VERDICT_DEGRADED
    assert any("dropping" in reason for reason in report.reasons)
    assert report.ready is True


def test_unbalanced_ledgers_are_unhealthy_outright():
    report = evaluate_health(
        _ring_with_rate(0),
        rules=(RULE,),
        structural={"ledgers_balanced": False, "ready": True},
    )
    assert report.verdict == VERDICT_UNHEALTHY
    assert report.checks["ledgers_balanced"]["verdict"] == VERDICT_UNHEALTHY
    # And the JSON shape round-trips.
    assert json.loads(json.dumps(report.as_dict()))["verdict"] == "unhealthy"


def test_default_rules_stay_healthy_on_an_idle_service_registry():
    registry = MetricsRegistry(enabled=True)
    register_service_metrics(registry)
    ring = TelemetryRing(registry)
    ring.sample(0.0)
    ring.sample(1.0)
    report = evaluate_health(ring, rules=DEFAULT_HEALTH_RULES)
    assert report.verdict == VERDICT_HEALTHY
    assert set(report.checks) == {
        rule.name for rule in DEFAULT_HEALTH_RULES
    } | {"ledgers_balanced"}


@pytest.fixture()
def served(tmp_path):
    """A daemon started with HTTP, and the base URL of its endpoints.

    Its telemetry timer does not fire while a test runs, so nothing
    moves the registry between a scrape and the test's own export.
    """
    daemon = ScapDaemon(
        DaemonConfig(
            store_dir=str(tmp_path / "store"),
            http_host="127.0.0.1",
            telemetry_cadence=3600.0,
        ),
        observability=Observability(enabled=True),
    )
    daemon.add_unix_listener(str(tmp_path / "scapd.sock"))
    daemon.start()
    host, port = daemon.http_address
    try:
        yield daemon, f"http://{host}:{port}"
    finally:
        daemon.shutdown()


def _get(base, path):
    return urllib.request.urlopen(f"{base}{path}", timeout=5.0)


def _status(base, path):
    """``(status, JSON body)`` of one GET, whatever its status."""
    try:
        with _get(base, path) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        with err:
            return err.code, json.loads(err.read())


def _await_status(base, path, status):
    deadline = time.monotonic() + 10.0
    while _status(base, path)[0] != status:
        assert time.monotonic() < deadline, f"{path} never answered {status}"
        time.sleep(0.01)


def _exchange(address, request: bytes) -> bytes:
    """Send ``request`` raw and read until the daemon closes."""
    with socket.create_connection(address, timeout=5.0) as peer:
        peer.sendall(request)
        reply = b""
        while chunk := peer.recv(65536):
            reply += chunk
    return reply


def test_metrics_scrape_is_byte_identical_to_the_export(served, tmp_path):
    daemon, base = served
    client = ScapClient(unix_path=str(tmp_path / "scapd.sock"))
    try:
        for _ in range(3):
            client.ping()
        with _get(base, "/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            scraped = response.read()
        # The acceptance bar: a scrape IS the in-process export, byte for
        # byte — same function, same registry, no reformatting in between.
        assert scraped == to_prometheus(daemon._obs.registry).encode("utf-8")
        assert b'scap_service_requests_total{command="ping"} 3' in scraped
    finally:
        client.close()


def test_healthz_reports_the_verdict_and_flips_to_503(served):
    daemon, base = served
    status, body = _status(base, "/healthz")
    assert status == 200
    assert body["verdict"] == "healthy"
    assert body["ready"] is True
    daemon._on_loop(setattr, daemon, "_balanced", False)  # a ledger lost events
    status, body = _status(base, "/healthz")
    assert status == 503
    assert body["verdict"] == "unhealthy"


def test_readyz_tracks_lifecycle_not_health(served):
    daemon, base = served
    assert _status(base, "/readyz") == (200, {"ready": True})
    # Unhealthy but still ready: readiness is lifecycle, not SLO.
    daemon._on_loop(setattr, daemon, "_balanced", False)
    assert _status(base, "/readyz") == (200, {"ready": True})
    # The owner seals (reload) and closes (shutdown) the store only
    # once the gate opens: each step holds the daemon in its state.
    gate = threading.Event()
    store = daemon.store

    def held(method):
        def wait_then_call(*args, **kwargs):
            gate.wait(10.0)
            return method(*args, **kwargs)
        return wait_then_call

    store.flush, store.close = held(store.flush), held(store.close)
    reloading = threading.Thread(target=daemon.reload)
    reloading.start()
    _await_status(base, "/readyz", 503)
    assert _status(base, "/readyz") == (503, {"ready": False})
    gate.set()
    reloading.join(10.0)
    assert _status(base, "/readyz") == (200, {"ready": True})
    gate.clear()
    stopping = threading.Thread(target=daemon.shutdown)
    stopping.start()
    # Still answered while the daemon drains, and not ready.
    _await_status(base, "/readyz", 503)
    gate.set()
    stopping.join(10.0)
    with pytest.raises(urllib.error.URLError):
        _get(base, "/readyz")  # the listener closed with the daemon


def test_unknown_paths_are_404(served):
    _, base = served
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(base, "/nope")
    assert err.value.code == 404
    err.value.close()


def test_idle_http_peers_start_no_thread_and_readyz_still_answers(served):
    daemon, base = served
    threads = set(threading.enumerate())
    peers = [socket.create_connection(daemon.http_address) for _ in range(20)]
    try:
        assert _status(base, "/readyz") == (200, {"ready": True})
        assert set(threading.enumerate()) == threads
    finally:
        for peer in peers:
            peer.close()
    assert {thread.name for thread in threads} >= {"scapd-loop", "scapd-owner"}


def test_a_peer_that_never_finishes_its_head_is_closed_at_the_deadline(served, monkeypatch):
    daemon, _ = served
    monkeypatch.setattr(daemon_module, "HTTP_DEADLINE_SECONDS", 0.3)
    with socket.create_connection(daemon.http_address, timeout=5.0) as peer:
        started = time.monotonic()
        peer.sendall(b"GET /metrics HTTP/1.0\r\nHost: scapd\r\n")  # no blank line
        assert peer.recv(65536) == b""  # closed, unanswered
        assert 0.25 <= time.monotonic() - started < 5.0


def test_a_head_over_the_bound_gets_431_and_is_closed(served):
    daemon, _ = served
    target = b"/" + b"a" * daemon_module.HTTP_HEAD_BYTES
    reply = _exchange(daemon.http_address, b"GET " + target + b" HTTP/1.0\r\n\r\n")
    assert reply.startswith(b"HTTP/1.0 431 ")
    assert b"Connection: close\r\n" in reply


def test_other_methods_get_501_and_a_malformed_request_line_400(served):
    daemon, base = served
    address = daemon.http_address
    assert _exchange(address, b"POST /metrics HTTP/1.0\r\n\r\n").startswith(b"HTTP/1.0 501 ")
    assert _exchange(address, b"HEAD /healthz HTTP/1.0\r\n\r\n").startswith(b"HTTP/1.0 501 ")
    assert _exchange(address, b"NONSENSE\r\n\r\n").startswith(b"HTTP/1.0 400 ")
    assert _exchange(address, b"GET /metrics SPDY/9\r\n\r\n").startswith(b"HTTP/1.0 400 ")
    # None of them cost the daemon its endpoints.
    assert _status(base, "/readyz") == (200, {"ready": True})
