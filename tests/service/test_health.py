"""Health rules and the HTTP sidecar (/metrics, /healthz, /readyz)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.observability import MetricsRegistry, TelemetryRing, to_prometheus
from repro.service.daemon import register_service_metrics
from repro.service.health import (
    DEFAULT_HEALTH_RULES,
    MODE_RATE,
    MODE_VALUE,
    VERDICT_DEGRADED,
    VERDICT_HEALTHY,
    VERDICT_UNHEALTHY,
    HealthRule,
    HealthServer,
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
def sidecar():
    registry = MetricsRegistry(enabled=True)
    register_service_metrics(registry)
    registry.counter("scap_service_requests_total", "", labels=("command",)) \
        .labels("ping").inc(3)
    ring = TelemetryRing(registry)
    ring.sample(0.0)
    ring.sample(1.0)
    structural = {"ledgers_balanced": True, "ready": True}
    server = HealthServer(registry, ring, lambda: dict(structural))
    server.start()
    try:
        yield server, registry, structural
    finally:
        server.stop()


def _get(server, path):
    host, port = server.address
    return urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=5.0)


def test_metrics_scrape_is_byte_identical_to_the_export(sidecar):
    server, registry, _ = sidecar
    response = _get(server, "/metrics")
    assert response.status == 200
    assert response.headers["Content-Type"].startswith(
        "text/plain; version=0.0.4"
    )
    # The acceptance bar: a scrape IS the in-process export, byte for
    # byte — same function, same registry, no reformatting in between.
    assert response.read() == to_prometheus(registry).encode("utf-8")


def test_healthz_reports_the_verdict_and_flips_to_503(sidecar):
    server, _, structural = sidecar
    body = json.loads(_get(server, "/healthz").read())
    assert body["verdict"] == "healthy"
    assert body["ready"] is True
    structural["ledgers_balanced"] = False
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server, "/healthz")
    assert err.value.code == 503
    assert json.loads(err.value.read())["verdict"] == "unhealthy"


def test_readyz_tracks_lifecycle_not_health(sidecar):
    server, _, structural = sidecar
    assert json.loads(_get(server, "/readyz").read()) == {"ready": True}
    # Unhealthy but still ready: readiness is lifecycle, not SLO.
    structural["ledgers_balanced"] = False
    assert json.loads(_get(server, "/readyz").read()) == {"ready": True}
    structural["ready"] = False
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server, "/readyz")
    assert err.value.code == 503
    err.value.close()


def test_unknown_paths_are_404(sidecar):
    server, _, _ = sidecar
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(server, "/nope")
    assert err.value.code == 404
    err.value.close()
    assert server.requests_served >= 1
