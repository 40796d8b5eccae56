"""Health/SLO surface: declarative rules and the HTTP endpoints.

StreaMon's argument (PAPERS.md) is that continuously-evaluated
conditions over monitoring state should become actionable signals.
Here the state is the daemon's :class:`TelemetryRing` — cadenced
registry snapshots with derived rates — and the signals are three
endpoints a load balancer or operator can scrape (the daemon's loop
thread serves them; :func:`http_response` renders each answer):

* ``/metrics`` — the Prometheus text exposition, produced by the very
  same :func:`~repro.observability.exporters.to_prometheus` call that
  backs ``ScapSocket.export_metrics``, so a scrape is byte-identical
  to the in-process export of the same registry;
* ``/healthz`` — a JSON verdict (``healthy`` / ``degraded`` /
  ``unhealthy``) with per-rule reasons; HTTP 200 unless unhealthy;
* ``/readyz`` — lifecycle readiness (started and not shutting down).

Health is **declarative**: each :class:`HealthRule` names a metric
family, whether it is judged by per-second *rate* (counters) or latest
*value* (gauges), and the thresholds at which it degrades or fails.
Structural facts that are not rates — session-ledger imbalance — are
injected by the daemon and fail the verdict outright.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..observability.exporters import to_prometheus
from ..observability.telemetry import TelemetryRing

__all__ = [
    "VERDICT_HEALTHY",
    "VERDICT_DEGRADED",
    "VERDICT_UNHEALTHY",
    "HealthRule",
    "DEFAULT_HEALTH_RULES",
    "HealthReport",
    "evaluate_health",
    "http_response",
]

VERDICT_HEALTHY = "healthy"
VERDICT_DEGRADED = "degraded"
VERDICT_UNHEALTHY = "unhealthy"

MODE_RATE = "rate"
MODE_VALUE = "value"

#: The statuses :func:`http_response` answers with, and their reasons.
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    431: "Request Header Fields Too Large", 501: "Not Implemented",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class HealthRule:
    """One continuously-evaluated condition over the telemetry ring."""

    name: str
    family: str
    mode: str                      # MODE_RATE (per second) or MODE_VALUE
    degraded_above: float
    unhealthy_above: float
    reason: str

    def evaluate(self, ring: TelemetryRing) -> Tuple[str, Optional[float]]:
        """``(verdict, observed)``; healthy with None when unjudgeable."""
        if self.mode == MODE_RATE:
            observed = ring.rate(self.family)
            if observed is None:
                return VERDICT_HEALTHY, None  # no interval yet
        else:
            observed = ring.gauge_value(self.family)
        if observed > self.unhealthy_above:
            return VERDICT_UNHEALTHY, observed
        if observed > self.degraded_above:
            return VERDICT_DEGRADED, observed
        return VERDICT_HEALTHY, observed


#: Default rule set.  Thresholds are deliberately loose: the soak in CI
#: provokes malformed frames and bounded event drops on purpose, and a
#: healthy daemon must stay healthy under that self-inflicted load —
#: these rules catch *sustained* pathologies, not test traffic.
DEFAULT_HEALTH_RULES: Tuple[HealthRule, ...] = (
    HealthRule(
        name="capture_drop_rate",
        family="scap_service_capture_dropped_packets_total",
        mode=MODE_RATE,
        degraded_above=1_000.0,
        unhealthy_above=100_000.0,
        reason="captures are dropping packets unintentionally",
    ),
    HealthRule(
        name="writer_queue_drops",
        family="scap_store_dropped_bytes_total",
        mode=MODE_RATE,
        degraded_above=1.0,
        unhealthy_above=64 << 20,
        reason="store segment writes are failing",
    ),
    HealthRule(
        name="event_drop_rate",
        family="scap_service_events_dropped_total",
        mode=MODE_RATE,
        degraded_above=500.0,
        unhealthy_above=50_000.0,
        reason="subscription backpressure is dropping events",
    ),
    HealthRule(
        name="bad_frame_rate",
        family="scap_service_bad_frames_total",
        mode=MODE_RATE,
        degraded_above=100.0,
        unhealthy_above=10_000.0,
        reason="peers are sending malformed frames",
    ),
    HealthRule(
        name="event_queue_saturation",
        family="scap_service_queue_saturation",
        mode=MODE_VALUE,
        degraded_above=0.8,
        unhealthy_above=0.99,
        reason="a client's event queue is nearly full",
    ),
)


@dataclass
class HealthReport:
    """One evaluated verdict with its reasons and per-rule readings."""

    verdict: str
    reasons: List[str]
    checks: Dict[str, Dict[str, object]]
    ready: bool

    def as_dict(self) -> Dict[str, object]:
        """The report as a plain dict (wire/JSON shape)."""
        return {
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "checks": {name: dict(entry) for name, entry in self.checks.items()},
            "ready": self.ready,
        }


_SEVERITY = {VERDICT_HEALTHY: 0, VERDICT_DEGRADED: 1, VERDICT_UNHEALTHY: 2}


def evaluate_health(
    ring: Optional[TelemetryRing],
    rules: Tuple[HealthRule, ...] = DEFAULT_HEALTH_RULES,
    structural: Optional[Dict[str, object]] = None,
) -> HealthReport:
    """Evaluate the rule set (plus structural facts) into one report.

    ``structural`` carries non-rate facts injected by the daemon:
    ``ledgers_balanced`` (False is outright unhealthy — accounting is
    an invariant, not a threshold) and ``ready``.
    """
    structural = structural or {}
    verdict = VERDICT_HEALTHY
    reasons: List[str] = []
    checks: Dict[str, Dict[str, object]] = {}
    if ring is not None:
        for rule in rules:
            rule_verdict, observed = rule.evaluate(ring)
            checks[rule.name] = {
                "verdict": rule_verdict,
                "observed": observed,
                "family": rule.family,
                "mode": rule.mode,
            }
            if _SEVERITY[rule_verdict] > _SEVERITY[verdict]:
                verdict = rule_verdict
            if rule_verdict != VERDICT_HEALTHY:
                reasons.append(f"{rule.name}: {rule.reason} ({observed:.1f})")
    balanced = structural.get("ledgers_balanced")
    checks["ledgers_balanced"] = {
        "verdict": (
            VERDICT_HEALTHY if balanced in (None, True) else VERDICT_UNHEALTHY
        ),
        "observed": balanced,
        "family": "",
        "mode": "invariant",
    }
    if balanced is False:
        verdict = VERDICT_UNHEALTHY
        reasons.append(
            "ledgers_balanced: a session ledger lost events "
            "(enqueued != delivered + dropped + queued)"
        )
    ready = bool(structural.get("ready", True))
    return HealthReport(
        verdict=verdict, reasons=reasons, checks=checks, ready=ready
    )


def http_response(
    head: Optional[bytes], registry, report: Callable[[], HealthReport]
) -> List[bytes]:
    """The HTTP/1.0 response to one request, as its head and its body.

    ``head`` is the request line and header lines (without the blank
    line that ends them), or None when they outgrew the reader's bound.
    ``GET /metrics`` answers :func:`to_prometheus` of ``registry`` byte
    for byte; ``/healthz`` and ``/readyz`` call ``report``.  As the
    standard library's HTTP server would, a malformed request line gets
    400, a method other than GET 501 and another path 404; an oversized
    head gets 431.  Every response closes its connection.
    """
    content_type = "text/plain"
    if head is None:
        status, body = 431, b"request head too large\n"
    else:
        words = head.split(b"\r\n", 1)[0].split()
        if len(words) != 3 or not words[2].startswith(b"HTTP/"):
            status, body = 400, b"bad request\n"
        elif words[0] != b"GET":
            status, body = 501, b"unsupported method\n"
        else:
            path = words[1].split(b"?", 1)[0]
            if path == b"/metrics":
                status, body = 200, to_prometheus(registry).encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            elif path == b"/healthz":
                verdict = report()
                status = 503 if verdict.verdict == VERDICT_UNHEALTHY else 200
                body = json.dumps(verdict.as_dict(), indent=2).encode("utf-8")
                content_type = "application/json"
            elif path == b"/readyz":
                ready = report().ready
                status, body = (200 if ready else 503), json.dumps({"ready": ready}).encode()
                content_type = "application/json"
            else:
                status, body = 404, b"not found\n"
    line = (
        f"HTTP/1.0 {status} {_REASONS[status]}\r\n"
        f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return [line.encode("ascii"), body]
