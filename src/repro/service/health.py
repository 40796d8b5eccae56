"""Health/SLO surface: declarative rules plus an HTTP sidecar.

StreaMon's argument (PAPERS.md) is that continuously-evaluated
conditions over monitoring state should become actionable signals.
Here the state is the daemon's :class:`TelemetryRing` — cadenced
registry snapshots with derived rates — and the signals are three
endpoints a load balancer or operator can scrape:

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
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
    "HealthServer",
]

VERDICT_HEALTHY = "healthy"
VERDICT_DEGRADED = "degraded"
VERDICT_UNHEALTHY = "unhealthy"

MODE_RATE = "rate"
MODE_VALUE = "value"


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


class HealthServer:
    """The HTTP sidecar: ``/metrics``, ``/healthz``, ``/readyz``.

    A ``ThreadingHTTPServer`` on its own daemon thread; every handler
    is read-only over the registry/ring, so it needs no daemon locks.
    Construct with callables so the sidecar stays decoupled from the
    daemon's internals (and testable against fakes).  ``http.server``
    is imported here, so only a daemon started with ``--http`` loads it.
    """

    def __init__(
        self,
        registry,
        ring: Optional[TelemetryRing],
        structural,
        host: str = "127.0.0.1",
        port: int = 0,
        rules: Tuple[HealthRule, ...] = DEFAULT_HEALTH_RULES,
    ):
        from http.server import ThreadingHTTPServer

        self.registry = registry
        self.ring = ring
        self._structural = structural  # () -> Dict[str, object]
        self.rules = rules
        self._httpd = ThreadingHTTPServer((host, port), self._make_handler())
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self.requests_served = 0

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (port resolved when 0 was asked)."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def report(self) -> HealthReport:
        """Evaluate health right now (shared by HTTP and the command)."""
        return evaluate_health(self.ring, self.rules, self._structural())

    def start(self) -> Tuple[str, int]:
        """Start serving; returns the bound address."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="scap-health-http",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        """Stop the listener and join its thread."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _make_handler(self):
        from http.server import BaseHTTPRequestHandler

        sidecar = self

        class Handler(BaseHTTPRequestHandler):
            # Keep scrapes quiet: no per-request stderr lines.
            def log_message(self, *_args) -> None:
                return

            def _reply(self, status: int, content_type: str, body: bytes):
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802 — http.server contract
                sidecar.requests_served += 1
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = to_prometheus(sidecar.registry).encode("utf-8")
                    self._reply(
                        200,
                        "text/plain; version=0.0.4; charset=utf-8",
                        body,
                    )
                elif path == "/healthz":
                    report = sidecar.report()
                    status = 200 if report.verdict != VERDICT_UNHEALTHY else 503
                    body = json.dumps(report.as_dict(), indent=2).encode("utf-8")
                    self._reply(status, "application/json", body)
                elif path == "/readyz":
                    report = sidecar.report()
                    status = 200 if report.ready else 503
                    body = json.dumps({"ready": report.ready}).encode("utf-8")
                    self._reply(status, "application/json", body)
                else:
                    self._reply(404, "text/plain", b"not found\n")

        return Handler
