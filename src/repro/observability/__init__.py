"""Observability: metrics registry, trace hooks, exporters.

The paper's API surfaces rich per-stream and aggregate statistics
(Table 1); a production sensor additionally needs to observe the
*capture pipeline itself* — per-core packet/byte/drop rates, PPL and
FDIR decisions, pool occupancy — continuously and exportably, the way
AMON and the ntop offload work monitor their own datapaths.  This
package provides that layer:

* :class:`~repro.observability.registry.MetricsRegistry` — counters,
  gauges, and histograms, labeled (e.g. per core, per priority), with
  explicit time injection from the simulated clock;
* :class:`~repro.observability.tracing.TraceBuffer` — a ring buffer of
  named hook-point events (PPL drops, FDIR installs/evictions, cutoff
  hits, hole skips, …);
* :mod:`~repro.observability.exporters` — Prometheus text format and
  JSON snapshots.

Everything is **off by default** and engineered so the disabled fast
path costs one boolean check per hook (see
``benchmarks/bench_observability_overhead.py``).  Enable it per run::

    from repro.observability import Observability

    obs = Observability(enabled=True)
    socket = ScapSocket(trace, rate_bps=2e9, observability=obs)
    socket.start_capture()
    print(socket.export_metrics())          # Prometheus text

See ``docs/OBSERVABILITY.md`` for the metric and hook inventory.
"""

from __future__ import annotations

from .exporters import parity_errors, snapshot, to_json, to_prometheus
from .profiler import (
    ALL_STAGES,
    KERNEL_STAGES,
    STAGE_EVENT_DEQUEUE,
    STAGE_EVENT_ENQUEUE,
    STAGE_FLOW_LOOKUP,
    STAGE_PACKET_RECEIVE,
    STAGE_REASSEMBLY,
    STAGE_STORE_DRAIN,
    STAGE_WORKER_CALLBACK,
    ProfileReport,
    StageProfile,
    StageProfiler,
)
from .registry import (
    DEFAULT_FRACTION_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from .spans import (
    Span,
    SpanNode,
    SpanRecord,
    SpanRecorder,
    SpanTreeReconstructor,
    span_records,
)
from .telemetry import TelemetryRing, TelemetrySample
from .tracing import (
    ALL_HOOKS,
    HOOK_CUTOFF_REACHED,
    HOOK_EVENT_DROPPED,
    HOOK_FAULT_INJECTED,
    HOOK_FDIR_EVICT,
    HOOK_FDIR_INSTALL,
    HOOK_FDIR_TIMEOUT,
    HOOK_HOLE_SKIPPED,
    HOOK_MEMORY_EXHAUSTED,
    HOOK_OVERLAP_RESOLVED,
    HOOK_PPL_DROP,
    HOOK_SERVICE_CLIENT_EVICTED,
    HOOK_SERVICE_EVENT_DROPPED,
    HOOK_SERVICE_REQUEST,
    HOOK_SPAN,
    HOOK_STREAM_CREATED,
    HOOK_STREAM_TERMINATED,
    TraceBuffer,
    TraceEvent,
)
from .timeline import StreamTimeline, TimelineReconstructor, canonical_tuple_str

__all__ = [
    "Observability",
    "NULL_OBSERVABILITY",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_FRACTION_BUCKETS",
    "TraceBuffer",
    "TraceEvent",
    "ALL_HOOKS",
    "HOOK_STREAM_CREATED",
    "HOOK_STREAM_TERMINATED",
    "HOOK_PPL_DROP",
    "HOOK_MEMORY_EXHAUSTED",
    "HOOK_CUTOFF_REACHED",
    "HOOK_FDIR_INSTALL",
    "HOOK_FDIR_EVICT",
    "HOOK_FDIR_TIMEOUT",
    "HOOK_HOLE_SKIPPED",
    "HOOK_OVERLAP_RESOLVED",
    "HOOK_EVENT_DROPPED",
    "HOOK_FAULT_INJECTED",
    "HOOK_SERVICE_REQUEST",
    "HOOK_SERVICE_EVENT_DROPPED",
    "HOOK_SERVICE_CLIENT_EVICTED",
    "HOOK_SPAN",
    "Span",
    "SpanRecord",
    "SpanRecorder",
    "SpanNode",
    "SpanTreeReconstructor",
    "span_records",
    "TelemetryRing",
    "TelemetrySample",
    "to_prometheus",
    "to_json",
    "snapshot",
    "parity_errors",
    "StageProfiler",
    "StageProfile",
    "ProfileReport",
    "ALL_STAGES",
    "KERNEL_STAGES",
    "STAGE_PACKET_RECEIVE",
    "STAGE_FLOW_LOOKUP",
    "STAGE_REASSEMBLY",
    "STAGE_EVENT_ENQUEUE",
    "STAGE_EVENT_DEQUEUE",
    "STAGE_WORKER_CALLBACK",
    "STAGE_STORE_DRAIN",
    "StreamTimeline",
    "TimelineReconstructor",
    "canonical_tuple_str",
]


class Observability:
    """One run's observability context: a registry plus a trace buffer.

    ``enabled`` is a plain attribute read on every hook, so the
    disabled fast path is a single boolean check.  It is fixed for the
    context's life: a batch's metrics are taken and published under the
    same setting.
    """

    def __init__(self, enabled: bool = False, trace_capacity: int = 4096):
        self.registry = MetricsRegistry(enabled=enabled)
        self.trace = TraceBuffer(capacity=trace_capacity, enabled=enabled)
        #: Per-stage attribution of simulated time; the components record
        #: into its stage tallies behind their ``obs.enabled`` guards.
        self.profiler = StageProfiler(self.registry)
        self.enabled = enabled

    # Convenience pass-throughs -----------------------------------------
    def export_prometheus(self) -> str:
        """The registry in the Prometheus text format."""
        return to_prometheus(self.registry)

    def export_json(self, now=None, indent=None) -> str:
        """The registry as a JSON snapshot (caller-injected timestamp)."""
        return to_json(self.registry, now=now, indent=indent)


#: Shared always-disabled instance used as the default by every
#: instrumented component, so hot paths never branch on ``None``.
#: Do not enable it; create your own :class:`Observability` instead.
NULL_OBSERVABILITY = Observability(enabled=False)
