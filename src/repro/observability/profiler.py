"""The pipeline stage profiler: where does simulated time go?

The paper's evaluation (Figs. 4-10) is a time-decomposition argument —
Scap wins because kernel reassembly, subzero copy, and PPL remove work
from the hot path.  This module makes that decomposition observable in
the reproduction: every simulated cycle the pipeline charges is
attributed to a named *stage*, so a run can answer "what fraction of
busy time went to reassembly vs. flow lookup vs. the application
callback" the way Figure 7's cache-locality analysis does.

Stages, in pipeline order:

* ``packet_receive`` — per-packet softirq base work: NIC hand-off,
  BPF filter evaluation, FDIR filter management;
* ``flow_lookup``   — flow-table hashing and stream-state updates;
* ``reassembly``    — IP defragmentation, TCP segment ordering, and
  the copy of accepted payload into stream memory;
* ``event_enqueue`` — event construction on the kernel side;
* ``event_dequeue`` — worker-side pop + stub dispatch cost;
* ``worker_callback`` — the application's own per-event work;
* ``store_drain``   — a record's wait in its core's write batch until
  the stream store drains it (wait only: persisting records costs no
  simulated service time).

Attribution is *exact* for the service stages: the kernel module and
the worker pool charge every cycle through a stage-tagged path, so the
per-stage sums reconstruct the softirq + worker busy time (the
``repro-scap profile`` report asserts >= 95% coverage).  Queue-wait
time (packets waiting in the RX ring, events waiting in a worker
queue, records sitting in a write batch) is recorded separately per
stage — wait is latency, not load.

Everything follows the registry's cost contract: a component records a
stage's samples as plain numbers behind one ``obs.enabled`` boolean and
publishes them once per batch (:class:`StageTally`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from .registry import Histogram, MetricsRegistry

__all__ = [
    "StageProfiler",
    "StageTally",
    "StageProfile",
    "ProfileReport",
    "STAGE_PACKET_RECEIVE",
    "STAGE_FLOW_LOOKUP",
    "STAGE_REASSEMBLY",
    "STAGE_EVENT_ENQUEUE",
    "STAGE_EVENT_DEQUEUE",
    "STAGE_WORKER_CALLBACK",
    "STAGE_STORE_DRAIN",
    "ALL_STAGES",
    "KERNEL_STAGES",
]

STAGE_PACKET_RECEIVE = "packet_receive"
STAGE_FLOW_LOOKUP = "flow_lookup"
STAGE_REASSEMBLY = "reassembly"
STAGE_EVENT_ENQUEUE = "event_enqueue"
STAGE_EVENT_DEQUEUE = "event_dequeue"
STAGE_WORKER_CALLBACK = "worker_callback"
STAGE_STORE_DRAIN = "store_drain"

#: Every profiled stage, in pipeline order.
ALL_STAGES: Tuple[str, ...] = (
    STAGE_PACKET_RECEIVE,
    STAGE_FLOW_LOOKUP,
    STAGE_REASSEMBLY,
    STAGE_EVENT_ENQUEUE,
    STAGE_EVENT_DEQUEUE,
    STAGE_WORKER_CALLBACK,
    STAGE_STORE_DRAIN,
)

#: The stages charged inside the softirq handler; the kernel module
#: accumulates per-packet cycles in this order (index = position).
KERNEL_STAGES: Tuple[str, ...] = (
    STAGE_PACKET_RECEIVE,
    STAGE_FLOW_LOOKUP,
    STAGE_REASSEMBLY,
    STAGE_EVENT_ENQUEUE,
)


@dataclass
class StageProfile:
    """One stage's share of a run, as reported by :meth:`profile`."""

    stage: str
    service_seconds: float = 0.0
    fraction_of_busy: float = 0.0
    samples: int = 0
    p50: float = 0.0
    p99: float = 0.0
    wait_seconds: float = 0.0
    wait_samples: int = 0
    wait_p99: float = 0.0
    per_core_seconds: Dict[int, float] = field(default_factory=dict)


@dataclass
class ProfileReport:
    """The critical-path breakdown of one profiled run.

    ``busy_seconds`` is the ground truth measured at the virtual-time
    servers (softirq + workers); ``attributed_seconds`` is the sum of
    the stage attributions and ``coverage`` their ratio — a healthy
    profile attributes (nearly) every busy second to a stage.
    """

    stages: List[StageProfile] = field(default_factory=list)
    busy_seconds: float = 0.0
    attributed_seconds: float = 0.0
    coverage: float = 0.0

    def stage(self, name: str) -> Optional[StageProfile]:
        """The named stage's profile, or None if it never ran."""
        for entry in self.stages:
            if entry.stage == name:
                return entry
        return None

    def format(self) -> str:
        """The per-stage breakdown as a printable table."""
        lines = [
            f"{'stage':<16} {'busy%':>7} {'seconds':>12} {'samples':>9} "
            f"{'p50':>10} {'p99':>10} {'wait-s':>10} {'wait-p99':>10}"
        ]
        for entry in self.stages:
            lines.append(
                f"{entry.stage:<16} {100.0 * entry.fraction_of_busy:>6.2f}% "
                f"{entry.service_seconds:>12.6f} {entry.samples:>9} "
                f"{entry.p50:>10.3e} {entry.p99:>10.3e} "
                f"{entry.wait_seconds:>10.4f} {entry.wait_p99:>10.3e}"
            )
        lines.append(
            f"{'total':<16} {100.0 * self.coverage:>6.2f}% "
            f"{self.attributed_seconds:>12.6f}  "
            f"(busy {self.busy_seconds:.6f}s at the servers)"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form for exporters and the CLI ``--json`` path."""
        stages = [asdict(entry) for entry in self.stages]
        for entry in stages:
            per_core = sorted(entry["per_core_seconds"].items())
            entry["per_core_seconds"] = {str(core): seconds for core, seconds in per_core}
        return {
            "busy_seconds": self.busy_seconds,
            "attributed_seconds": self.attributed_seconds,
            "coverage": self.coverage,
            "stages": stages,
        }


class StageTally:
    """One stage's instruments.  The component that charges the stage
    adds each sample to the ``service`` or ``wait`` histogram's tally
    (service seconds also to ``per_core``) and publishes per batch."""

    __slots__ = ("service", "wait", "per_core", "busy")

    def __init__(self, service: Histogram, wait: Histogram, busy):
        self.service = service
        self.wait = wait
        self.per_core: Dict[int, float] = defaultdict(float)
        self.busy = busy

    def publish(self) -> None:
        """Publish both histograms; the busy counter is the service sum."""
        self.service.publish()
        self.wait.publish()
        self.busy.value = self.service.sum


class StageProfiler:
    """Per-stage attribution of simulated service and queue-wait time.

    One instance lives on each :class:`~repro.observability.Observability`
    context (``obs.profiler``).  The component that charges a stage
    records into its :class:`StageTally` behind its existing ``if
    obs.enabled:`` guard and publishes it at the end of each batch, so
    the disabled fast path stays one boolean per hook.  The totals are
    the stage histograms' own ``sum`` and ``total``.
    """

    def __init__(self, registry: MetricsRegistry):
        service_family = registry.histogram(
            "scap_stage_service_seconds",
            "simulated service time attributed per pipeline stage",
            labels=("stage",),
        )
        wait_family = registry.histogram(
            "scap_stage_queue_wait_seconds",
            "simulated queue-wait time before each pipeline stage",
            labels=("stage",),
        )
        busy_family = registry.counter(
            "scap_stage_busy_seconds_total",
            "total simulated seconds attributed per stage",
            labels=("stage",),
        )
        self.stages: Dict[str, StageTally] = {
            stage: StageTally(
                service_family.labels(stage), wait_family.labels(stage),
                busy_family.labels(stage),
            )
            for stage in ALL_STAGES
        }
        #: The stages the kernel module charges, in ``KERNEL_STAGES`` order.
        self.kernel_stages = tuple(self.stages[stage] for stage in KERNEL_STAGES)

    @property
    def attributed_seconds(self) -> float:
        """Total service seconds attributed across all stages."""
        return sum(stage.service.sum for stage in self.stages.values())

    def report(self, busy_seconds: Optional[float] = None) -> ProfileReport:
        """Reduce the attributions to a :class:`ProfileReport`.

        ``busy_seconds`` is the measured server busy time to score
        coverage against; when omitted, the attributed total is used
        (coverage 1.0 by construction).
        """
        attributed = self.attributed_seconds
        busy = attributed if busy_seconds is None else busy_seconds
        report = ProfileReport(
            busy_seconds=busy,
            attributed_seconds=attributed,
            coverage=(attributed / busy) if busy > 0 else 0.0,
        )
        for name, stage in self.stages.items():
            service = stage.service
            wait = stage.wait
            if service.sum == 0.0 and wait.sum == 0.0 and not service.total:
                continue
            report.stages.append(
                StageProfile(
                    stage=name,
                    service_seconds=service.sum,
                    fraction_of_busy=(service.sum / busy) if busy > 0 else 0.0,
                    samples=service.total,
                    p50=service.quantile(0.5),
                    p99=service.quantile(0.99),
                    wait_seconds=wait.sum,
                    wait_samples=wait.total,
                    wait_p99=wait.quantile(0.99),
                    per_core_seconds=dict(stage.per_core),
                )
            )
        return report
