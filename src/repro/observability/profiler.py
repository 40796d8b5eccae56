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

Everything follows the registry's cost contract: hook call sites are
guarded by one ``obs.enabled`` boolean and all child instruments are
pre-resolved at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .registry import Histogram, MetricsRegistry

__all__ = [
    "StageProfiler",
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
        return {
            "busy_seconds": self.busy_seconds,
            "attributed_seconds": self.attributed_seconds,
            "coverage": self.coverage,
            "stages": [
                {
                    "stage": entry.stage,
                    "service_seconds": entry.service_seconds,
                    "fraction_of_busy": entry.fraction_of_busy,
                    "samples": entry.samples,
                    "p50": entry.p50,
                    "p99": entry.p99,
                    "wait_seconds": entry.wait_seconds,
                    "wait_samples": entry.wait_samples,
                    "wait_p99": entry.wait_p99,
                    "per_core_seconds": {
                        str(core): seconds
                        for core, seconds in sorted(entry.per_core_seconds.items())
                    },
                }
                for entry in self.stages
            ],
        }


class StageProfiler:
    """Per-stage attribution of simulated service and queue-wait time.

    One instance lives on each :class:`~repro.observability.Observability`
    context (``obs.profiler``).  Components never branch on the
    profiler itself — every ``record``/``record_wait`` call site sits
    inside the component's existing ``if obs.enabled:`` guard, so the
    disabled fast path stays one boolean per hook.  All registry
    children are pre-resolved here, per the registry's contract.
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
        # Pre-resolved children: the enabled path is attribute access.
        self._service: Dict[str, Histogram] = {
            stage: service_family.labels(stage) for stage in ALL_STAGES
        }
        self._wait: Dict[str, Histogram] = {
            stage: wait_family.labels(stage) for stage in ALL_STAGES
        }
        self._busy = {stage: busy_family.labels(stage) for stage in ALL_STAGES}
        # Plain accumulators backing the profile() report (mutated only
        # behind the call sites' enabled guards).
        self.service_seconds: Dict[str, float] = {stage: 0.0 for stage in ALL_STAGES}
        self.wait_seconds: Dict[str, float] = {stage: 0.0 for stage in ALL_STAGES}
        self.samples: Dict[str, int] = {stage: 0 for stage in ALL_STAGES}
        self.wait_samples: Dict[str, int] = {stage: 0 for stage in ALL_STAGES}
        self.per_core_seconds: Dict[str, Dict[int, float]] = {
            stage: {} for stage in ALL_STAGES
        }

    # ------------------------------------------------------------------
    # Hot-path recording (call sites hold the obs.enabled guard)
    # ------------------------------------------------------------------
    def record(self, stage: str, core: int, seconds: float) -> None:
        """Attribute ``seconds`` of simulated service time to a stage."""
        if seconds < 0.0:
            return
        self.service_seconds[stage] += seconds
        self.samples[stage] += 1
        per_core = self.per_core_seconds[stage]
        per_core[core] = per_core.get(core, 0.0) + seconds
        self._service[stage].observe(seconds)
        self._busy[stage].inc(seconds)

    def record_wait(self, stage: str, core: int, seconds: float) -> None:
        """Attribute ``seconds`` of simulated queue-wait before a stage."""
        if seconds < 0.0:
            return
        self.wait_seconds[stage] += seconds
        self.wait_samples[stage] += 1
        self._wait[stage].observe(seconds)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    @property
    def attributed_seconds(self) -> float:
        """Total service seconds attributed across all stages."""
        return sum(self.service_seconds.values())

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
        for stage in ALL_STAGES:
            seconds = self.service_seconds[stage]
            waits = self.wait_seconds[stage]
            if seconds == 0.0 and waits == 0.0 and not self.samples[stage]:
                continue
            report.stages.append(
                StageProfile(
                    stage=stage,
                    service_seconds=seconds,
                    fraction_of_busy=(seconds / busy) if busy > 0 else 0.0,
                    samples=self.samples[stage],
                    p50=self._service[stage].quantile(0.5),
                    p99=self._service[stage].quantile(0.99),
                    wait_seconds=waits,
                    wait_samples=self.wait_samples[stage],
                    wait_p99=self._wait[stage].quantile(0.99),
                    per_core_seconds=dict(self.per_core_seconds[stage]),
                )
            )
        return report
