"""Multiple applications sharing one capture (§5.6).

When several monitoring applications run on the same host, Scap
performs flow tracking and stream reassembly *once* in the kernel and
gives every application a shared read-only view of each stream.  The
kernel-level configuration is the best-effort union of all application
requirements:

* the effective cutoff is the **largest** requested cutoff;
* a stream is kept if it matches **at least one** application's BPF
  filter; each event is then delivered only to the applications whose
  filter matches;
* chunking uses the smallest chunk size so no application sees chunks
  larger than it asked for;
* PPL uses the most conservative (lowest) base threshold and the
  largest overload cutoff.

Each application still runs its own callbacks on its own worker pool
(its own process in the real system), so user-level costs multiply —
but the kernel work does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from ..filters.bpf import BPFFilter
from ..kernelsim.cache import LocalityProfile
from ..kernelsim.costmodel import DEFAULT_COST_MODEL, CostModel
from ..results import RunResult
from .config import ScapConfig
from .constants import SCAP_UNLIMITED_CUTOFF
from .cutoff import CutoffPolicy
from .events import Event, EventType
from .runtime import ScapRuntime
from .workers import Callbacks, WorkerPool

__all__ = ["SharedApplication", "SharedCaptureRuntime", "merge_configs"]


def merge_configs(configs: Sequence[ScapConfig]) -> ScapConfig:
    """Combine per-application configs into one kernel-level config."""
    if not configs:
        raise ValueError("need at least one application config")
    for config in configs:
        config.validate()
    merged = ScapConfig(
        memory_size=max(config.memory_size for config in configs),
        reassembly_mode=min(config.reassembly_mode for config in configs),
        need_pkts=any(config.need_pkts for config in configs),
        chunk_size=min(config.chunk_size for config in configs),
        overlap_size=max(config.overlap_size for config in configs),
        inactivity_timeout=max(config.inactivity_timeout for config in configs),
        base_threshold=min(config.base_threshold for config in configs),
        use_fdir=all(config.use_fdir for config in configs),
    )
    merged.overlap_size = min(merged.overlap_size, merged.chunk_size - 1)
    # Flush timeout: the smallest requested (most eager) one, if any.
    timeouts = [c.flush_timeout for c in configs if c.flush_timeout is not None]
    if timeouts:
        merged.flush_timeout = min(timeouts)
    overloads = [c.overload_cutoff for c in configs if c.overload_cutoff is not None]
    if overloads:
        merged.overload_cutoff = max(overloads)

    # Cutoff: keep the largest default across applications; if any app
    # wants everything, the kernel captures everything.
    cutoffs = [config.cutoffs.default for config in configs]
    if any(cutoff == SCAP_UNLIMITED_CUTOFF for cutoff in cutoffs):
        merged.cutoffs = CutoffPolicy(SCAP_UNLIMITED_CUTOFF)
    else:
        merged.cutoffs = CutoffPolicy(max(cutoffs))

    # BPF: capture the union; per-application filtering happens at
    # delivery.  (An explicit OR-combined expression would need filter
    # source recomposition; evaluating the disjunction is equivalent.)
    filters = [config.bpf for config in configs]

    class _Union(BPFFilter):
        def __init__(self, parts: List[BPFFilter]):
            self.expression = " or ".join(
                f"({part.expression})" if part.expression else "" for part in parts
            )
            self._parts = parts

        @property
        def is_match_all(self) -> bool:  # type: ignore[override]
            # The disjunction accepts everything iff any part does.
            return any(part.is_match_all for part in self._parts)

        def matches(self, packet) -> bool:  # type: ignore[override]
            return any(part.matches(packet) for part in self._parts)

        def matches_five_tuple(self, five_tuple) -> bool:  # type: ignore[override]
            return any(part.matches_five_tuple(five_tuple) for part in self._parts)

    merged.bpf = _Union(filters)
    return merged


@dataclass
class SharedApplication:
    """One application sharing the capture: its config, callbacks, and
    (after the run) its own worker-pool statistics."""

    name: str
    config: ScapConfig = field(default_factory=ScapConfig)
    callbacks: Callbacks = field(default_factory=Callbacks)
    workers: Optional[WorkerPool] = None

    def wants(self, event: Event) -> bool:
        """Should this application receive ``event``?"""
        if not self.config.bpf.matches_five_tuple(event.stream.five_tuple):
            return False
        if event.event_type != EventType.STREAM_DATA:
            return True
        cutoff = self.config.cutoffs.effective_cutoff(event.stream)
        if cutoff == SCAP_UNLIMITED_CUTOFF:
            return True
        # Deliver only chunks that start below this app's own cutoff —
        # the kernel captured up to the *largest* cutoff of all apps.
        assert event.chunk is not None
        return event.chunk.stream_offset < cutoff


class SharedCaptureRuntime:
    """One kernel capture fanned out to several applications."""

    def __init__(
        self,
        applications: Sequence[SharedApplication],
        core_count: int = 8,
        cost_model: Optional[CostModel] = None,
        locality: Optional[LocalityProfile] = None,
        **runtime_kwargs: Any,
    ):
        if not applications:
            raise ValueError("need at least one application")
        self.applications = list(applications)
        self.cost = cost_model or DEFAULT_COST_MODEL
        self.locality = locality or LocalityProfile()
        self.merged_config = merge_configs([app.config for app in self.applications])
        self.runtime = ScapRuntime(
            config=self.merged_config,
            core_count=core_count,
            cost_model=self.cost,
            locality=self.locality,
            **runtime_kwargs,
        )
        for app in self.applications:
            app.workers = WorkerPool(
                worker_count=app.config.worker_threads,
                cost_model=self.cost,
                locality=self.locality,
                event_queue_capacity=app.config.event_queue_capacity,
                memory=self.runtime.kernel.memory,
                callbacks=app.callbacks,
            )
        # Replace the single-app dispatch with the fan-out.
        self.runtime.workers.dispatch = self._fan_out  # type: ignore[assignment]

    # ------------------------------------------------------------------
    def _fan_out(self, core: int, event: Event, ready_time: float) -> None:
        """Deliver one kernel event to every interested application.

        The chunk's memory is released when the *slowest* interested
        application finishes with it (shared read-only mapping).
        """
        # Every application's interest is decided before any callback runs.
        interested = [app.workers for app in self.applications if app.wants(event)]
        latest_finish = ready_time
        for workers in interested:
            finish = workers.dispatch(core, event, ready_time, release=False)
            latest_finish = max(latest_finish, finish)
        chunk = event.chunk
        if chunk is not None and not chunk.keep:
            self.runtime.kernel.memory.schedule_release(
                latest_finish, chunk.accounted_bytes
            )

    # ------------------------------------------------------------------
    def run(self, workload, rate_bps: float) -> List[RunResult]:
        """Replay once; return one result per application."""
        base = self.runtime.run(workload, rate_bps, name="shared-kernel")
        results = []
        for app in self.applications:
            workers = app.workers
            assert workers is not None
            result = RunResult(
                system=app.name,
                rate_bps=rate_bps,
                duration=base.duration,
                offered_packets=base.offered_packets,
                offered_bytes=base.offered_bytes,
                dropped_packets=base.dropped_packets,
                discarded_packets=base.discarded_packets,
                nic_filter_drops=base.nic_filter_drops,
                delivered_bytes=workers.bytes_delivered,
                delivered_events=workers.events_processed,
                user_utilization=workers.utilization(base.duration),
                softirq_load=base.softirq_load,
                streams_created=base.streams_created,
            )
            results.append(result)
        return results
