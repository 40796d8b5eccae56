"""The Scap runtime: NIC + kernel module + workers, driven by a replay.

This composes the whole monitoring sensor for one Scap socket:

* the :class:`~repro.nic.nic.SimulatedNIC` classifies each packet
  (FDIR drop/steer first, then RSS) at zero host cost;
* the per-core softirq :class:`~repro.kernelsim.server.QueueServer`
  charges the kernel module's cycles and bounds the RX ring;
* events created by the kernel become work for the
  :class:`~repro.core.workers.WorkerPool`;
* optional dynamic load balancing redirects streams from overloaded
  cores via FDIR steering filters.

``run(workload, rate)`` replays a workload at a target bit-rate and
reduces everything to a :class:`~repro.bench.results.RunResult`.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Tuple

from ..results import RunResult, ScapStats
from ..kernelsim.cache import LocalityProfile
from ..kernelsim.costmodel import DEFAULT_COST_MODEL, CostModel
from ..kernelsim.host import Host
from ..nic.batch import (
    PacketBatch,
    VERDICT_DROP_FCS,
    VERDICT_DROP_FDIR,
    VERDICT_STEERED,
)
from ..nic.fdir import FdirFilter
from ..nic.nic import SimulatedNIC
from ..nic.rss import SYMMETRIC_RSS_KEY
from ..observability import (
    NULL_OBSERVABILITY,
    Observability,
    ProfileReport,
    TelemetryRing,
)
from ..sanitizers import SanitizerContext, sanitizers_from_env
from .config import ScapConfig
from .events import Event, EventType
from .kernel_module import ScapKernelModule
from .loadbalance import LoadBalancer
from .workers import Callbacks, WorkerPool

__all__ = ["ScapRuntime", "DEFAULT_BATCH_SIZE"]

#: Packets per batch when the caller does not pass ``batch_size``.
DEFAULT_BATCH_SIZE = 64


class ScapRuntime:
    """One Scap socket's full capture pipeline on the simulated host."""

    def __init__(
        self,
        config: Optional[ScapConfig] = None,
        core_count: int = 8,
        cost_model: Optional[CostModel] = None,
        locality: Optional[LocalityProfile] = None,
        rss_key: bytes = SYMMETRIC_RSS_KEY,
        fdir_capacity: int = 8192,
        max_streams: Optional[int] = None,
        enable_load_balancing: bool = False,
        observability: Optional[Observability] = None,
        sanitizers: Optional["SanitizerContext"] = None,
        fault_injector: Optional[object] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        telemetry: Optional[TelemetryRing] = None,
    ):
        self.config = config or ScapConfig()
        self.config.validate()
        self.cost = cost_model or DEFAULT_COST_MODEL
        self.locality = locality or LocalityProfile()
        self.obs = observability or NULL_OBSERVABILITY
        # Opt-in runtime invariant checkers: explicit argument wins,
        # otherwise SCAP_SANITIZE=1 turns them on for every runtime.
        self.sanitizers = (
            sanitizers if sanitizers is not None else sanitizers_from_env(self.obs)
        )
        self.fault_injector = fault_injector
        self.host = Host(core_count, self.cost)
        self.nic = SimulatedNIC(
            queue_count=core_count, rss_key=rss_key, fdir_capacity=fdir_capacity,
            observability=self.obs, sanitizers=self.sanitizers,
        )
        self.callbacks = Callbacks()
        self.balancer = LoadBalancer(core_count) if enable_load_balancing else None
        self._pending_events: List[Tuple[int, Event]] = []
        self.kernel = ScapKernelModule(
            self.config,
            self.nic,
            self.cost,
            locality=self.locality,
            emit_event=self._pending_events.append if self.balancer is None else self._collect_event,
            max_streams=max_streams,
            observability=self.obs,
            sanitizers=self.sanitizers,
            fault_injector=fault_injector,
        )
        self.workers = WorkerPool(
            worker_count=self.config.worker_threads,
            cost_model=self.cost,
            locality=self.locality,
            event_queue_capacity=self.config.event_queue_capacity,
            memory=self.kernel.memory,
            callbacks=self.callbacks,
            observability=self.obs,
            fault_injector=fault_injector,
        )
        registry = self.obs.registry
        self._m_ring_drops = registry.counter(
            "scap_ring_drops_total", "packets rejected by a full RX ring"
        )
        self.ring_drops = 0
        self.packets_offered = 0
        self.bytes_offered = 0
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        #: Packets per batch.  Size 1 is the per-packet degenerate case:
        #: classify right before each softirq, flush after each packet.
        self.batch_size = batch_size
        #: Optional cadenced registry snapshots, clocked on *simulated*
        #: packet time (never the wall clock — SC001 discipline).  Only
        #: library runs use this; the daemon samples from a wall-clock
        #: timer on its loop thread.
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    def _collect_event(self, item: Tuple[int, Event]) -> None:
        """The kernel's event sink when there is a load balancer: it runs
        inside the softirq of the packet that emitted the event."""
        self._pending_events.append(item)
        core, event = item
        if event.event_type == EventType.STREAM_CREATED:
            target = self.balancer.on_stream_created(core)
            if target is not None:
                self._redirect_stream(event, core, target)
        elif event.event_type == EventType.STREAM_TERMINATED:
            # Termination fires once per direction; balance on client.
            if event.stream.direction == 0:
                self.balancer.on_stream_terminated(core)

    def _redirect_stream(self, event: Event, source: int, target: int) -> None:
        """Install FDIR steering filters moving a new stream to ``target``."""
        five_tuple = event.stream.five_tuple
        for directional in (five_tuple, five_tuple.reversed()):
            self.nic.fdir.add(
                FdirFilter(
                    five_tuple=directional,
                    action_queue=target,
                    timeout_at=event.created_at + self.config.inactivity_timeout,
                )
            )
        pair = self.kernel.flows.get(five_tuple)
        if pair is not None:
            pair.core = target
        self.balancer.moved(source, target)

    # ------------------------------------------------------------------
    def process_batch(self, batch: PacketBatch) -> None:
        """Run one batch through offload → softirq → kernel → workers.

        The offload stage fills the batch's verdict vectors up front; the
        loop then consumes packets in exact arrival order.  If the FDIR
        table mutates mid-batch (cutoff filter install, load-balance
        steer, timeout removal), the unconsumed tail is re-classified,
        so every packet is handled under the verdict it would get if
        classified immediately before its softirq — which makes every
        simulated effect (admission, cycles, events, hooks) independent
        of the batch size.  Metrics are kept as plain numbers (here, in
        the kernel's batch context and in the pool) and published once at
        the batch's end, so a mid-capture reader sees values as of the
        last batch boundary, at most ``batch_size`` packets old.
        """
        packets = batch.packets
        count = len(packets)
        if not count:
            return
        nic = self.nic
        fdir = nic.fdir
        version = nic.classify_batch(batch)
        kernel = self.kernel
        ctx = kernel.begin_batch()
        handle = kernel.handle_batch_packet
        stage_cycles = kernel.stage_cycles
        servers = self.host.softirq
        queue_count = nic.queue_count
        # Same operation as ``cost.seconds`` — division, not a cached
        # reciprocal, so service times are bit-identical per packet.
        core_hz = self.cost.core_hz
        enabled = self.obs.enabled
        queues = batch.queues
        verdicts = batch.verdicts
        pending = self._pending_events
        pending.clear()
        dispatch = self.workers.dispatch
        service_seconds = ctx.service
        stages = ctx.stages
        ring_wait = stages[0].wait
        depth = ctx.depth
        # Local NIC/runtime accounting, flushed once per batch.
        fcs_errors = 0
        fdir_drops = 0
        steered = 0
        ring_drops = 0
        bytes_offered = batch.total_wire_bytes()
        per_queue = [0] * queue_count
        # zip iterates the live verdict/queue lists, so a mid-batch
        # reclassification of the tail is seen by later iterations.
        for index, (packet, verdict, queue) in enumerate(zip(packets, verdicts, queues)):
            if verdict == VERDICT_DROP_FCS:
                fcs_errors += 1
                continue
            if verdict == VERDICT_DROP_FDIR:
                fdir_drops += 1
                continue
            if verdict == VERDICT_STEERED:
                steered += 1
            per_queue[queue] += 1
            server = servers[queue]
            now = packet.timestamp
            if not server.would_accept(now, 1):
                ring_drops += 1
                continue
            cycles = handle(packet, queue, ctx)
            service = cycles / core_hz
            kernel_finish = server.push(now, 1, service)
            if enabled:
                service_seconds.tally[service] += 1
                service_seconds.running += service
                depth[queue] = server.occupancy(now)
                # Stages that charged nothing record no sample.
                for stage, cyc in zip(stages, stage_cycles):
                    if cyc:
                        seconds = cyc / core_hz
                        histogram = stage.service
                        histogram.tally[seconds] += 1
                        histogram.running += seconds
                        stage.per_core[queue] += seconds
                # The packet's wait in the RX ring before its softirq ran;
                # float rounding can make it a hair negative: no sample.
                wait = kernel_finish - service - now
                if wait >= 0.0:
                    ring_wait.tally[wait] += 1
                    ring_wait.running += wait
            if pending:
                for core, event in pending:
                    dispatch(core, event, kernel_finish)
                pending.clear()
            if fdir.version != version:
                # The kernel (or load balancer) changed the filter table
                # mid-batch: hardware verdicts for the unconsumed tail
                # may have changed.
                version = nic.classify_batch(batch, index + 1)
        kernel.end_batch(ctx)
        if enabled:
            self.workers.end_batch()
        self.packets_offered += count
        self.bytes_offered += bytes_offered
        self.ring_drops += ring_drops
        nic.apply_batch_stats(
            received=count,
            fcs_errors=fcs_errors,
            fdir_drops=fdir_drops,
            steered=steered,
            matched=fdir_drops + steered,
            per_queue=per_queue,
        )
        if enabled:
            if ring_drops:
                self._m_ring_drops.inc(ring_drops)

    def finalize(self, end_time: float) -> None:
        """Drain remaining flows at end of capture; publish their metrics.

        The drain's metrics are published like one more batch's."""
        self._pending_events.clear()
        self.kernel.expire_and_drain(end_time)
        for core, event in self._pending_events:
            self.workers.dispatch(core, event, end_time)
        self._pending_events.clear()
        if self.obs.enabled:
            self.kernel.end_batch(self.kernel.begin_batch())
            self.workers.end_batch()
        if self.sanitizers is not None:
            # Teardown invariant: every byte charged to stream memory
            # must have been returned by now (§5.3 accounting).
            self.sanitizers.memory.check_teardown(self.kernel.memory)

    # ------------------------------------------------------------------
    def run(self, workload, rate_bps: float, name: str = "scap") -> RunResult:
        """Replay ``workload`` at ``rate_bps`` through this runtime."""
        if self.fault_injector is not None:
            workload = self.fault_injector.wrap_workload(workload)
        last_time = 0.0
        # Pre-resolved guard: the cadence check runs once per batch, so
        # the disabled path must stay a single None test.
        telemetry = self.telemetry
        size = self.batch_size
        replay_batches = getattr(workload, "replay_batches", None)
        if replay_batches is not None:
            batches = replay_batches(rate_bps, size)
        else:
            # Workloads without a native batched replay: regroup the
            # per-packet generator.
            replay = workload.replay(rate_bps)
            batches = iter(lambda: list(islice(replay, size)), [])
        for packets in batches:
            self.process_batch(PacketBatch(packets))
            last_time = packets[-1].timestamp
            if telemetry is not None:
                telemetry.maybe_sample(last_time)
        if telemetry is not None:
            # Close the run with one unconditional sample so short runs
            # (shorter than the cadence) still yield a final snapshot.
            telemetry.sample(last_time)
        self.finalize(last_time + self.config.inactivity_timeout + 1.0)
        return self.result(rate_bps, name=name)

    def busy_seconds(self) -> float:
        """Total simulated busy time across softirq cores and workers."""
        return (
            sum(server.busy_seconds for server in self.host.softirq)
            + self.workers.busy_seconds()
        )

    def profile(self) -> ProfileReport:
        """The per-stage critical-path breakdown of this run.

        Coverage is scored against the busy time measured at the
        virtual-time servers; with observability enabled for the whole
        run the stage attributions reconstruct it (nearly) exactly.
        """
        return self.obs.profiler.report(busy_seconds=self.busy_seconds())

    def aggregate(self) -> ScapStats:
        """Reduce all counters to totals — the single aggregation path.

        ``pkts_dropped``/``pkts_discarded`` are derived from
        :meth:`KernelCounters.unintentional_drops` /
        :meth:`KernelCounters.early_discards` plus the runtime-level
        contributions (RX-ring rejections, NIC hardware drops); every
        consumer of totals goes through here.  The socket-level
        extension fields (FDIR, store, faults) are left at zero for
        ``scap_get_stats`` to fill.
        """
        counters = self.kernel.counters
        agg = ScapStats(
            pkts_received=counters.packets_seen,
            pkts_dropped=(
                self.ring_drops
                + self.nic.stats.fcs_errors
                + counters.unintentional_drops()
            ),
            pkts_discarded=self.nic.stats.dropped_at_nic + counters.early_discards(),
            bytes_received=counters.bytes_seen,
            bytes_delivered=self.workers.bytes_delivered,
            streams_seen=self.kernel.flows.created_total,
            events_processed=self.workers.events_processed,
            ppl_drops_by_priority=dict(counters.ppl_drops_by_priority),
            nic_fcs_errors=self.nic.stats.fcs_errors,
        )
        packets_family = self.obs.registry.get("scap_core_packets_total")
        bytes_family = self.obs.registry.get("scap_core_bytes_total")
        drops_family = self.obs.registry.get("scap_core_drops_total")
        if self.obs.enabled and packets_family is not None:
            for (core,), child in packets_family.samples():
                agg.per_core_packets[int(core)] = int(child.value)
            for (core,), child in bytes_family.samples():
                agg.per_core_bytes[int(core)] = int(child.value)
            for (core, _reason), child in drops_family.samples():
                agg.per_core_drops[int(core)] = (
                    agg.per_core_drops.get(int(core), 0) + int(child.value)
                )
        return agg

    def result(self, rate_bps: float, name: str = "scap") -> RunResult:
        """Reduce all counters to a RunResult for this run."""
        duration = (
            self.bytes_offered * 8 / rate_bps if rate_bps > 0 else 0.0
        )
        counters = self.kernel.counters
        agg = self.aggregate()
        result = RunResult(
            system=name,
            rate_bps=rate_bps,
            duration=duration,
            offered_packets=self.packets_offered,
            offered_bytes=self.bytes_offered,
            dropped_packets=agg.pkts_dropped,
            discarded_packets=agg.pkts_discarded,
            nic_filter_drops=self.nic.stats.dropped_at_nic,
            delivered_bytes=agg.bytes_delivered,
            delivered_events=agg.events_processed,
            user_utilization=self.workers.utilization(duration),
            softirq_load=self.host.softirq_load(duration),
            streams_created=self.kernel.flows.created_total,
            packets_by_priority=dict(counters.packets_by_priority),
            drops_by_priority=dict(counters.ppl_drops_by_priority),
            memory_peak_fraction=self.kernel.memory.peak_used
            / self.kernel.memory.capacity,
        )
        result.extra["events_dropped"] = float(self.workers.events_dropped)
        result.extra["fdir_installs"] = float(counters.fdir_installs)
        result.extra["stored_bytes"] = float(counters.stored_bytes)
        result.extra["packets_to_memory"] = float(counters.packets_seen)
        return result
