"""Per-queue sharding: one capture pipeline per RX queue (§4.2).

This module shards the capture the way multi-queue hardware does:
flows are partitioned across ``shard_count`` RX queues with the NIC's
*symmetric* RSS hash (both directions of a connection land on the same
queue), and each shard runs a full, independent single-queue pipeline
over its own slice of the trace — its own kernel module, stream
memory, and worker.
The shards model the paper's per-core queues; on the host they run
serially, since a thread pool and a process pool both measured slower
than the serial loop (``BENCH_32.json``).

Determinism contract
--------------------
The shards run one after another, in ascending shard order, and the
merged result is a pure fold over their results in that order.  Each
shard is a self-contained simulation whose outcome depends only on its
input slice, so the merged output is the same on every run.  With
``shard_count=1`` the shard's input is the whole trace and its replay
rate is the requested rate, so the run is exactly an unsharded
single-queue capture.

Timeline fidelity
-----------------
:meth:`~repro.traffic.trace.Trace.replay` rescales timestamps by
``native_rate / target_rate``.  A shard's sub-trace carries fewer bytes
over the same span, so replaying it at the full target rate would
compress its timeline more than the unsharded run.  Each shard is
instead replayed at ``rate * shard_native / full_native`` — the same
uniform scale factor as the full trace — so packet interarrivals within
a shard match what that queue would have seen unsharded.

Stream memory is split evenly: the paper's single shared pool becomes
one pool per queue, as in a per-NUMA-node deployment; totals (and PPL
pressure) therefore differ from the unsharded run when shards fill
unevenly — sharding trades global memory sharing for per-queue
independence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional

from ..nic.rss import RSSHasher
from ..results import RunResult
from ..traffic.trace import FlowSpec, PlantedMatch, Trace
from .api import ScapSocket, ScapStats, scap_get_stats

__all__ = [
    "ShardOutcome",
    "ShardedResult",
    "ShardedCapture",
    "partition_trace",
]


def partition_trace(trace: Trace, shard_count: int) -> List[Trace]:
    """Split ``trace`` into per-queue sub-traces via symmetric RSS.

    Every packet of a connection (both directions) lands in the same
    shard; non-IP frames land in shard 0, mirroring the NIC's queue-0
    fallback.  Ground-truth flows are reindexed per shard so planted
    matches keep pointing at their flow.
    """
    if shard_count < 1:
        raise ValueError("need at least one shard")
    # A previous replay may have rescaled timestamps in place; slice on
    # the native timeline so sharding is independent of run history.
    trace.reset_timeline()
    hasher = RSSHasher(shard_count)
    packet_lists: List[List] = [[] for _ in range(shard_count)]
    for packet in trace.packets:
        five_tuple = packet.five_tuple
        shard = 0 if five_tuple is None else hasher.queue_for(five_tuple)
        packet_lists[shard].append(packet)
    flow_lists: List[List[FlowSpec]] = [[] for _ in range(shard_count)]
    for flow in trace.flows:
        shard = hasher.queue_for(flow.five_tuple)
        new_index = len(flow_lists[shard])
        flow_lists[shard].append(
            FlowSpec(
                index=new_index,
                five_tuple=flow.five_tuple,
                protocol=flow.protocol,
                client_bytes=flow.client_bytes,
                server_bytes=flow.server_bytes,
                start_time=flow.start_time,
                packet_count=flow.packet_count,
                planted=[
                    PlantedMatch(
                        new_index,
                        match.direction,
                        match.stream_offset,
                        match.pattern,
                    )
                    for match in flow.planted
                ],
            )
        )
    return [
        Trace(packet_lists[i], flow_lists[i], name=f"{trace.name}[shard{i}]")
        for i in range(shard_count)
    ]


@dataclass
class ShardOutcome:
    """One shard's run: its queue index and the pipeline's outputs."""

    index: int
    trace_name: str
    packets: int
    result: RunResult
    stats: ScapStats


@dataclass
class ShardedResult:
    """A sharded capture's merged measurements plus per-shard detail."""

    result: RunResult
    stats: ScapStats
    shards: List[ShardOutcome] = field(default_factory=list)

    @property
    def shard_count(self) -> int:
        return len(self.shards)


class ShardedCapture:
    """Run one capture as ``shard_count`` independent per-queue pipelines.

    ``app_factory`` (optional) builds a fresh application per shard —
    each shard attaches its own instance.  ``socket_kwargs`` pass
    through to each shard's :class:`~repro.core.api.ScapSocket` (e.g.
    ``batch_size``, ``reassembly_mode``); ``core_count`` is fixed at 1
    per shard — the shard *is* the queue.
    """

    def __init__(
        self,
        trace: Trace,
        shard_count: int,
        rate_bps: float,
        memory_size: int,
        app_factory: Optional[Callable[[], Any]] = None,
        **socket_kwargs: Any,
    ):
        if shard_count < 1:
            raise ValueError("need at least one shard")
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if memory_size < shard_count:
            raise ValueError("memory_size must cover at least one byte per shard")
        if "core_count" in socket_kwargs:
            raise ValueError("core_count is fixed at 1 per shard")
        self.trace = trace
        self.shard_count = shard_count
        self.rate_bps = rate_bps
        self.memory_size = memory_size
        self.app_factory = app_factory
        self.socket_kwargs = socket_kwargs

    # ------------------------------------------------------------------
    def _shard_rate(self, shard_trace: Trace) -> float:
        """The replay rate giving this shard the full trace's time scale."""
        full_native = self.trace.native_rate_bps
        shard_native = shard_trace.native_rate_bps
        if full_native in (0.0, float("inf")) or shard_native in (
            0.0,
            float("inf"),
        ):
            return self.rate_bps
        if shard_native == full_native:
            # The shard carries the whole trace (shard_count=1, or one
            # hot queue): return the requested rate exactly, not the
            # float-rounded identity product.
            return self.rate_bps
        return self.rate_bps * shard_native / full_native

    def _run_shard(self, index: int, shard_trace: Trace, name: str) -> ShardOutcome:
        """Run one shard's single-queue pipeline over its sub-trace."""
        from ..apps import attach_app  # repro.apps imports repro.core

        socket = ScapSocket(
            shard_trace,
            memory_size=self.memory_size // self.shard_count,
            rate_bps=self._shard_rate(shard_trace),
            core_count=1,
            **self.socket_kwargs,
        )
        if self.app_factory is not None:
            attach_app(socket, self.app_factory())
        result = socket.start_capture(name=f"{name}-shard{index}")
        stats = scap_get_stats(socket)
        socket.close()
        return ShardOutcome(
            index=index,
            trace_name=shard_trace.name,
            packets=len(shard_trace),
            result=result,
            stats=stats,
        )

    def run(self, name: str = "sharded") -> ShardedResult:
        """Run every shard in ascending shard order and merge."""
        shards = [
            self._run_shard(index, shard_trace, name)
            for index, shard_trace in enumerate(
                partition_trace(self.trace, self.shard_count)
            )
        ]
        merged = _merge_results(
            [outcome.result for outcome in shards], self.rate_bps, name
        )
        stats = _merge_stats([outcome.stats for outcome in shards])
        return ShardedResult(result=merged, stats=stats, shards=shards)


# ----------------------------------------------------------------------
# Deterministic merges (ascending shard order throughout)
# ----------------------------------------------------------------------
_ADDITIVE_RESULT_FIELDS = (
    "offered_packets",
    "offered_bytes",
    "dropped_packets",
    "discarded_packets",
    "nic_filter_drops",
    "delivered_bytes",
    "delivered_events",
    "streams_created",
    "streams_delivered",
    "streams_lost",
    "streams_total_ground_truth",
    "matches_found",
    "matches_planted",
)


def _merge_dicts(parts: List[Dict]) -> Dict:
    """Key-wise sums with sorted keys, so dict order is deterministic."""
    keys = sorted({key for part in parts for key in part})
    return {
        key: sum(part.get(key, 0) for part in parts) for key in keys
    }


def _merge_results(
    results: List[RunResult], rate_bps: float, name: str
) -> RunResult:
    merged = RunResult(
        system=f"{name}[{len(results)} shards]",
        rate_bps=rate_bps,
        duration=max((r.duration for r in results), default=0.0),
    )
    for field_name in _ADDITIVE_RESULT_FIELDS:
        setattr(
            merged,
            field_name,
            sum(getattr(r, field_name) for r in results),
        )
    # Utilizations: duration-weighted means — a shard busy for its whole
    # (short) slice should not dominate the merged load figure.
    total_duration = sum(r.duration for r in results)
    if total_duration > 0:
        merged.user_utilization = (
            sum(r.user_utilization * r.duration for r in results) / total_duration
        )
        merged.softirq_load = (
            sum(r.softirq_load * r.duration for r in results) / total_duration
        )
    merged.memory_peak_fraction = max(
        (r.memory_peak_fraction for r in results), default=0.0
    )
    merged.packets_by_priority = _merge_dicts(
        [r.packets_by_priority for r in results]
    )
    merged.drops_by_priority = _merge_dicts([r.drops_by_priority for r in results])
    misses = [
        (r.cache_misses_per_packet, r.offered_packets)
        for r in results
        if r.cache_misses_per_packet is not None and r.offered_packets
    ]
    if misses:
        weight = sum(packets for _, packets in misses)
        merged.cache_misses_per_packet = (
            sum(value * packets for value, packets in misses) / weight
        )
    merged.extra = _merge_dicts([r.extra for r in results])
    return merged


def _merge_stats(parts: List[ScapStats]) -> ScapStats:
    """Sum a list of ScapStats field-wise (dicts key-wise, keys sorted)."""
    merged = ScapStats()
    for stats_field in fields(ScapStats):
        first = getattr(merged, stats_field.name)
        if isinstance(first, dict):
            setattr(
                merged,
                stats_field.name,
                _merge_dicts([getattr(part, stats_field.name) for part in parts]),
            )
        else:
            setattr(
                merged,
                stats_field.name,
                sum(getattr(part, stats_field.name) for part in parts),
            )
    return merged
