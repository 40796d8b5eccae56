"""The Scap kernel module (§4, §5).

This is the in-kernel half of Scap, run per packet inside the simulated
software-interrupt handler of the core the NIC steered the packet to:

* locate/create the ``stream_t`` pair in the flow table;
* track the TCP state machine (handshake, FIN/RST, inactivity);
* normalize IP fragments and reassemble TCP in the configured mode and
  per-stream target policy;
* enforce the stream cutoff (and install NIC FDIR drop filters when a
  stream passes it — the subzero-copy path);
* apply Prioritized Packet Loss against the shared memory pool;
* write accepted payload into per-stream chunk blocks and emit
  creation/data/termination events to the per-core queues.

Every operation charges cycles from the cost model; the caller (the
runtime) turns the accumulated cycles into softirq service time.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..kernelsim.cache import LocalityProfile
from ..kernelsim.costmodel import CostModel
from ..netstack.fragments import IPFragmentReassembler
from ..netstack.packet import Packet
from ..netstack.tcp import SEQ_MOD, TCPFlags, seq_diff
from ..nic.fdir import FDIR_DROP, FLEX_OFFSET_TCP_FLAGS, FdirFilter
from ..nic.nic import SimulatedNIC
from ..observability import (
    HOOK_CUTOFF_REACHED,
    HOOK_FDIR_INSTALL,
    HOOK_FDIR_TIMEOUT,
    HOOK_PPL_DROP,
    HOOK_STREAM_CREATED,
    HOOK_STREAM_TERMINATED,
    NULL_OBSERVABILITY,
    Histogram,
    Observability,
)
from .config import ScapConfig
from .constants import (
    SCAP_TCP_STRICT,
    SCAP_UNLIMITED_CUTOFF,
    StreamError,
    StreamStatus,
)
from .events import DataReason, Event, EventType
from .flowtable import FlowRecord, FlowTable, StreamPair
from .memory import Chunk, ChunkAssembler, StreamMemory
from .packet_delivery import PacketRecord
from .ppl import PrioritizedPacketLoss
from .reassembly import ReassemblyInstruments, TCPDirectionReassembler
from .stream import StreamDescriptor

__all__ = ["ScapKernelModule", "KernelCounters"]

# Indices into ``ScapKernelModule.stage_cycles`` — same order as
# ``repro.observability.profiler.KERNEL_STAGES``.
_ST_RECV = 0      # packet_receive: softirq base, BPF, FDIR management
_ST_LOOKUP = 1    # flow_lookup: flow-table hashing + stream-state updates
_ST_REASM = 2     # reassembly: defrag, segment ordering, payload copy
_ST_ENQ = 3       # event_enqueue: event construction


@dataclass
class KernelCounters:
    """Aggregate counters across all cores (experiment bookkeeping)."""

    packets_seen: int = 0  # reached the softirq handler
    bytes_seen: int = 0
    filtered_out: int = 0  # failed the socket BPF filter
    dropped_ppl: int = 0
    dropped_memory: int = 0  # pool completely full
    discarded_cutoff_packets: int = 0
    discarded_cutoff_bytes: int = 0
    discarded_non_established: int = 0
    stored_bytes: int = 0
    fdir_installs: int = 0
    fdir_removals: int = 0
    fragment_packets: int = 0
    # Per-priority accounting for the PPL experiments.
    packets_by_priority: Dict[int, int] = field(default_factory=dict)
    ppl_drops_by_priority: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # The single aggregation path.  Every consumer (RunResult reduction,
    # scap_get_stats, exporters) derives its drop/discard totals from
    # these two methods instead of re-summing fields ad hoc, so the
    # breakdown cannot diverge between callers or cores.
    def unintentional_drops(self) -> int:
        """Packets lost to overload inside the kernel (PPL + pool full)."""
        return self.dropped_ppl + self.dropped_memory

    def early_discards(self) -> int:
        """Packets discarded on purpose inside the kernel (filter,
        cutoff, strict-mode normalization)."""
        return (
            self.filtered_out
            + self.discarded_cutoff_packets
            + self.discarded_non_established
        )


class _BatchContext:
    """One batch's constants, and the plain numbers its metrics keep.

    Every hot-path metric of the softirq is kept here while the batch
    runs (per-core counts, each RX ring's last depth; service times,
    ring waits and stage attributions in their histograms' tallies) and
    published once by :meth:`ScapKernelModule.end_batch`, with the PPL's
    and the pool's: counters add the batch's total, gauges take its last
    value, histograms add its bucket counts and its sum in arrival
    order.  A reader sees values as of the last batch boundary.
    """

    __slots__ = (
        "bpf_match_all",
        "core_packets",
        "core_bytes",
        "enabled",
        "base_cycles",
        "lookup_hit_cycles",
        "service",
        "stages",
        "depth",
    )

    def __init__(self, service: Histogram, stages: Tuple, cores: int):
        self.bpf_match_all = False
        self.core_packets: Dict[int, int] = defaultdict(int)
        self.core_bytes: Dict[int, int] = defaultdict(int)
        self.enabled = False
        self.base_cycles = 0.0
        self.lookup_hit_cycles = 0.0
        self.service = service  # softirq service seconds
        self.stages = stages  # KERNEL_STAGES'; the first one's wait is the RX ring's
        self.depth: List[Optional[float]] = [None] * cores  # None: no packet this batch


class ScapKernelModule:
    """Functional + cost model of the kernel half of Scap.

    ``emit_event`` is provided by the runtime and takes one
    ``(core, event)`` item: the runtime's pending-event list's
    ``append``, or a sink that also feeds the load balancer.  It is
    called while still "inside" the softirq, so the runtime delivers the
    event to its worker queue once the softirq service completes.
    """

    def __init__(
        self,
        config: ScapConfig,
        nic: SimulatedNIC,
        cost_model: CostModel,
        locality: Optional[LocalityProfile] = None,
        emit_event: Optional[Callable[[Tuple[int, Event]], None]] = None,
        max_streams: Optional[int] = None,
        observability: Optional[Observability] = None,
        sanitizers: Optional[object] = None,
        fault_injector: Optional[object] = None,
    ):
        config.validate()
        self.config = config
        self.nic = nic
        self.cost = cost_model
        self.locality = locality or LocalityProfile()
        self.emit_event = emit_event or (lambda item: None)
        self.obs = observability or NULL_OBSERVABILITY
        self._san = sanitizers
        self.flows = FlowTable(max_streams=max_streams, sanitizers=sanitizers)
        self.memory = StreamMemory(
            config.memory_size,
            observability=self.obs,
            sanitizers=sanitizers,
            fault_injector=fault_injector,
        )
        self.ppl = PrioritizedPacketLoss(
            base_threshold=config.base_threshold,
            overload_cutoff=config.overload_cutoff,
            observability=self.obs,
            sanitizers=sanitizers,
        )
        self.counters = KernelCounters()
        registry = self.obs.registry
        self._m_core_packets = registry.counter(
            "scap_core_packets_total", "packets handled by each core's softirq",
            labels=("core",),
        )
        self._m_core_bytes = registry.counter(
            "scap_core_bytes_total", "wire bytes handled by each core's softirq",
            labels=("core",),
        )
        self._m_core_drops = registry.counter(
            "scap_core_drops_total",
            "packets dropped per core, by reason (ppl | memory)",
            labels=("core", "reason"),
        )
        self._m_fdir_doublings = registry.counter(
            "scap_fdir_timeout_doublings_total",
            "FDIR filter re-installs with a doubled timeout interval",
        )
        depth_family = registry.gauge(
            "scap_softirq_queue_depth",
            "RX-ring occupancy per core at packet arrival",
            labels=("core",),
        )
        self._m_softirq_depth = [depth_family.labels(core) for core in range(nic.queue_count)]
        self._batch_ctx = _BatchContext(
            registry.histogram(
                "scap_softirq_service_seconds",
                "softirq service time per packet, in simulated seconds",
            ),
            self.obs.profiler.kernel_stages,
            nic.queue_count,
        )
        # Pre-resolved per-core children: one dict hit on first use,
        # then the enabled path is a bare Counter.inc.
        self._core_metrics: Dict[int, Tuple] = {}
        self._reassembly: Optional[ReassemblyInstruments] = None  # at the first TCP direction
        self._fragments = IPFragmentReassembler()
        self._filter_timeouts: List[Tuple[float, int, FdirFilter, StreamPair]] = []
        self._filter_seq = 0
        self._last_sweep = 0.0
        # Charged cycles for the packet currently being processed, with
        # a per-stage breakdown (indices above) read by the runtime to
        # feed the stage profiler.  Both are maintained unconditionally:
        # the split costs one list index per charge whether or not
        # observability is on, keeping the two paths identical.
        self._cycles = 0.0
        self.stage_cycles: List[float] = [0.0, 0.0, 0.0, 0.0]
        self._cutoff_trivial = False

    # ------------------------------------------------------------------
    # Per-core metric handles
    # ------------------------------------------------------------------
    def _core(self, core: int) -> Tuple:
        """(packets, bytes, ppl_drops, memory_drops) counters for ``core``."""
        handles = self._core_metrics.get(core)
        if handles is None:
            handles = (
                self._m_core_packets.labels(core),
                self._m_core_bytes.labels(core),
                self._m_core_drops.labels(core, "ppl"),
                self._m_core_drops.labels(core, "memory"),
            )
            self._core_metrics[core] = handles
        return handles

    # ------------------------------------------------------------------
    # Cycle charging
    # ------------------------------------------------------------------
    def _charge(self, stage: int, cycles: float) -> None:
        """Charge softirq cycles, attributed to one kernel stage."""
        self._cycles += cycles
        self.stage_cycles[stage] += cycles

    # ------------------------------------------------------------------
    # Entry point — the batch protocol:
    # begin_batch -> handle_batch_packet* -> end_batch
    # ------------------------------------------------------------------
    def begin_batch(self) -> _BatchContext:
        """Prepare (and return) the batch context for a batch of packets.

        Refreshes the per-batch constants (match-all BPF, trivial cutoff
        policy, folded lookup charge).
        """
        ctx = self._batch_ctx
        ctx.bpf_match_all = self.config.bpf.is_match_all
        self._cutoff_trivial = self.config.cutoffs.is_trivial
        ctx.enabled = self.obs.enabled
        cost = self.cost
        ctx.base_cycles = cost.softirq_per_packet
        # The hit path folds hash_lookup + stream_update into one add;
        # cost constants are small exactly-representable floats, so the
        # grouping cannot change the accumulated total.
        ctx.lookup_hit_cycles = cost.hash_lookup + cost.stream_update
        return ctx

    def end_batch(self, ctx: _BatchContext) -> None:
        """Publish the batch's metrics (see :class:`_BatchContext`)."""
        if not ctx.enabled:
            return
        for core, count in ctx.core_packets.items():
            self._core(core)[0].inc(count)
        for core, nbytes in ctx.core_bytes.items():
            self._core(core)[1].inc(nbytes)
        ctx.core_packets.clear()
        ctx.core_bytes.clear()
        ctx.service.publish()
        for stage in ctx.stages:
            stage.publish()
        depth = ctx.depth
        for queue, value in enumerate(depth):
            if value is not None:
                self._m_softirq_depth[queue].set(value)
                depth[queue] = None
        self.ppl.end_batch()
        self.memory.end_batch()

    def handle_batch_packet(self, packet: Packet, core: int, ctx: _BatchContext) -> float:
        """Process one packet of a batch on ``core``; return cycles charged.

        One flow-table lookup on the packet's five-tuple (for a
        fragment, the reassembled datagram's) yields the direction's
        whole record (stream, reassembler, assembler, label).  A
        match-all BPF is skipped per batch.  None of this may be
        observable: counters, trace hooks, sanitizer calls and charged
        cycles must not depend on where the batch boundaries fall.
        """
        now = packet.timestamp
        cost = self.cost
        stages = self.stage_cycles
        # Inlined _charge(_ST_RECV, softirq_per_packet) on fresh stages.
        base = ctx.base_cycles
        self._cycles = base
        stages[0] = base
        stages[1] = stages[2] = stages[3] = 0.0
        counters = self.counters
        counters.packets_seen += 1
        counters.bytes_seen += packet.wire_len
        if ctx.enabled:
            ctx.core_packets[core] += 1
            ctx.core_bytes[core] += packet.wire_len
        if now - self._last_sweep >= 0.01:  # housekeeping cadence
            self._sweep(now, core)

        if not ctx.bpf_match_all and not self.config.bpf.matches(packet):
            # Early in-kernel discard: headers touched, nothing copied.
            counters.filtered_out += 1
            self._charge(_ST_RECV, 40.0)
            return self._cycles

        ip = packet.ip
        # IPv4Header.is_fragment, inlined; pinned by test_kernel_module.py.
        if ip is not None and (ip.more_fragments or ip.fragment_offset != 0):
            counters.fragment_packets += 1
            self._charge(_ST_REASM, cost.reassembly_per_segment)
            whole = self._fragments.push(packet)
            if whole is None:
                return self._cycles
            packet = whole

        five_tuple = packet.five_tuple
        if five_tuple is None:
            return self._cycles  # non-IP frames are ignored by Scap

        flows = self.flows
        record = flows.lookup(five_tuple)
        if record is None:
            self._cycles += cost.hash_lookup  # _charge(_ST_LOOKUP, ...), inlined
            stages[1] += cost.hash_lookup
            tcp = packet.tcp
            if (
                tcp is not None
                and not packet.payload
                and not tcp.syn
                and not tcp.fin
                and not tcp.rst
            ):
                # A bare ACK for a flow we are not tracking (e.g. the
                # final ACK of a connection just torn down): no stream
                # state.
                return self._cycles
            pair, _, evicted = flows.lookup_or_create(five_tuple, now)
            for victim in evicted:
                self._terminate(victim, now, victim.core, StreamStatus.TIMED_OUT)
            pair.core = core
            self._cycles += cost.stream_update
            stages[1] += cost.stream_update
            self._emit(core, Event(EventType.STREAM_CREATED, pair.client, now))
            if self.obs.enabled:
                self.obs.trace.emit(
                    now, HOOK_STREAM_CREATED, core=core,
                    five_tuple=str(pair.client.five_tuple),
                )
            # The packet that creates a pair defines its client direction.
            record = pair.records[0]
            self._cycles += cost.stream_update
            stages[1] += cost.stream_update
        else:
            pair = record.pair
            # LRU refresh; hash_lookup + stream_update folded into one
            # charge.
            flows.touch(pair, now)
            lookup_cycles = ctx.lookup_hit_cycles
            self._cycles += lookup_cycles
            stages[1] += lookup_cycles
        stream = record.stream
        stats = stream.stats
        size = len(packet.payload)  # the one measurement, passed down
        stats.pkts += 1
        stats.bytes += size
        stats.end = now
        if stats.start == 0.0:
            stats.start = now
        by_priority = counters.packets_by_priority
        priority = stream.priority
        by_priority[priority] = by_priority.get(priority, 0) + 1

        tcp = packet.tcp
        if tcp is not None:
            if tcp.syn or tcp.fin or tcp.rst:
                self._handle_tcp(record, packet, size, now, core)
            else:
                # Established data or a bare ACK: _handle_tcp minus the
                # handshake/termination branches it would fall through.
                if size:
                    self._handle_tcp_payload(record, packet, size, now, core)
                if stream.flush_timeout is not None or self.config.flush_timeout is not None:
                    self._maybe_flush_timeout(record, now, core)
        elif packet.udp is not None:
            self._handle_payload(record, packet, size, now, core)
            self._maybe_flush_timeout(record, now, core)
        else:
            # Other IP protocols: no reassembly, each packet delivered
            # for processing on its own (§2.3).
            self._handle_payload(record, packet, size, now, core)
            assembler = record.assembler
            if assembler is not None and assembler.pending_bytes:
                chunk = assembler.flush(now)
                if chunk is not None:
                    self._emit_data(core, stream, chunk, DataReason.CHUNK_FULL, now)
        return self._cycles

    # ------------------------------------------------------------------
    # TCP handling
    # ------------------------------------------------------------------
    def _reassembler_for(self, record: FlowRecord) -> TCPDirectionReassembler:
        reassembler = record.reassembler
        if reassembler is None:
            stream = record.stream
            if self._reassembly is None:
                self._reassembly = ReassemblyInstruments(self.obs)
            reassembler = record.reassembler = TCPDirectionReassembler(
                mode=stream.reassembly_mode or self.config.reassembly_mode,
                policy=stream.reassembly_policy or self.config.reassembly_policy,
                instruments=self._reassembly, sanitizers=self._san, stream_label=record.label,
            )
        return reassembler

    def _handle_tcp(
        self, record: FlowRecord, packet: Packet, size: int, now: float, core: int
    ) -> None:
        tcp = packet.tcp
        assert tcp is not None
        pair = record.pair

        if tcp.syn:
            reassembler = record.reassembler or self._reassembler_for(record)
            # set_isn (seq_add(seq, 1), only while nothing was delivered
            # or buffered), inlined; pinned by test_inlined_model.py.
            if not reassembler.next_offset and not reassembler._buffered_bytes:
                reassembler.expected_seq = (tcp.seq + 1) % SEQ_MOD
            if not tcp.ack_flag:
                pair.syn_seen = True
            elif pair.syn_seen:
                pair.established = True
                # A zero cutoff is known at establishment: trigger the
                # cutoff (and the FDIR filters) right away, so no data
                # packet of this flow is ever brought to memory (§6.2).
                # As in _store_piece: no scope can cut a stream off here.
                trivial = self._cutoff_trivial
                for peer in pair.records:
                    stream = peer.stream
                    if (
                        not stream.cutoff_exceeded
                        and not (trivial and stream.cutoff == SCAP_UNLIMITED_CUTOFF)
                        and self.config.cutoffs.effective_cutoff(stream) == 0
                    ):
                        self._cutoff_reached(peer, now, core)
            return
        if size and not tcp.rst:
            self._handle_tcp_payload(record, packet, size, now, core)
        if tcp.rst or tcp.fin:
            # The flow size from the FIN/RST sequence number covers data
            # dropped at the NIC (§5.5).  ``anchored`` and seq_diff,
            # inlined; pinned by test_inlined_model.py.
            reassembler = record.reassembler
            if reassembler is not None and reassembler.expected_seq is not None:
                stats = record.stream.stats
                estimated = reassembler.next_offset + (
                    (tcp.seq - reassembler.expected_seq + 2**31) % SEQ_MOD) - 2**31
                if estimated > stats.bytes:
                    stats.bytes = estimated
            if tcp.rst:
                self._terminate(pair, now, core, StreamStatus.RESET)
                return
            fin = pair.fin_seen
            fin = pair.fin_seen = (True, fin[1]) if record.direction == 0 else (fin[0], True)
            if fin[0] and fin[1]:
                # Both sides have FINed: the connection is over.  (The
                # final ACK, if it still reaches us, is ignored below —
                # stray ACKs never create flow state.)
                self._terminate(pair, now, core, StreamStatus.CLOSED)
                return
        if record.stream.flush_timeout is not None or self.config.flush_timeout is not None:
            self._maybe_flush_timeout(record, now, core)

    def _handle_tcp_payload(
        self, record: FlowRecord, packet: Packet, size: int, now: float, core: int
    ) -> None:
        pair = record.pair
        stream = record.stream
        mode = stream.reassembly_mode or self.config.reassembly_mode
        if mode == SCAP_TCP_STRICT and not pair.established:
            # Strict normalization: data from non-established connections
            # is discarded (protects against stick/snot-style noise).
            self.counters.discarded_non_established += 1
            stream.stats.discarded_pkts += 1
            stream.stats.discarded_bytes += size
            return

        reassembler = record.reassembler or self._reassembler_for(record)
        if not pair.established and not reassembler.anchored:
            stream.set_error(StreamError.INCOMPLETE_HANDSHAKE)

        if stream.cutoff_exceeded or stream.discarded_by_app:
            # Data past the cutoff that still reached the kernel (no
            # FDIR, or filter evicted): discard at once, nearly free.
            self._discard_past_cutoff(stream, size)
            if self.config.use_fdir and not pair.nic_filters_installed:
                self._install_filters(pair, stream, now)
            return

        # Prioritized packet loss: decide before spending copy cycles.
        decision = self.ppl.check(
            self.memory.fraction_used(now), stream.priority, reassembler.next_offset
        )
        if decision.drop:
            self._drop_ppl(record, size, decision.reason, now, core)
            return

        # Inlined _charge(_ST_REASM, reassembly_per_segment).
        cyc = self.cost.reassembly_per_segment
        self._cycles += cyc
        self.stage_cycles[_ST_REASM] += cyc
        # The packet's stream position must be read before reassembly
        # moves the expected pointer (it anchors per-packet delivery
        # records) — skipped entirely when records are off.
        need_pkts = self.config.need_pkts
        seq = packet.tcp.seq
        record_offset = 0
        if need_pkts and reassembler.anchored:
            record_offset = reassembler.next_offset + seq_diff(seq, reassembler.expected_seq)
        delivered = reassembler.on_segment(seq, packet.payload, now)
        stored_any = False
        for piece in delivered:  # more than one when a hole just drained
            stored = self._store_piece(record, piece.data, now, core, piece.follows_hole)
            stored_any = stored_any or stored
        # A record exists only for packets whose bytes were stored in
        # stream memory right away — the record's payload pointer must
        # point at real stream data.  (Out-of-order segments awaiting a
        # hole fill are not individually recorded; their bytes reach the
        # application through the chunks of the merged piece.)
        if need_pkts and stored_any:
            stream.packet_records.append(
                PacketRecord(
                    timestamp=now,
                    caplen=size,
                    wire_len=packet.wire_len,
                    seq=seq,
                    tcp_flags=packet.tcp.flags,
                    payload=packet.payload,
                    stream_offset=record_offset,
                )
            )
        if delivered:
            stream.stats.captured_pkts += 1

    # ------------------------------------------------------------------
    # Payload storage (shared by TCP/UDP/other)
    # ------------------------------------------------------------------
    def _assembler_for(self, record: FlowRecord) -> ChunkAssembler:
        assembler = record.assembler
        if assembler is None:
            stream = record.stream
            assembler = record.assembler = ChunkAssembler(
                self.memory,
                chunk_size=stream.chunk_size or self.config.chunk_size,
                overlap=stream.overlap_size
                if stream.overlap_size is not None
                else self.config.overlap_size,
            )
        return assembler

    def _handle_payload(
        self, record: FlowRecord, packet: Packet, size: int, now: float, core: int
    ) -> None:
        """UDP / other protocols: concatenate payloads, no reassembly."""
        if not size:
            return
        payload = packet.payload
        stream = record.stream
        if stream.cutoff_exceeded or stream.discarded_by_app:
            self._discard_past_cutoff(stream, size)
            return
        assembler = record.assembler or self._assembler_for(record)
        decision = self.ppl.check(
            self.memory.fraction_used(now), stream.priority, assembler.stream_offset
        )
        if decision.drop:
            self._drop_ppl(record, size, decision.reason, now, core)
            return
        record_offset = assembler.stream_offset
        stored = self._store_piece(record, payload, now, core)
        stream.stats.captured_pkts += 1
        if stored and self.config.need_pkts:
            stream.packet_records.append(
                PacketRecord(
                    timestamp=now,
                    caplen=size,
                    wire_len=packet.wire_len,
                    seq=0,
                    tcp_flags=0,
                    payload=payload,
                    stream_offset=record_offset,
                )
            )

    def _store_piece(
        self, record: FlowRecord, data: bytes, now: float, core: int, follows_hole: bool = False
    ) -> bool:
        """Write reassembled bytes into the stream's chunk block."""
        size = len(data)
        if not size:
            return False
        stream = record.stream
        assembler = record.assembler or self._assembler_for(record)
        if self._cutoff_trivial and stream.cutoff == SCAP_UNLIMITED_CUTOFF:
            # No scope can impose a cutoff on this stream: identical to
            # ``cutoffs.remaining`` returning None, without the
            # resolution walk.
            remaining = None
        else:
            remaining = self.config.cutoffs.remaining(stream, assembler.stream_offset)
        truncated = False
        if remaining is not None and size >= remaining:
            cut = size - remaining
            if cut:
                stream.stats.discarded_bytes += cut
                self.counters.discarded_cutoff_bytes += cut
            data = data[:remaining]
            size = remaining
            truncated = True
        if size:
            if not self.memory.try_store(now, size, record.label):
                self._drop_memory(stream, size, core)
                if truncated:
                    # The cutoff decision is independent of whether the
                    # final piece could be stored: the stream must still
                    # transition to CUTOFF (and install FDIR drop
                    # filters), or an exhausted pool would keep cutoff
                    # traffic flowing to the kernel forever.
                    self._cutoff_reached(record, now, core)
                return False
            if follows_hole:
                stream.set_error(StreamError.REASSEMBLY_HOLE)
            # copy_cost, then miss_cost(scap_kernel_misses), inlined: two adds
            # per charge, in the cost model's operand order (bit-identical;
            # pinned by tests/core/test_inlined_model.py).
            locality = self.locality
            stages = self.stage_cycles
            cyc = self.cost.copy_per_byte * size
            self._cycles += cyc
            stages[_ST_REASM] += cyc
            scale = 0.5 + 0.5 * (size / locality.reference_payload)
            cyc = self.cost.cache_miss_penalty * (locality.scap_kernel_base * scale)
            self._cycles += cyc
            stages[_ST_REASM] += cyc
            self.counters.stored_bytes += size
            stream.stats.captured_bytes += size
            for chunk in assembler.append(data, now, follows_hole):
                self._emit_data(core, stream, chunk, DataReason.CHUNK_FULL, now)
        if truncated:
            self._cutoff_reached(record, now, core)
        return size != 0

    # ------------------------------------------------------------------
    # Loss accounting: one definition per way payload leaves the path
    # ------------------------------------------------------------------
    def _count_priority_drop(self, priority: int) -> None:
        by_priority = self.counters.ppl_drops_by_priority
        by_priority[priority] = by_priority.get(priority, 0) + 1

    def _drop_ppl(
        self, record: FlowRecord, nbytes: int, reason: str, now: float, core: int
    ) -> None:
        """Prioritized packet loss refused a packet's payload."""
        stream = record.stream
        self.counters.dropped_ppl += 1
        self._count_priority_drop(stream.priority)
        stream.stats.dropped_pkts += 1
        stream.stats.dropped_bytes += nbytes
        if self.obs.enabled:
            self._core(core)[2].inc()
            self.obs.trace.emit(
                now, HOOK_PPL_DROP, core=core, priority=stream.priority,
                reason=reason, bytes=nbytes, five_tuple=record.label,
            )

    def _drop_memory(self, stream: StreamDescriptor, nbytes: int, core: int) -> None:
        """The pool refused a piece: the overload drop of last resort.

        Accounted per priority like a PPL drop so the PPL experiments
        see the complete per-class loss.
        """
        self.counters.dropped_memory += 1
        self._count_priority_drop(stream.priority)
        stream.stats.dropped_pkts += 1
        stream.stats.dropped_bytes += nbytes
        if self.obs.enabled:
            self._core(core)[3].inc()

    def _discard_past_cutoff(self, stream: StreamDescriptor, nbytes: int) -> None:
        """A packet of a stream already past its cutoff (or discarded)."""
        self.counters.discarded_cutoff_packets += 1
        self.counters.discarded_cutoff_bytes += nbytes
        stream.stats.discarded_pkts += 1
        stream.stats.discarded_bytes += nbytes

    def _cutoff_reached(self, record: FlowRecord, now: float, core: int) -> None:
        """The stream hit its cutoff: final chunk, FDIR filters (§5.4/5.5)."""
        stream = record.stream
        stream.cutoff_exceeded = True
        stream.status = StreamStatus.CUTOFF
        if self.obs.enabled:
            self.obs.trace.emit(
                now, HOOK_CUTOFF_REACHED, core=core,
                five_tuple=record.label,
                captured_bytes=stream.stats.captured_bytes,
            )
        assembler = record.assembler
        final = assembler.flush(now) if assembler is not None else None
        if final is not None:
            self._emit_data(core, stream, final, DataReason.CUTOFF, now)
        if self.config.use_fdir:
            self._install_filters(record.pair, stream, now)

    # ------------------------------------------------------------------
    # Flush timeouts
    # ------------------------------------------------------------------
    def _maybe_flush_timeout(self, record: FlowRecord, now: float, core: int) -> None:
        stream = record.stream
        flush_timeout = (
            stream.flush_timeout
            if stream.flush_timeout is not None
            else self.config.flush_timeout
        )
        if flush_timeout is None:
            return
        assembler = record.assembler
        if (
            assembler is not None
            and assembler.pending_bytes
            and now - assembler.last_delivery >= flush_timeout
        ):
            chunk = assembler.flush(now)
            if chunk is not None:
                self._emit_data(core, stream, chunk, DataReason.FLUSH_TIMEOUT, now)

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def _terminate(
        self, pair: StreamPair, now: float, core: int, status: str
    ) -> None:
        """Flush, emit final data + termination events, drop state."""
        self.flows.remove(pair)
        for record in pair.records:
            stream = record.stream
            if record.reassembler is not None:
                for piece in record.reassembler.flush(now=now):
                    self._store_piece(
                        record, piece.data, now, core, follows_hole=piece.follows_hole
                    )
            assembler = record.assembler
            if assembler is not None:
                final = assembler.flush(now, final=True)
                if final is not None:
                    self._emit_data(core, stream, final, DataReason.TERMINATION, now)
            if stream.status in (StreamStatus.ACTIVE, StreamStatus.CUTOFF):
                stream.status = status
            stream.stats.end = now
        if pair.nic_filters_installed:
            self._remove_filters(pair, now)
        self._emit(core, Event(EventType.STREAM_TERMINATED, pair.client, now),
                   Event(EventType.STREAM_TERMINATED, pair.server, now))
        if self.obs.enabled:
            self.obs.trace.emit(
                now, HOOK_STREAM_TERMINATED, core=core, status=status,
                five_tuple=str(pair.client.five_tuple),
                # Connection totals across both directions; ``bytes`` may
                # exceed ``captured_bytes`` when FIN/RST seq numbers
                # recovered the size of NIC-dropped data (§5.5).
                bytes=pair.client.stats.bytes + pair.server.stats.bytes,
                captured_bytes=(
                    pair.client.stats.captured_bytes + pair.server.stats.captured_bytes
                ),
            )
        # Pair and records point at each other; unlinking them here frees
        # the reassembly and chunk state by reference count, now, instead
        # of leaving ~14 objects per connection to the cycle collector.
        pair.records = ()

    def expire_and_drain(self, now: float) -> None:
        """End of capture: time out everything still in the table."""
        # Runs outside any batch, so refresh what begin_batch caches.
        self._cutoff_trivial = self.config.cutoffs.is_trivial
        for pair in self.flows.drain():
            self._terminate(pair, now, pair.core, StreamStatus.TIMED_OUT)

    # ------------------------------------------------------------------
    # Housekeeping sweep (inactivity + FDIR timeouts)
    # ------------------------------------------------------------------
    def _sweep(self, now: float, core: int) -> None:
        self._last_sweep = now
        for pair in self.flows.expire_idle(now, self.config.inactivity_timeout):
            self._terminate(pair, now, pair.core, StreamStatus.TIMED_OUT)
        while self._filter_timeouts and self._filter_timeouts[0][0] <= now:
            _, _, nic_filter, pair = heapq.heappop(self._filter_timeouts)
            if self._san is not None:
                self._san.fdir.on_timeout(nic_filter, now)
            if self.nic.fdir.remove_filter(nic_filter):
                self.counters.fdir_removals += 1
                self._charge(_ST_RECV, self.cost.fdir_filter_update)
                pair.nic_filters_installed = False
                if self.obs.enabled:
                    self.obs.trace.emit(
                        now, HOOK_FDIR_TIMEOUT,
                        five_tuple=str(nic_filter.five_tuple),
                        timeout_interval=nic_filter.timeout_interval,
                    )

    # ------------------------------------------------------------------
    # FDIR filter management (§5.5)
    # ------------------------------------------------------------------
    def _install_filters(self, pair: StreamPair, stream: StreamDescriptor, now: float) -> None:
        """Install the two data-dropping filters for ``stream``'s direction.

        Filters match the stream's directional five-tuple plus the TCP
        offset/flags word for plain-ACK and ACK|PSH segments; RST/FIN
        (and SYN) still reach the kernel for termination tracking.
        """
        previous_interval = pair.filter_timeout_interval
        if previous_interval <= 0:
            pair.filter_timeout_interval = self.config.fdir_initial_timeout
        else:
            # Re-install after a timeout removal: double the interval so
            # long-lived flows are evicted only O(log) times.
            pair.filter_timeout_interval *= 2
            if self.obs.enabled:
                self._m_fdir_doublings.inc()
        if self._san is not None:
            self._san.fdir.on_install(
                pair.key,
                pair.filter_timeout_interval,
                previous_interval,
                self.config.fdir_initial_timeout,
            )
        timeout_at = now + pair.filter_timeout_interval
        if self.obs.enabled:
            self.obs.trace.emit(
                now, HOOK_FDIR_INSTALL,
                five_tuple=str(stream.five_tuple),
                timeout_interval=pair.filter_timeout_interval,
            )
        for flags in (TCPFlags.ACK, TCPFlags.ACK | TCPFlags.PSH):
            nic_filter = FdirFilter(
                five_tuple=stream.five_tuple,
                action_queue=FDIR_DROP,
                flex_offset=FLEX_OFFSET_TCP_FLAGS,
                flex_value=(5 << 12) | flags,
                timeout_at=timeout_at,
                timeout_interval=pair.filter_timeout_interval,
            )
            self.nic.fdir.add(nic_filter, now=now)
            self._filter_seq += 1
            heapq.heappush(
                self._filter_timeouts, (timeout_at, self._filter_seq, nic_filter, pair)
            )
            self.counters.fdir_installs += 1
            self._charge(_ST_RECV, self.cost.fdir_filter_update)
        pair.nic_filters_installed = True

    def _remove_filters(self, pair: StreamPair, now: float) -> None:
        removed = self.nic.fdir.remove_for_stream(pair.key)
        if removed:
            self.counters.fdir_removals += removed
            self._charge(_ST_RECV, self.cost.fdir_filter_update * removed)
        pair.nic_filters_installed = False

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------
    def _emit_data(
        self, core: int, stream: StreamDescriptor, chunk: Chunk, reason: str, now: float
    ) -> None:
        stream.chunks += 1
        cyc = self.cost.event_create  # _emit, inlined
        self._cycles += cyc
        self.stage_cycles[_ST_ENQ] += cyc
        self.emit_event((core, Event(EventType.STREAM_DATA, stream, now, chunk=chunk, reason=reason)))

    def _emit(self, core: int, *events: Event) -> None:
        cyc = self.cost.event_create  # _charge(_ST_ENQ, ...), inlined, per event
        for event in events:
            self._cycles += cyc
            self.stage_cycles[_ST_ENQ] += cyc
            self.emit_event((core, event))
