"""The benchmark's tables: workloads, end-to-end metrics, layers.

Everything that names a workload, a metric, a unit, a bound or a
wrapped entry point lives here; ``BENCHMARK.json``, the README glossary
and the runner all read these tables, and a self-test checks that
``BENCHMARK.json`` still equals :func:`benchmark_json`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "RUN_SECONDS",
    "COMMAND",
    "PATHS",
    "Metric",
    "END_TO_END",
    "CAMPUS_UNIT",
    "SMALL_UNIT",
    "Workload",
    "WORKLOADS",
    "workload",
    "Entry",
    "Layer",
    "LAYERS",
    "per_layer_metrics",
    "benchmark_json",
]

#: Seconds one run spends in its timed phases (``--seconds``).
RUN_SECONDS = 12
COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]

PHASES = ("capture", "record", "query", "service")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Allowed worsening of the median, as a share of the parent's.
    bound: Optional[float] = None
    #: Phase that produces it (None = the whole run).
    phase: Optional[str] = None
    definition: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, None,
           "trace generation, pcap encode, store dir, daemon start and connect; "
           "the run sets up several times"),
    Metric("capture_pkts_per_s", "pkt/s", "higher", 0.25, "capture",
           "offered_packets / wall seconds of ScapSocket.start_capture"),
    Metric("capture_goodput_MBps", "MB/s", "higher", 0.25, "capture",
           "RunResult.delivered_bytes / the same wall seconds"),
    Metric("capture_cpu_us_per_pkt", "us", "lower", 0.25, "capture",
           "time.process_time delta / offered_packets"),
    Metric("store_record_MBps", "MB/s", "higher", 0.25, "record",
           "StoreStats.written_bytes / wall of a record pass up to store.flush()"),
    Metric("query_scan_MBps", "MB/s", "higher", 0.25, "query",
           "QueryResult.total_bytes / wall of a full store.query()"),
    Metric("query_tuple_p50_ms", "ms", "lower", 0.25, "query",
           "median over the stored connections of store.query(five_tuple=...) latency, "
           "each connection at its best of >= 3 visits, n >= 1000 queries"),
    Metric("query_tuple_p99_ms", "ms", "lower", 0.25, "query",
           "99th percentile over the same connections: the largest streams"),
    Metric("submit_pkts_per_s", "pkt/s", "higher", 0.25, "service",
           "offered_packets / client wall of ScapClient.submit_trace"),
    Metric("fanout_events_per_s", "event/s", "higher", 0.25, "service",
           "events held by the subscriber / wall from submit sent to the last "
           "expected event received"),
    Metric("command_p50_ms", "ms", "lower", 0.25, "service",
           "median ping round trip on an idle daemon (blocks of 200, n >= 2000), of "
           "the fastest of the run's three daemons"),
    Metric("remote_query_MBps", "MB/s", "higher", 0.25, "service",
           "bytes returned by ScapClient.query() / wall"),
    Metric("peak_rss_MB", "MB", "lower", 0.20, None,
           "ru_maxrss of the generator process plus the daemon's VmHWM"),
)


#: One unit of traffic: ``(flows, response bytes)`` strata.  The sizes
#: follow the campus mix the repository's experiments use (a lognormal
#: body around 2 kB and a Pareto tail cut at 400 kB), but as fixed
#: strata: the seed decides addresses, ports, payloads, start times and
#: impairments, not how many bytes or packets there are, so that two
#: seeds give different inputs of the same shape.
CAMPUS_UNIT: Tuple[Tuple[int, int], ...] = (
    (9, 800), (9, 4_000), (3, 25_000), (2, 50_000), (1, 120_000), (1, 400_000),
)
#: Handshake, one small request and response, teardown: about 7.6
#: packets of about 104 bytes per flow.
SMALL_UNIT: Tuple[Tuple[int, int], ...] = ((30, 200),)


@dataclass(frozen=True)
class Workload:
    """One set of inputs: a traffic profile, a socket configuration and
    the share of ``--seconds`` each phase gets.

    Every workload runs all four phases so that every end-to-end metric
    has a value on it; ``primary`` names the phases the workload exists
    for — they get most of the time untraced and are the only ones a
    traced run executes.
    """

    name: str
    why: str
    #: Strata of one traffic unit, and the request size range.
    unit: Tuple[Tuple[int, int], ...]
    request_bytes: Tuple[int, int]
    #: Units in the capture trace (one UDP flow rides along per unit).
    units: int
    #: Units in the trace recorded into stores and submitted to the
    #: daemon (the same trace when equal to ``units``).
    store_units: int
    rate_bps: float
    memory_size: int
    cutoff: Optional[int]
    shares: Dict[str, float]
    primary: Tuple[str, ...]
    #: Unintentional loss is a failed pass (the workload is sized so
    #: that nothing is dropped).
    zero_drop: bool = True


# Passes are kept short (about a tenth of a second) and many, so that a
# run's median rests on a few dozen of them.
_CAMPUS = {"unit": CAMPUS_UNIT, "request_bytes": (120, 900)}
_CAPTURE_SHARES = {"capture": 0.50, "record": 0.10, "query": 0.22, "service": 0.18}

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "bulk_delivery",
        "Bytes dominate: reassembly, chunk assembly and stream memory do most of the "
        "work and flow creation is rare; the paper's Fig. 4 path.",
        units=10, store_units=3, rate_bps=4e9, memory_size=64 << 20, cutoff=None,
        shares=_CAPTURE_SHARES, primary=("capture",), **_CAMPUS,
    ),
    Workload(
        "small_flows",
        "Smallest packets and shortest flows, where per-packet and per-flow cost sets "
        "the rate; a byte-path optimisation must show no change here.",
        unit=SMALL_UNIT, request_bytes=(60, 200), units=30, store_units=12,
        rate_bps=1e9, memory_size=64 << 20, cutoff=None,
        shares=_CAPTURE_SHARES, primary=("capture",),
    ),
    Workload(
        "cutoff_subzero",
        "Half the packets leave the fast path at the NIC (FDIR subzero drop, "
        "cutoff discard); every filter install re-classifies the batch tail.",
        units=10, store_units=3, rate_bps=7e9, memory_size=2 << 20, cutoff=16_384,
        shares=_CAPTURE_SHARES, primary=("capture",), zero_drop=False, **_CAMPUS,
    ),
    Workload(
        "record_query",
        "Store writes beside store reads on one trace, so a write-side gain that "
        "costs reads (or the reverse) shows.",
        units=4, store_units=4, rate_bps=4e9, memory_size=64 << 20, cutoff=None,
        shares={"capture": 0.12, "record": 0.26, "query": 0.46, "service": 0.16},
        primary=("record", "query"), **_CAMPUS,
    ),
    Workload(
        "service_fanout",
        "The only workload where protocol, session, daemon, client and pcap code do "
        "most of the work; the capture pipeline is bulk_delivery's.",
        units=3, store_units=3, rate_bps=1e9, memory_size=64 << 20, cutoff=None,
        shares={"capture": 0.10, "record": 0.08, "query": 0.22, "service": 0.60},
        primary=("service",), **_CAMPUS,
    ),
)


def workload(name: str) -> Workload:
    for item in WORKLOADS:
        if item.name == name:
            return item
    raise KeyError(f"unknown workload {name!r}; choose from "
                   f"{[item.name for item in WORKLOADS]}")


# ----------------------------------------------------------------------
# Layers: what the traced run wraps, and what each layer should move.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Entry:
    """One wrapped public entry point: ``module:Class.attr`` or
    ``module:function``.  ``side`` splits a layer's self time (store
    segment reads vs writes); ``hook`` names a counter hook in
    ``trace.py``."""

    target: str
    side: str = ""
    hook: str = ""


@dataclass(frozen=True)
class Layer:
    name: str
    entries: Tuple[Entry, ...]
    #: (name suffix, unit, better) of the layer's extra counters.
    extras: Tuple[Tuple[str, str, str], ...] = ()
    moves: str = ""
    on: str = ""


def _entries(module: str, *attrs: str, **kwargs: str) -> Tuple[Entry, ...]:
    return tuple(Entry(f"{module}:{attr}", **kwargs) for attr in attrs)


LAYERS: Tuple[Layer, ...] = (
    Layer("traffic.trace", _entries("repro.traffic.trace", "Trace.replay_batches"),
          moves="capture_pkts_per_s", on="all capture workloads equally (generator floor)"),
    Layer("nic.batch", _entries("repro.nic.batch", "PacketBatch.__init__", "PacketBatch.arena"),
          extras=(("mean_len", "pkt", "higher"),),
          moves="capture_pkts_per_s", on="small_flows"),
    Layer("nic.offload",
          _entries("repro.nic.nic", "SimulatedNIC.classify_batch",
                   "SimulatedNIC.apply_batch_stats"),
          extras=(("reclassify_share", "share", "lower"), ("fdir_drop_share", "share", "higher")),
          moves="capture_pkts_per_s, capture_cpu_us_per_pkt",
          on="cutoff_subzero; predicted flat on bulk_delivery"),
    Layer("nic.rss", _entries("repro.nic.rss", "RSSHasher.queue_for", "RSSHasher.hash_value"),
          extras=(("hashes_per_pkt", "1/pkt", "lower"),),
          moves="capture_pkts_per_s", on="small_flows"),
    Layer("nic.fdir",
          _entries("repro.nic.fdir", "FlowDirectorTable.add", "FlowDirectorTable.peek",
                   "FlowDirectorTable.expired", "FlowDirectorTable.remove_for_stream"),
          extras=(("installs", "count", "lower"), ("evictions", "count", "lower")),
          moves="capture_pkts_per_s", on="cutoff_subzero only (zero installs elsewhere)"),
    Layer("core.runtime",
          _entries("repro.core.runtime", "ScapRuntime.process_batch")
          + _entries("repro.core.runtime", "ScapRuntime.finalize", hook="remember"),
          extras=(("ring_drops", "count", "lower"),),
          moves="capture_pkts_per_s", on="all (loop overhead; largest share on small_flows)"),
    Layer("core.kernel_module",
          _entries("repro.core.kernel_module", "ScapKernelModule.handle_batch_packet",
                   "ScapKernelModule.begin_batch", "ScapKernelModule.end_batch",
                   "ScapKernelModule.expire_and_drain"),
          extras=(("discarded_share", "share", "higher"),),
          moves="capture_pkts_per_s, capture_cpu_us_per_pkt", on="all"),
    Layer("core.flowtable",
          _entries("repro.core.flowtable", "FlowTable.lookup_or_create", "FlowTable.touch",
                   "FlowTable.remove", "FlowTable.expire_idle"),
          extras=(("create_share", "share", "lower"),),
          moves="capture_pkts_per_s", on="small_flows; flat on bulk_delivery"),
    Layer("core.ppl", _entries("repro.core.ppl", "PrioritizedPacketLoss.check"),
          extras=(("drop_share", "share", "lower"),),
          moves="capture_pkts_per_s", on="cutoff_subzero"),
    Layer("core.reassembly",
          _entries("repro.core.reassembly", "TCPDirectionReassembler.on_segment",
                   hook="remember")
          + _entries("repro.core.reassembly", "TCPDirectionReassembler.flush"),
          extras=(("ooo_share", "share", "lower"),),
          moves="capture_goodput_MBps", on="bulk_delivery; flat on small_flows"),
    Layer("core.memory",
          _entries("repro.core.memory", "ChunkAssembler.append", "ChunkAssembler.append_many",
                   "ChunkAssembler.flush", "StreamMemory.try_store"),
          extras=(("store_fail_share", "share", "lower"), ("bytes_per_append", "B", "higher")),
          moves="capture_goodput_MBps", on="bulk_delivery, record_query"),
    Layer("core.workers",
          _entries("repro.core.workers", "WorkerPool.dispatch", "WorkerPool.begin_batch",
                   "WorkerPool.end_batch"),
          extras=(("events", "count", "lower"),),
          moves="capture_pkts_per_s", on="small_flows"),
    Layer("apps.callback",
          _entries("repro.core.api", "ScapSocket.dispatch_creation", "ScapSocket.dispatch_data",
                   "ScapSocket.dispatch_termination", hook="callback"),
          moves="capture_goodput_MBps",
          on="bulk_delivery; store_record_MBps on record_query"),
    Layer("apps.recorder",
          _entries("repro.apps.recorder", "StreamRecorder.record")
          + _entries("repro.apps.recorder", "StreamRecorder.finish", hook="remember"),
          extras=(("dedup_bytes", "B", "lower"),),
          moves="store_record_MBps", on="record_query, service_fanout"),
    Layer("store.writer",
          _entries("repro.store.writer", "StoreWriter.enqueue", hook="writer_depth")
          + _entries("repro.store.writer", "StoreWriter.drain", "StoreWriter.seal_all"),
          extras=(("drop_share", "share", "lower"), ("queue_depth_max_bytes", "B", "lower")),
          moves="store_record_MBps, submit_pkts_per_s", on="record_query (writes)"),
    Layer("store.segment",
          _entries("repro.store.segment", "SegmentWriter.append", "SegmentWriter.seal",
                   side="write")
          + _entries("repro.store.segment", "scan_records", side="read", hook="segment_read")
          + _entries("repro.store.segment", "read_segment", side="read"),
          extras=(("bytes_read_per_query", "B", "lower"), ("write_self_s", "s", "lower"),
                  ("read_self_s", "s", "lower")),
          moves="store_record_MBps (writes); query_tuple_p50_ms, query_scan_MBps (reads)",
          on="record_query"),
    Layer("store.index",
          _entries("repro.store.index", "StoreIndex.lookup", hook="index_lookup")
          + _entries("repro.store.index", "StoreIndex.add_sealed", "StoreIndex.add_segment_file",
                     "StoreIndex.connections"),
          extras=(("records_scanned_per_hit", "count", "lower"),),
          moves="query_tuple_p50_ms, query_tuple_p99_ms", on="record_query (reads)"),
    Layer("store.query", _entries("repro.store.query", "run_query"),
          moves="query_tuple_p50_ms, query_scan_MBps, remote_query_MBps",
          on="record_query, service_fanout"),
    Layer("netstack.pcap",
          _entries("repro.netstack.pcap", "PcapReader.__iter__", hook="pcap_read")
          + _entries("repro.netstack.pcap", "PcapWriter.write"),
          extras=(("pkts", "pkt", "lower"),),
          moves="submit_pkts_per_s, setup_s", on="service_fanout"),
    Layer("service.protocol",
          _entries("repro.service.protocol", "encode_frame", hook="frame_bytes")
          + _entries("repro.service.protocol", "FrameReader.feed", hook="frame_rejections")
          + _entries("repro.service.protocol", "decode_frame_body"),
          extras=(("bytes_per_frame", "B", "lower"), ("rejections", "count", "lower")),
          moves="fanout_events_per_s, command_p50_ms, remote_query_MBps", on="service_fanout"),
    Layer("service.session",
          _entries("repro.service.session", "ClientSession.enqueue_event", hook="session_depth")
          + _entries("repro.service.session", "ClientSession.send_bytes"),
          extras=(("drop_share", "share", "lower"), ("queue_depth_max", "count", "lower")),
          moves="fanout_events_per_s", on="service_fanout"),
    Layer("service.daemon",
          _entries("repro.core.api", "ScapSocket.start_capture", side="capture")
          + _entries("repro.store.store", "StreamStore.flush", "StreamStore.query"),
          extras=(("overhead_share", "share", "lower"), ("command_p99_ms", "ms", "lower"),
                  ("threads", "count", "lower")),
          moves="submit_pkts_per_s, command_p50_ms", on="service_fanout"),
    Layer("service.client",
          _entries("repro.service.client", "ScapClient.call")
          + _entries("repro.service.client", "EventStream.next_event", side="wait"),
          extras=(("event_wait_s", "s", "lower"),),
          moves="fanout_events_per_s", on="service_fanout"),
)

#: Layers whose spans are recorded only inside the daemon process (in
#: the generator process ``start_capture``/``flush``/``query`` are the
#: timed operation itself, not a daemon layer).
DAEMON_ONLY_LAYERS = frozenset({"service.daemon"})


def per_layer_metrics() -> List[Metric]:
    """Every per-layer metric name with its unit and direction."""
    out: List[Metric] = []
    for layer in LAYERS:
        out.append(Metric(f"{layer.name}.calls", "count", "lower"))
        out.append(Metric(f"{layer.name}.self_s", "s", "lower"))
        out.append(Metric(f"{layer.name}.self_share", "share", "lower"))
        for suffix, unit, better in layer.extras:
            out.append(Metric(f"{layer.name}.{suffix}", unit, better))
    out.append(Metric("trace_overhead_ratio", "ratio", "lower"))
    return out


def benchmark_json() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in per_layer_metrics()
        ],
    }
