"""Shared experiment harness for the paper's figures.

Each ``fig*`` function regenerates one figure's series and returns a
:class:`FigureSeries`; the ``benchmarks/bench_fig*.py`` files print the
rows and assert the paper's qualitative claims.

Scaling: the paper replays a 46 GB trace through 512 MB (ring) / 1 GB
(stream memory) buffers for minutes per point.  We replay a generated
trace of a few tens of MB, so buffers are scaled to keep the
buffer-to-trace ratio comparable (see DESIGN.md §2); absolute rates are
therefore indicative, shapes are the claim.  ``BenchScale.from_env``
honours ``REPRO_BENCH_SCALE=tiny|small|standard``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..apps import (
    FlowStatsApp,
    MonitorApp,
    PatternMatchApp,
    StreamDeliveryApp,
    attach_app,
    attach_app_packet_based,
)
from ..baselines import (
    LibnidsEngine,
    PcapBasedSystem,
    Stream5Engine,
    YAFEngine,
    YAF_SNAPLEN,
)
from ..core import ScapSocket
from ..matching import synthetic_web_attack_patterns
from ..traffic import ConcurrentStreamWorkload, Trace, campus_mix
from ..results import RunResult

__all__ = ["BenchScale", "FigureSeries", "get_scale"]

GBIT = 1e9


@dataclass(frozen=True)
class BenchScale:
    """Workload / sweep sizing for one harness run."""

    name: str = "small"
    flow_count: int = 600
    max_flow_bytes: int = 4_000_000
    pattern_count: int = 300
    plant_fraction: float = 0.5
    rates: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 6.0)
    #: Buffer sizes as fractions of the trace's wire bytes (keeps the
    #: paper's buffer-to-trace ratio: 512 MB and 1 GB against 46 GB,
    #: scaled up because short traces have relatively larger bursts).
    ring_fraction: float = 0.05
    scap_memory_fraction: float = 0.10
    concurrent_stream_counts: Tuple[int, ...] = (10, 100, 1_000, 10_000, 30_000)
    concurrent_table_limit: int = 3_000  # baselines' scaled-down 10^6
    cutoffs: Tuple[int, ...] = (0, 1_024, 10_240, 102_400, 1_048_576, 4_194_304)
    worker_counts: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    seed: int = 5

    @classmethod
    def from_env(cls) -> "BenchScale":
        name = os.environ.get("REPRO_BENCH_SCALE", "small")
        if name == "standard":
            return cls(
                name="standard",
                flow_count=1_500,
                max_flow_bytes=8_000_000,
                pattern_count=2_120,
                concurrent_stream_counts=(10, 100, 1_000, 10_000, 100_000),
                concurrent_table_limit=30_000,
            )
        if name == "small":
            return cls()
        if name == "tiny":
            return cls(
                name="tiny",
                flow_count=120,
                max_flow_bytes=400_000,
                pattern_count=60,
                concurrent_stream_counts=(10, 100, 1_000, 3_000),
                concurrent_table_limit=300,
            )
        raise ValueError(f"unknown REPRO_BENCH_SCALE: {name!r}")


def get_scale() -> BenchScale:
    """The harness scale selected by REPRO_BENCH_SCALE."""
    return BenchScale.from_env()


@dataclass
class FigureSeries:
    """All runs regenerated for one figure, keyed by (system, x)."""

    figure: str
    x_label: str
    results: Dict[Tuple[str, float], RunResult] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add(self, system: str, x: float, result: RunResult) -> None:
        """Record one run at sweep position ``x``."""
        self.results[(system, x)] = result

    def systems(self) -> List[str]:
        """System names in first-seen order."""
        seen: List[str] = []
        for system, _ in self.results:
            if system not in seen:
                seen.append(system)
        return seen

    def xs(self) -> List[float]:
        """Sweep positions in first-seen order."""
        seen: List[float] = []
        for _, x in self.results:
            if x not in seen:
                seen.append(x)
        return seen

    def get(self, system: str, x: float) -> RunResult:
        """The run for ``system`` at sweep position ``x``."""
        return self.results[(system, x)]

    def column(self, system: str, metric: Callable[[RunResult], float]) -> List[float]:
        """One metric across the sweep for ``system``."""
        return [metric(self.results[(system, x)]) for x in self.xs()]


# ----------------------------------------------------------------------
# Workload caches (shared across figures within one process)
# ----------------------------------------------------------------------
@lru_cache(maxsize=4)
def _patterns(count: int) -> Tuple[bytes, ...]:
    return tuple(synthetic_web_attack_patterns(count))


@lru_cache(maxsize=4)
def _trace(scale: BenchScale, planted: bool) -> Trace:
    patterns = _patterns(scale.pattern_count) if planted else ()
    return campus_mix(
        flow_count=scale.flow_count,
        seed=scale.seed,
        patterns=patterns,
        plant_fraction=scale.plant_fraction if planted else 0.0,
        max_flow_bytes=scale.max_flow_bytes,
    )


def _buffers(scale: BenchScale, trace: Trace) -> Tuple[int, int]:
    wire = trace.total_wire_bytes
    ring = max(1 << 18, int(wire * scale.ring_fraction))
    memory = max(1 << 19, int(wire * scale.scap_memory_fraction))
    return ring, memory


# ----------------------------------------------------------------------
# Single-run helpers
# ----------------------------------------------------------------------
def run_scap(
    trace,
    rate_bps: float,
    app: MonitorApp,
    memory_size: int,
    name: str = "scap",
    cutoff: Optional[int] = None,
    worker_threads: int = 1,
    use_fdir: bool = True,
    overload_cutoff: Optional[int] = None,
    packet_based: bool = False,
    priority_rule: Optional[Callable] = None,
    max_streams: Optional[int] = None,
) -> RunResult:
    """One Scap run with the harness's standard knobs."""
    socket = ScapSocket(
        trace,
        rate_bps=rate_bps,
        memory_size=memory_size,
        need_pkts=1 if packet_based else 0,
        max_streams=max_streams,
    )
    socket.config.use_fdir = use_fdir
    if cutoff is not None:
        socket.set_cutoff(cutoff)
    if overload_cutoff is not None:
        socket.set_parameter("overload_cutoff", overload_cutoff)
    if worker_threads != 1:
        socket.set_worker_threads(worker_threads)
    if packet_based:
        attach_app_packet_based(socket, app)
    else:
        attach_app(socket, app)
    if priority_rule is not None:
        base_creation = socket.callbacks.on_creation

        def on_creation(stream):
            priority_rule(socket, stream)
            if base_creation is not None:
                base_creation(stream)

        socket.dispatch_creation(
            on_creation, cost=socket.callbacks.creation_cost
        )
    result = socket.start_capture(name=name)
    _merge_app(result, app, trace)
    return result


def run_baseline(
    engine_factory: Callable[[MonitorApp], object],
    trace,
    rate_bps: float,
    app: MonitorApp,
    ring_bytes: int,
    name: str,
    snaplen: int = 65535,
) -> RunResult:
    """One PF_PACKET-based baseline run with the harness's knobs."""
    system = PcapBasedSystem(
        engine_factory(app), name=name, ring_bytes=ring_bytes, snaplen=snaplen
    )
    result = system.run(trace, rate_bps)
    _merge_app(result, app, trace)
    return result


def _merge_app(result: RunResult, app: MonitorApp, trace) -> None:
    """Join app-level functional results and trace ground truth."""
    result.matches_found = getattr(app, "matches_found", 0)
    flows = getattr(trace, "flows", [])
    planted = getattr(trace, "planted_matches", None)
    result.matches_planted = len(planted) if planted is not None else 0
    with_data = {five_tuple.canonical() for five_tuple in app.streams_with_data}
    ground = [flow for flow in flows if flow.total_bytes > 0]
    result.streams_total_ground_truth = len(ground)
    result.streams_delivered = sum(
        1 for flow in ground if flow.five_tuple.canonical() in with_data
    )
    result.streams_lost = result.streams_total_ground_truth - result.streams_delivered


# ----------------------------------------------------------------------
# Figure experiments
# ----------------------------------------------------------------------
def fig03_flow_statistics(scale: Optional[BenchScale] = None) -> FigureSeries:
    """Fig 3: flow-export for YAF / Libnids / Scap ±FDIR vs rate."""
    scale = scale or get_scale()
    trace = _trace(scale, planted=False)
    ring, memory = _buffers(scale, trace)
    series = FigureSeries("fig03", "rate_gbps")
    for rate in scale.rates:
        rate_bps = rate * GBIT
        series.add(
            "yaf",
            rate,
            run_baseline(
                lambda app: YAFEngine(app), trace, rate_bps, FlowStatsApp(),
                ring, "yaf", snaplen=YAF_SNAPLEN,
            ),
        )
        series.add(
            "libnids",
            rate,
            run_baseline(
                lambda app: LibnidsEngine(app), trace, rate_bps, FlowStatsApp(),
                ring, "libnids",
            ),
        )
        series.add(
            "scap",
            rate,
            run_scap(trace, rate_bps, FlowStatsApp(), memory, name="scap",
                     cutoff=0, use_fdir=False),
        )
        series.add(
            "scap-fdir",
            rate,
            run_scap(trace, rate_bps, FlowStatsApp(), memory, name="scap-fdir",
                     cutoff=0, use_fdir=True),
        )
    return series


def fig04_stream_delivery(scale: Optional[BenchScale] = None) -> FigureSeries:
    """Fig 4: deliver all streams, no processing."""
    scale = scale or get_scale()
    trace = _trace(scale, planted=False)
    ring, memory = _buffers(scale, trace)
    series = FigureSeries("fig04", "rate_gbps")
    for rate in scale.rates:
        rate_bps = rate * GBIT
        series.add(
            "libnids", rate,
            run_baseline(lambda app: LibnidsEngine(app), trace, rate_bps,
                         StreamDeliveryApp(), ring, "libnids"),
        )
        series.add(
            "snort", rate,
            run_baseline(lambda app: Stream5Engine(app), trace, rate_bps,
                         StreamDeliveryApp(), ring, "snort"),
        )
        series.add(
            "scap", rate,
            run_scap(trace, rate_bps, StreamDeliveryApp(), memory, name="scap"),
        )
    return series


def fig05_concurrent_streams(scale: Optional[BenchScale] = None) -> FigureSeries:
    """Fig 5: 10^1..10^5 concurrent streams at a fixed 1 Gbit/s.

    The baselines' flow tables are capped at ``concurrent_table_limit``
    (the paper's ~10^6 scaled down with the workload; see DESIGN.md).
    """
    scale = scale or get_scale()
    series = FigureSeries("fig05", "concurrent_streams")
    series.notes.append(
        f"baseline flow-table limit scaled to {scale.concurrent_table_limit}"
    )
    for count in scale.concurrent_stream_counts:
        workload = ConcurrentStreamWorkload(count, data_packets=8)
        rate_bps = 1.0 * GBIT
        ring = max(1 << 18, int(workload.total_wire_bytes * scale.ring_fraction))
        memory = max(1 << 19, int(workload.total_wire_bytes * scale.scap_memory_fraction))
        limit = scale.concurrent_table_limit
        result = run_baseline(
            lambda app: LibnidsEngine(app, max_streams=limit),
            workload, rate_bps, StreamDeliveryApp(), ring, "libnids",
        )
        result.streams_total_ground_truth = count
        result.streams_lost = int(result.extra["streams_rejected_table_full"])
        series.add("libnids", count, result)
        result = run_baseline(
            lambda app: Stream5Engine(app, max_streams=limit),
            workload, rate_bps, StreamDeliveryApp(), ring, "snort",
        )
        result.streams_total_ground_truth = count
        result.streams_lost = int(result.extra["streams_rejected_table_full"])
        series.add("snort", count, result)
        result = run_scap(workload, rate_bps, StreamDeliveryApp(), memory, name="scap")
        result.streams_total_ground_truth = count
        result.streams_lost = max(0, count - result.streams_created)
        series.add("scap", count, result)
    return series


def fig06_pattern_matching(scale: Optional[BenchScale] = None) -> FigureSeries:
    """Fig 6: pattern matching, incl. the Scap packet-delivery variant."""
    scale = scale or get_scale()
    trace = _trace(scale, planted=True)
    patterns = list(_patterns(scale.pattern_count))
    ring, memory = _buffers(scale, trace)
    series = FigureSeries("fig06", "rate_gbps")
    for rate in scale.rates:
        rate_bps = rate * GBIT
        series.add(
            "libnids", rate,
            run_baseline(lambda app: LibnidsEngine(app), trace, rate_bps,
                         PatternMatchApp.for_trace(trace, patterns), ring, "libnids"),
        )
        series.add(
            "snort", rate,
            run_baseline(lambda app: Stream5Engine(app), trace, rate_bps,
                         PatternMatchApp.for_trace(trace, patterns), ring, "snort"),
        )
        series.add(
            "scap", rate,
            run_scap(trace, rate_bps, PatternMatchApp.for_trace(trace, patterns),
                     memory, name="scap", overload_cutoff=16 * 1024),
        )
        series.add(
            "scap-pkts", rate,
            run_scap(trace, rate_bps, PatternMatchApp.for_trace(trace, patterns),
                     memory, name="scap-pkts", overload_cutoff=16 * 1024,
                     packet_based=True),
        )
    return series


def fig08_cutoff_sweep(
    scale: Optional[BenchScale] = None, rate_gbps: float = 4.0
) -> FigureSeries:
    """Fig 8: stream-cutoff sweep at a fixed (overload) rate."""
    scale = scale or get_scale()
    trace = _trace(scale, planted=True)
    patterns = list(_patterns(scale.pattern_count))
    ring, memory = _buffers(scale, trace)
    rate_bps = rate_gbps * GBIT
    series = FigureSeries("fig08", "cutoff_bytes")
    for cutoff in scale.cutoffs:
        series.add(
            "libnids", cutoff,
            run_baseline(
                lambda app, c=cutoff: LibnidsEngine(app, cutoff=c),
                trace, rate_bps, PatternMatchApp.for_trace(trace, patterns),
                ring, "libnids",
            ),
        )
        series.add(
            "snort", cutoff,
            run_baseline(
                lambda app, c=cutoff: Stream5Engine(app, cutoff=c),
                trace, rate_bps, PatternMatchApp.for_trace(trace, patterns),
                ring, "snort",
            ),
        )
        series.add(
            "scap", cutoff,
            run_scap(trace, rate_bps, PatternMatchApp.for_trace(trace, patterns),
                     memory, name="scap", cutoff=cutoff, use_fdir=False),
        )
        series.add(
            "scap-fdir", cutoff,
            run_scap(trace, rate_bps, PatternMatchApp.for_trace(trace, patterns),
                     memory, name="scap-fdir", cutoff=cutoff, use_fdir=True),
        )
    return series


def fig09_ppl_priorities(scale: Optional[BenchScale] = None) -> FigureSeries:
    """Fig 9: PPL with port-80 streams as the high-priority class."""
    scale = scale or get_scale()
    trace = _trace(scale, planted=True)
    patterns = list(_patterns(scale.pattern_count))
    _, memory = _buffers(scale, trace)
    series = FigureSeries("fig09", "rate_gbps")

    # The paper marks port-80 streams high priority — 8.4 % of its
    # campus packets.  Web traffic dominates our synthetic mix, so the
    # equivalent minority class here is the interactive/mail port set
    # (~10 % of packets); the experiment's point is a small privileged
    # class, not the specific port number.
    high_priority_ports = {22, 25, 110}

    def prioritize_web(socket: ScapSocket, stream) -> None:
        ports = {stream.five_tuple.src_port, stream.five_tuple.dst_port}
        if ports & high_priority_ports:
            socket.set_stream_priority(stream, 1)

    for rate in scale.rates:
        rate_bps = rate * GBIT
        # Same single-worker pattern-matching application as §6.7, so
        # the system actually overloads beyond ~1 Gbit/s.
        result = run_scap(
            trace, rate_bps, PatternMatchApp.for_trace(trace, patterns),
            memory, name="scap-ppl", priority_rule=prioritize_web,
        )
        series.add("scap-ppl", rate, result)
    return series


def fig10_worker_scaling(
    scale: Optional[BenchScale] = None,
    drop_rates_at: Tuple[float, ...] = (2.0, 4.0, 6.0),
) -> FigureSeries:
    """Fig 10: pattern matching with 1..8 worker threads."""
    scale = scale or get_scale()
    trace = _trace(scale, planted=True)
    patterns = list(_patterns(scale.pattern_count))
    _, memory = _buffers(scale, trace)
    series = FigureSeries("fig10", "worker_threads")
    for workers in scale.worker_counts:
        for rate in drop_rates_at:
            result = run_scap(
                trace, rate * GBIT,
                PatternMatchApp.for_trace(trace, patterns),
                memory, name=f"scap-{rate:g}G", worker_threads=workers,
            )
            series.add(f"scap-{rate:g}G", workers, result)
    return series


def fig10_max_lossfree_rate(
    scale: Optional[BenchScale] = None,
    rate_grid: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0),
    loss_threshold: float = 0.005,
) -> Dict[int, float]:
    """Fig 10(b): the highest grid rate each worker count survives."""
    scale = scale or get_scale()
    trace = _trace(scale, planted=True)
    patterns = list(_patterns(scale.pattern_count))
    _, memory = _buffers(scale, trace)
    best: Dict[int, float] = {}
    for workers in scale.worker_counts:
        best[workers] = 0.0
        for rate in rate_grid:
            result = run_scap(
                trace, rate * GBIT,
                PatternMatchApp.for_trace(trace, patterns),
                memory, name="scap", worker_threads=workers,
            )
            if result.drop_rate <= loss_threshold:
                best[workers] = rate
            else:
                break
    return best
