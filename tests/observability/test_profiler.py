"""Stage profiler: attribution accounting, reduction, and coverage."""

import json

from repro.apps import StreamDeliveryApp, attach_app
from repro.core import (
    Callbacks,
    Event,
    EventType,
    ScapSocket,
    StreamDescriptor,
    StreamMemory,
    WorkerPool,
    scap_profile,
)
from repro.kernelsim import DEFAULT_COST_MODEL, LocalityProfile
from repro.netstack import FiveTuple, IPProtocol
from repro.observability import (
    ALL_STAGES,
    KERNEL_STAGES,
    STAGE_EVENT_DEQUEUE,
    STAGE_FLOW_LOOKUP,
    STAGE_PACKET_RECEIVE,
    STAGE_REASSEMBLY,
    STAGE_STORE_DRAIN,
    STAGE_WORKER_CALLBACK,
    MetricsRegistry,
    Observability,
    StageProfiler,
)
from repro.traffic import campus_mix

GBIT = 1e9


def _profiler():
    return StageProfiler(MetricsRegistry(enabled=True))


def _record(profiler, stage, core, seconds):
    """What a component does per service sample, then its batch's end."""
    tally = profiler.stages[stage]
    tally.service.tally[seconds] += 1
    tally.service.running += seconds
    tally.per_core[core] += seconds
    tally.publish()


def _record_wait(profiler, stage, seconds):
    tally = profiler.stages[stage]
    tally.wait.tally[seconds] += 1
    tally.wait.running += seconds
    tally.publish()


def _observed_socket(flow_count=60, rate_gbit=4.0, **socket_kwargs):
    trace = campus_mix(flow_count=flow_count, max_flow_bytes=200_000, seed=5)
    obs = Observability(enabled=True)
    socket = ScapSocket(
        trace, rate_bps=rate_gbit * GBIT, observability=obs, **socket_kwargs
    )
    attach_app(socket, StreamDeliveryApp())
    socket.start_capture(name="profiled")
    return socket


# ---------------------------------------------------------------------------
# Unit: recording and reduction
# ---------------------------------------------------------------------------
def test_stage_order_is_pipeline_order():
    assert ALL_STAGES[: len(KERNEL_STAGES)] == KERNEL_STAGES
    assert ALL_STAGES[0] == STAGE_PACKET_RECEIVE
    assert ALL_STAGES[-1] == STAGE_STORE_DRAIN


def test_record_accumulates_per_stage_and_core():
    profiler = _profiler()
    _record(profiler, STAGE_REASSEMBLY, core=0, seconds=0.25)
    _record(profiler, STAGE_REASSEMBLY, core=1, seconds=0.75)
    _record(profiler, STAGE_FLOW_LOOKUP, core=0, seconds=0.5)
    reassembly = profiler.stages[STAGE_REASSEMBLY]
    assert reassembly.service.sum == 1.0
    assert reassembly.service.total == 2
    assert reassembly.per_core == {0: 0.25, 1: 0.75}
    assert profiler.attributed_seconds == 1.5


def test_record_skips_negative_durations():
    """A queue wait computed as ``finish - service - ready`` can come out
    a hair below zero by float rounding; the worker pool records no wait
    sample for it (the RX-ring wait follows the same rule)."""
    cycles = 1_000.0

    def dispatch_at(ready_time):
        obs = Observability(enabled=True)
        pool = WorkerPool(
            worker_count=1, cost_model=DEFAULT_COST_MODEL, locality=LocalityProfile(),
            event_queue_capacity=16, memory=StreamMemory(1 << 20),
            callbacks=Callbacks(creation_cost=lambda event: cycles),
            observability=obs,
        )
        stream = StreamDescriptor(FiveTuple(1, 1000, 2, 80, IPProtocol.TCP), 0, IPProtocol.TCP)
        pool.dispatch(0, Event(EventType.STREAM_CREATED, stream, ready_time), ready_time)
        pool.end_batch()
        return pool.servers[0].busy_seconds, obs.profiler.stages[STAGE_EVENT_DEQUEUE]

    service, dequeue = dispatch_at(0.0)
    assert dequeue.service.total == 1 and dequeue.wait.total == 1
    # An idle queue starts service at ``ready``; find one that rounds below.
    ready = next(
        tenth / 10 for tenth in range(1, 200)
        if (tenth / 10 + service) - service - tenth / 10 < 0.0
    )
    _, dequeue = dispatch_at(ready)
    assert dequeue.service.total == 1 and dequeue.wait.total == 0


def test_wait_is_tracked_separately_from_service():
    profiler = _profiler()
    _record_wait(profiler, STAGE_PACKET_RECEIVE, seconds=0.5)
    assert profiler.attributed_seconds == 0.0
    report = profiler.report()
    entry = report.stage(STAGE_PACKET_RECEIVE)
    assert entry is not None
    assert entry.wait_seconds == 0.5 and entry.wait_samples == 1
    assert entry.service_seconds == 0.0


def test_report_fractions_and_coverage():
    profiler = _profiler()
    _record(profiler, STAGE_REASSEMBLY, core=0, seconds=3.0)
    _record(profiler, STAGE_FLOW_LOOKUP, core=0, seconds=1.0)
    report = profiler.report(busy_seconds=5.0)
    assert report.attributed_seconds == 4.0
    assert report.coverage == 4.0 / 5.0
    assert report.stage(STAGE_REASSEMBLY).fraction_of_busy == 3.0 / 5.0
    # Stages with no activity are omitted from the report.
    assert report.stage(STAGE_STORE_DRAIN) is None


def test_report_defaults_to_full_coverage_without_busy():
    profiler = _profiler()
    _record(profiler, STAGE_REASSEMBLY, core=0, seconds=2.0)
    report = profiler.report()
    assert report.coverage == 1.0 and report.busy_seconds == 2.0


def test_format_and_to_dict_round_trip():
    profiler = _profiler()
    _record(profiler, STAGE_REASSEMBLY, core=0, seconds=1.0)
    report = profiler.report(busy_seconds=2.0)
    text = report.format()
    assert "reassembly" in text and text.splitlines()[-1].startswith("total")
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["coverage"] == 0.5
    assert payload["stages"][0]["stage"] == STAGE_REASSEMBLY
    assert payload["stages"][0]["per_core_seconds"] == {"0": 1.0}


def test_profiler_exports_stage_metrics():
    registry = MetricsRegistry(enabled=True)
    profiler = StageProfiler(registry)
    _record(profiler, STAGE_REASSEMBLY, core=0, seconds=0.001)
    from repro.observability import to_prometheus

    text = to_prometheus(registry)
    assert 'scap_stage_service_seconds_count{stage="reassembly"} 1' in text
    assert 'scap_stage_busy_seconds_total{stage="reassembly"}' in text


# ---------------------------------------------------------------------------
# Integration: a full capture run attributes (nearly) all busy time
# ---------------------------------------------------------------------------
def test_capture_run_attribution_covers_busy_time():
    socket = _observed_socket()
    report = scap_profile(socket)
    assert report.busy_seconds > 0.0
    # Acceptance: per-stage sums reconstruct >= 95% of the simulated
    # busy time (attribution is exact by construction, so this holds
    # with plenty of margin).
    assert report.coverage >= 0.95
    # The kernel stages and both worker stages all saw traffic.
    for stage in (
        STAGE_PACKET_RECEIVE,
        STAGE_FLOW_LOOKUP,
        STAGE_REASSEMBLY,
        STAGE_WORKER_CALLBACK,
    ):
        entry = report.stage(stage)
        assert entry is not None and entry.service_seconds > 0.0, stage
    # Fractions are consistent with the totals.
    total_fraction = sum(entry.fraction_of_busy for entry in report.stages)
    assert abs(total_fraction - report.coverage) < 1e-9


def test_capture_run_records_queue_wait():
    socket = _observed_socket(flow_count=80, rate_gbit=8.0)
    report = socket.profile()
    entry = report.stage(STAGE_PACKET_RECEIVE)
    assert entry is not None
    assert entry.wait_samples > 0
    assert entry.wait_seconds >= 0.0


def test_disabled_run_attributes_nothing():
    trace = campus_mix(flow_count=30, max_flow_bytes=100_000, seed=5)
    obs = Observability(enabled=False)
    socket = ScapSocket(trace, rate_bps=2.0 * GBIT, observability=obs)
    attach_app(socket, StreamDeliveryApp())
    socket.start_capture(name="unprofiled")
    report = socket.profile()
    assert report.attributed_seconds == 0.0
    assert report.stages == []
    # The servers were genuinely busy; only attribution was off.
    assert report.busy_seconds > 0.0
