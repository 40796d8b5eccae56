"""Stage profiler: attribution accounting, reduction, and coverage."""

import json

from repro.apps import StreamDeliveryApp, attach_app
from repro.core import ScapSocket, scap_profile
from repro.observability import (
    ALL_STAGES,
    KERNEL_STAGES,
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
    profiler.record(STAGE_REASSEMBLY, core=0, seconds=0.25)
    profiler.record(STAGE_REASSEMBLY, core=1, seconds=0.75)
    profiler.record(STAGE_FLOW_LOOKUP, core=0, seconds=0.5)
    assert profiler.service_seconds[STAGE_REASSEMBLY] == 1.0
    assert profiler.samples[STAGE_REASSEMBLY] == 2
    assert profiler.per_core_seconds[STAGE_REASSEMBLY] == {0: 0.25, 1: 0.75}
    assert profiler.attributed_seconds == 1.5


def test_record_skips_negative_durations():
    profiler = _profiler()
    profiler.record(STAGE_REASSEMBLY, core=0, seconds=-0.1)
    profiler.record_wait(STAGE_REASSEMBLY, core=0, seconds=-0.1)
    assert profiler.attributed_seconds == 0.0
    assert profiler.wait_samples[STAGE_REASSEMBLY] == 0


def test_wait_is_tracked_separately_from_service():
    profiler = _profiler()
    profiler.record_wait(STAGE_PACKET_RECEIVE, core=2, seconds=0.5)
    assert profiler.attributed_seconds == 0.0
    report = profiler.report()
    entry = report.stage(STAGE_PACKET_RECEIVE)
    assert entry is not None
    assert entry.wait_seconds == 0.5 and entry.wait_samples == 1
    assert entry.service_seconds == 0.0


def test_report_fractions_and_coverage():
    profiler = _profiler()
    profiler.record(STAGE_REASSEMBLY, core=0, seconds=3.0)
    profiler.record(STAGE_FLOW_LOOKUP, core=0, seconds=1.0)
    report = profiler.report(busy_seconds=5.0)
    assert report.attributed_seconds == 4.0
    assert report.coverage == 4.0 / 5.0
    assert report.stage(STAGE_REASSEMBLY).fraction_of_busy == 3.0 / 5.0
    # Stages with no activity are omitted from the report.
    assert report.stage(STAGE_STORE_DRAIN) is None


def test_report_defaults_to_full_coverage_without_busy():
    profiler = _profiler()
    profiler.record(STAGE_REASSEMBLY, core=0, seconds=2.0)
    report = profiler.report()
    assert report.coverage == 1.0 and report.busy_seconds == 2.0


def test_format_and_to_dict_round_trip():
    profiler = _profiler()
    profiler.record(STAGE_REASSEMBLY, core=0, seconds=1.0)
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
    profiler.record(STAGE_REASSEMBLY, core=0, seconds=0.001)
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
