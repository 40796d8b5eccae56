"""Smoke tests of the experiment harness at a tiny scale."""

import pytest

from repro.bench import (
    BenchScale,
    fig04_stream_delivery,
    fig05_concurrent_streams,
    format_series,
    pfpacket_misses_per_packet,
    run_scap,
    scap_misses_per_packet,
)
from repro.bench.scenarios import _buffers, _trace
from repro.apps import StreamDeliveryApp
from repro.traffic import campus_mix


@pytest.fixture(scope="module")
def tiny_scale():
    return BenchScale(
        name="tiny",
        flow_count=60,
        max_flow_bytes=400_000,
        pattern_count=30,
        rates=(1.0, 4.0),
        concurrent_stream_counts=(10, 200),
        concurrent_table_limit=50,
    )


def test_fig04_structure(tiny_scale):
    series = fig04_stream_delivery(tiny_scale)
    assert set(series.systems()) == {"libnids", "snort", "scap"}
    assert series.xs() == [1.0, 4.0]
    for key, result in series.results.items():
        assert result.offered_packets > 0
        assert 0.0 <= result.drop_rate <= 1.0
    # The qualitative core: scap cheaper at user level.
    assert (
        series.get("scap", 4.0).user_utilization
        < series.get("libnids", 4.0).user_utilization
    )


def test_fig05_table_limit(tiny_scale):
    series = fig05_concurrent_streams(tiny_scale)
    assert series.get("libnids", 200).streams_lost == 150
    assert series.get("scap", 200).streams_lost == 0


def test_format_series_renders(tiny_scale):
    series = fig04_stream_delivery(tiny_scale)
    text = format_series(series)
    assert "fig04" in text and "libnids" in text and "drop%" in text
    assert str(4) in text


def test_run_scap_merges_ground_truth(tiny_scale):
    trace = _trace(tiny_scale, planted=False)
    _, memory = _buffers(tiny_scale, trace)
    result = run_scap(trace, 1e9, StreamDeliveryApp(), memory)
    assert result.streams_total_ground_truth > 0
    assert result.streams_lost == 0
    assert result.streams_delivered == result.streams_total_ground_truth


def test_cache_study_ordering():
    trace = campus_mix(flow_count=40, seed=13)
    libnids = pfpacket_misses_per_packet(trace)
    snort = pfpacket_misses_per_packet(trace, session_struct_bytes=256)
    scap = scap_misses_per_packet(trace)
    assert libnids.packets == snort.packets == scap.packets == len(trace)
    assert snort.misses_per_packet > libnids.misses_per_packet
    assert libnids.misses_per_packet > 1.5 * scap.misses_per_packet


def test_scale_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "standard")
    assert BenchScale.from_env().name == "standard"
    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
    tiny = BenchScale.from_env()
    assert (tiny.name, tiny.flow_count, tiny.rates) == ("tiny", 120, BenchScale().rates)
    monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
    assert BenchScale.from_env().name == "small"
    monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
    with pytest.raises(ValueError):
        BenchScale.from_env()


def test_run_result_helpers():
    from repro.results import RunResult

    result = RunResult(
        system="x", rate_bps=1e9, duration=1.0,
        offered_packets=100, dropped_packets=25,
        packets_by_priority={0: 50, 1: 50},
        drops_by_priority={0: 25},
    )
    assert result.drop_rate == 0.25
    assert result.priority_drop_rate(0) == 0.5
    assert result.priority_drop_rate(1) == 0.0
    assert result.priority_drop_rate(7) == 0.0
    assert "drop= 25.00%" in result.row()


def test_format_series_handles_missing_cells():
    from repro.bench import FigureSeries, format_series
    from repro.results import RunResult

    series = FigureSeries("figX", "rate")
    series.add("a", 1.0, RunResult("a", 1e9, 1.0, offered_packets=10))
    series.add("b", 2.0, RunResult("b", 2e9, 1.0, offered_packets=10))
    text = format_series(series)
    # Both sweep points and both systems render; holes stay blank.
    assert "figX" in text
    assert text.count("\n") > 5


def test_series_column_accessor():
    from repro.bench import FigureSeries
    from repro.results import RunResult

    series = FigureSeries("figY", "rate")
    for rate, drops in ((1.0, 0), (2.0, 5)):
        series.add(
            "sys", rate,
            RunResult("sys", rate * 1e9, 1.0, offered_packets=10,
                      dropped_packets=drops),
        )
    assert series.column("sys", lambda r: r.dropped_packets) == [0, 5]


def test_trace_replay_is_repeatable():
    """Replaying the same cached trace at different rates must not
    contaminate later replays (timestamps derive from base times)."""
    from repro.traffic import campus_mix

    trace = campus_mix(flow_count=20, seed=90)
    first = [p.timestamp for p in trace.replay(1e9)]
    list(trace.replay(7e9))  # a different rate in between
    second = [p.timestamp for p in trace.replay(1e9)]
    assert first == second


def test_cache_study_backlog_effect():
    """A longer ring backlog between kernel write and user read evicts
    more lines, increasing the PF_PACKET path's misses per packet —
    the mechanism behind Fig 7."""
    from repro.bench import pfpacket_misses_per_packet
    from repro.traffic import campus_mix

    trace = campus_mix(flow_count=60, seed=17)
    short = pfpacket_misses_per_packet(trace, backlog_packets=16)
    long = pfpacket_misses_per_packet(trace, backlog_packets=8192)
    assert long.misses_per_packet > short.misses_per_packet


def test_cache_study_scap_chunk_size_effect():
    """Bigger chunks sit longer before consumption, so some lines are
    evicted before the worker reads them — misses grow with chunk size
    (but stay far below the PF_PACKET path's)."""
    from repro.bench import scap_misses_per_packet
    from repro.traffic import campus_mix

    trace = campus_mix(flow_count=60, seed=17)
    small = scap_misses_per_packet(trace, chunk_size=4 * 1024)
    big = scap_misses_per_packet(trace, chunk_size=256 * 1024)
    assert big.misses_per_packet >= small.misses_per_packet
