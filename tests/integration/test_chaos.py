"""Chaos soak integration: seeded fault plans, degradation invariants.

The tentpole acceptance tests live here: the same fault-plan seed must
produce a byte-identical fault schedule and identical end-of-run stats
across runs, injected fault counts must reconcile exactly with the
observed drop/error counters, and the pipeline must degrade — never
crash, never corrupt delivery order — under randomized fault plans
with every sanitizer enabled.
"""

from __future__ import annotations

import pytest

from repro.faultinject import (
    FaultInjector,
    FaultPlan,
    FaultWindow,
    MemoryFaults,
    SchedFaults,
    StoreFaults,
    WireFaults,
)
from repro.faultinject.soak import build_soak_trace, run_chaos_soak

SOAK_KWARGS = dict(flows=12, records_per_direction=24)


def test_same_seed_byte_identical_schedule_and_stats():
    plan = FaultPlan.randomized(seed=42, intensity=0.05)
    first = run_chaos_soak(plan, **SOAK_KWARGS)
    second = run_chaos_soak(plan, **SOAK_KWARGS)
    assert first.ok, first.failures
    assert sum(first.faults_injected.values()) > 0
    assert first.schedule == second.schedule
    assert first.schedule_digest == second.schedule_digest
    assert first.stats == second.stats
    assert first.faults_injected == second.faults_injected


def test_different_seeds_differ():
    first = run_chaos_soak(FaultPlan.randomized(seed=1), **SOAK_KWARGS)
    second = run_chaos_soak(FaultPlan.randomized(seed=2), **SOAK_KWARGS)
    assert first.schedule_digest != second.schedule_digest


@pytest.mark.parametrize("seed", [3, 7, 11, 19])
def test_randomized_plans_hold_invariants(seed):
    plan = FaultPlan.randomized(seed=seed, intensity=0.06)
    report = run_chaos_soak(plan, **SOAK_KWARGS)
    assert report.ok, report.failures
    assert report.delivered_streams > 0
    assert report.delivered_records > 0


@pytest.mark.parametrize("seed", [109, 121, 132, 133])
def test_full_intensity_plans_with_late_syns(seed):
    """The soak's full-intensity seeds that duplicate or reorder a SYN
    behind data: the direction keeps its anchor, nothing is re-delivered."""
    report = run_chaos_soak(FaultPlan.randomized(seed=seed, intensity=1.0))
    assert report.ok, report.failures
    assert report.delivered_records > 0


def test_fault_free_plan_delivers_everything():
    report = run_chaos_soak(FaultPlan(seed=0), **SOAK_KWARGS)
    assert report.ok, report.failures
    assert not report.faults_injected
    assert report.stats.pkts_dropped == 0
    # Every record of every flow direction arrives, in order.
    assert report.delivered_records == 12 * 24 * 2


def test_reconciliation_is_exact():
    plan = FaultPlan(
        seed=5,
        wire=WireFaults(drop_rate=0.02, duplicate_rate=0.02, fcs_corrupt_rate=0.02),
        memory=MemoryFaults(alloc_failure_rate=0.02),
        sched=SchedFaults(backpressure_rate=0.02),
    )
    report = run_chaos_soak(plan, **SOAK_KWARGS)
    assert report.ok, report.failures
    # The harness checks injector-vs-runtime equality internally; the
    # public stats must carry the same totals.
    assert report.stats.faults_injected_total == sum(report.faults_injected.values())
    assert report.stats.nic_fcs_errors == report.faults_injected.get(
        "wire.fcs_corrupt", 0
    )
    # FCS-corrupted frames are dropped by the NIC and must be part of
    # the socket's unintentional-drop accounting.
    assert report.stats.pkts_dropped >= report.stats.nic_fcs_errors


def test_priority_degradation_under_pure_pressure():
    plan = FaultPlan(seed=7, memory=MemoryFaults(pressure_boost=0.95))
    report = run_chaos_soak(
        plan, flows=30, records_per_direction=60, memory_size=1 << 20
    )
    assert report.ok, report.failures
    drops = {p: d for p, (_n, d) in report.per_priority.items()}
    assert sum(drops.values()) > 0, "pressure plan produced no PPL drops"
    top = max(report.per_priority)
    assert drops[top] == 0, "highest priority degraded despite lower-priority slack"


def test_corruption_plan_does_not_crash():
    plan = FaultPlan(
        seed=9,
        wire=WireFaults(corrupt_rate=0.05, truncate_rate=0.03, drop_rate=0.05),
        memory=MemoryFaults(alloc_failure_rate=0.05, pressure_boost=0.4),
        sched=SchedFaults(stall_rate=0.05, backpressure_rate=0.05),
    )
    report = run_chaos_soak(plan, **SOAK_KWARGS)
    assert report.ok, report.failures


def test_chaos_with_store_plane(tmp_path):
    plan = FaultPlan(
        seed=13,
        store=StoreFaults(write_error_rate=0.05, torn_write_rate=0.4),
    )
    report = run_chaos_soak(plan, store_dir=str(tmp_path), **SOAK_KWARGS)
    assert report.ok, report.failures
    assert report.store_segments_read > 0
    # Store-plane faults were drawn (write errors and/or torn seals).
    assert any(key.startswith("store.") for key in report.faults_injected)


def test_windowed_faults_only_fire_inside_window():
    window = FaultWindow(start=0.001, end=0.002)
    plan = FaultPlan(seed=4, wire=WireFaults(drop_rate=0.5, window=window))
    report = run_chaos_soak(plan, **SOAK_KWARGS)
    assert report.ok, report.failures
    times = [float(line.split()[0]) for line in report.schedule]
    assert times, "a 50% drop rate inside the window must fire at least once"
    assert all(window.start <= t < window.end for t in times)


def test_wrap_workload_is_noop_without_wire_faults():
    plan = FaultPlan(seed=1, memory=MemoryFaults(alloc_failure_rate=0.1))
    injector = FaultInjector(plan)
    trace = build_soak_trace(flows=2, records_per_direction=4)
    assert injector.wrap_workload(trace) is trace


def test_offered_packet_identity():
    plan = FaultPlan(seed=21, wire=WireFaults(drop_rate=0.05, duplicate_rate=0.05))
    trace_len = len(build_soak_trace(**{
        "flows": SOAK_KWARGS["flows"],
        "records_per_direction": SOAK_KWARGS["records_per_direction"],
    }))
    report = run_chaos_soak(plan, **SOAK_KWARGS)
    assert report.ok, report.failures
    offered = (
        trace_len
        - report.faults_injected.get("wire.drop", 0)
        + report.faults_injected.get("wire.duplicate", 0)
    )
    assert report.stats.pkts_received == offered - report.stats.nic_fcs_errors
