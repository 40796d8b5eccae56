"""Observability overhead: the disabled fast path must stay cheap.

The metrics/tracing hooks sit on the per-packet hot path (softirq
service, PPL checks, per-core counters), so their disabled cost is a
capture-throughput tax on every run that does not ask for them.  This
benchmark replays the same workload three ways — no Observability
object (baseline), Observability(enabled=False), and
Observability(enabled=True) — and reports wall-clock per replay.

Acceptance gate: disabled overhead within 2% of baseline.  That
includes the stage profiler's bookkeeping — per-stage cycle buckets are
maintained unconditionally (identical code enabled or disabled), so
profiling must not move the disabled/baseline ratio.  Wall-clock noise
is tamed by interleaving the configurations round-robin and taking the
best of several rounds.
"""

from __future__ import annotations

import gc
import time

from repro.apps import StreamDeliveryApp, attach_app
from repro.bench import get_scale
from repro.core import ScapSocket
from repro.observability import Observability
from repro.traffic import campus_mix

GBIT = 1e9
ROUNDS = 5
RATE = 4.0 * GBIT


def _run_once(trace, memory_size: int, observability=None) -> float:
    kwargs = {}
    if observability is not None:
        kwargs["observability"] = observability
    socket = ScapSocket(
        trace, rate_bps=RATE, memory_size=memory_size, **kwargs
    )
    attach_app(socket, StreamDeliveryApp())
    # Collect the previous replay's garbage now, so it is not charged to
    # this one (baseline and disabled run the same code; without this
    # their ratio spread 0.96-1.07 over ten runs, with it 0.97-1.02).
    gc.collect()
    start = time.perf_counter()
    socket.start_capture(name="obs-overhead")
    return time.perf_counter() - start


def _best_of_interleaved(trace, memory_size: int, factories) -> list:
    """Best-of-ROUNDS wall-clock per configuration, interleaved.

    Running the configurations round-robin (instead of all rounds of
    one, then the next) spreads slow-host drift evenly across them, so
    a background hiccup cannot systematically penalize one side of the
    comparison.
    """
    best = [float("inf")] * len(factories)
    for _ in range(ROUNDS):
        for index, make_obs in enumerate(factories):
            elapsed = _run_once(trace, memory_size, make_obs())
            best[index] = min(best[index], elapsed)
    return best


def test_observability_overhead(emit):
    scale = get_scale()
    trace = campus_mix(
        flow_count=scale.flow_count,
        max_flow_bytes=scale.max_flow_bytes,
        seed=7,
    )
    memory_size = max(
        1 << 19, int(trace.total_wire_bytes * scale.scap_memory_fraction)
    )

    # Warm up allocators and code paths before timing anything.
    _run_once(trace, memory_size, None)
    baseline, disabled, enabled = _best_of_interleaved(
        trace,
        memory_size,
        [
            lambda: None,
            lambda: Observability(enabled=False),
            lambda: Observability(enabled=True),
        ],
    )

    rows = [
        ("baseline (no observability)", baseline),
        ("observability disabled", disabled),
        ("observability enabled", enabled),
    ]
    lines = [f"{'configuration':<30} {'seconds':>9} {'vs baseline':>12}"]
    for label, seconds in rows:
        ratio = seconds / baseline if baseline > 0 else float("inf")
        lines.append(f"{label:<30} {seconds:>9.4f} {ratio:>11.3f}x")
    emit("\n".join(lines), name="observability_overhead")

    # Disabled hooks are a single boolean check: the stage tallies are
    # filled behind those same guards and published once per batch by
    # the end_batch methods, which return at once when disabled;
    # anything beyond 2% means structural cost leaked onto the
    # unobserved hot path.
    assert disabled <= baseline * 1.02, (disabled, baseline)
    # Enabled is allowed to cost more, but not pathologically so.
    assert enabled <= baseline * 2.0, (enabled, baseline)
