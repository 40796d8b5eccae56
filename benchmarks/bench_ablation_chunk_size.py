"""Ablation: stream chunk size.

Small chunks deliver data promptly but multiply per-event costs (event
creation, wakeups, callback dispatch); big chunks amortize them at the
price of latency and memory residency.  The paper uses 16 KB (§6.1);
this sweep shows why that is a sensible middle.
"""

from __future__ import annotations

from conftest import needs_small_scale

from repro.apps import StreamDeliveryApp
from repro.bench import get_scale
from repro.bench.scenarios import GBIT, _buffers, _trace
from repro.core import ScapSocket
from repro.apps import attach_app

CHUNK_SIZES = (1024, 4096, 16 * 1024, 64 * 1024)


def _sweep(rate_gbps: float = 4.0):
    scale = get_scale()
    trace = _trace(scale, planted=False)
    _, memory = _buffers(scale, trace)
    results = {}
    for chunk_size in CHUNK_SIZES:
        app = StreamDeliveryApp()
        socket = ScapSocket(trace, rate_bps=rate_gbps * GBIT, memory_size=memory)
        socket.set_parameter("chunk_size", chunk_size)
        attach_app(socket, app)
        results[chunk_size] = socket.start_capture(name=f"chunk-{chunk_size}")
    return results


@needs_small_scale
def test_ablation_chunk_size(emit):
    """Not run at ``tiny``: most of its 120 flows are shorter than a
    few chunks, so per-stream events set a floor.  1 KB chunks give
    2,500 events, only 3.6x the 692 of 16 KB chunks (the claim is >4x)."""
    results = _sweep()
    rows = [f"{'chunk':>8} {'events':>9} {'cpu%':>7} {'drop%':>7}"]
    for chunk_size, result in results.items():
        rows.append(
            f"{chunk_size:>8} {result.delivered_events:>9} "
            f"{result.user_utilization * 100:7.2f} {result.drop_rate * 100:7.2f}"
        )
    emit("\n".join(rows), name="ablation_chunk_size")

    # Event count scales inversely with chunk size ...
    assert results[1024].delivered_events > 4 * results[16 * 1024].delivered_events
    # ... and the per-event overhead makes small chunks measurably
    # more expensive at the same delivered volume.
    assert (
        results[1024].user_utilization
        > 1.15 * results[16 * 1024].user_utilization
    )
    # All configurations deliver the same bytes on this easy workload.
    volumes = {r.delivered_bytes for r in results.values()}
    assert len(volumes) == 1
