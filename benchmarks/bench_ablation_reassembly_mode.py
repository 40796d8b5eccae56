"""Ablation: SCAP_TCP_FAST vs SCAP_TCP_STRICT under wire loss.

With segments lost before the monitoring point, strict reassembly
stalls at the first unfilled hole and ultimately drops everything
buffered behind it; best-effort (FAST) mode skips the hole, flags the
chunk, and keeps delivering — the property that makes Scap resilient
under overload (§2.3).
"""

from __future__ import annotations

from repro.apps import StreamDeliveryApp, attach_app
from repro.core import SCAP_TCP_FAST, SCAP_TCP_STRICT, ScapSocket
from repro.traffic import CampusTrafficGenerator, Impairments, TrafficConfig


def _lossy_trace():
    config = TrafficConfig(
        seed=29,
        flow_count=150,
        max_flow_bytes=1_000_000,
        impairments=Impairments(drop_rate=0.03, reorder_rate=0.02, seed=30),
        unterminated_fraction=0.0,
    )
    return CampusTrafficGenerator(config).generate(name="lossy-mix")


def _run(trace, mode):
    app = StreamDeliveryApp()
    socket = ScapSocket(
        trace, rate_bps=1e9, memory_size=1 << 24, reassembly_mode=mode
    )
    attach_app(socket, app)
    result = socket.start_capture(name=f"mode-{mode}")
    return app, result


def test_ablation_reassembly_mode(emit):
    trace = _lossy_trace()
    fast_app, fast = _run(trace, SCAP_TCP_FAST)
    strict_app, strict = _run(trace, SCAP_TCP_STRICT)
    wire_payload = sum(f.total_bytes for f in trace.flows)
    rows = [
        f"{'mode':>8} {'delivered_MB':>13} {'of wire payload':>16}",
        f"{'fast':>8} {fast_app.delivered_bytes / 1e6:13.2f} "
        f"{fast_app.delivered_bytes / wire_payload * 100:15.1f}%",
        f"{'strict':>8} {strict_app.delivered_bytes / 1e6:13.2f} "
        f"{strict_app.delivered_bytes / wire_payload * 100:15.1f}%",
    ]
    emit("\n".join(rows), name="ablation_reassembly_mode")

    # FAST mode recovers (nearly) everything that survived the wire;
    # STRICT loses the remainder of every holed stream.
    assert fast_app.delivered_bytes > 1.1 * strict_app.delivered_bytes
    assert fast_app.delivered_bytes >= 0.90 * wire_payload
    assert strict_app.delivered_bytes < 0.90 * wire_payload
