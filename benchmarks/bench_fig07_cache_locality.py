"""Figure 7: L2 cache misses per packet (§6.5.2).

Paper claims reproduced here (measured at a low, uncontended rate with
the set-associative cache simulator):
  * Snort ≈25 and Libnids ≈21 misses/packet — PF_PACKET interleaves
    packets of all flows in one huge ring, so user-level reassembly
    touches cold memory twice (ring read + stream-buffer copy).
  * Scap ≈ half of that: payloads are written once into contiguous
    per-stream chunks and consumed on the same core soon after.
"""

from __future__ import annotations

from repro.bench import (
    get_scale,
    pfpacket_misses_per_packet,
    scap_misses_per_packet,
)
from repro.bench.scenarios import _trace


def _run_study(trace):
    libnids = pfpacket_misses_per_packet(trace)
    snort = pfpacket_misses_per_packet(trace, session_struct_bytes=256)
    scap = scap_misses_per_packet(trace)
    return libnids, snort, scap


def test_fig07_cache_locality(emit):
    trace = _trace(get_scale(), False)
    libnids, snort, scap = _run_study(trace)
    rows = [
        f"{'system':>10} {'misses/packet':>14}",
        f"{'snort':>10} {snort.misses_per_packet:14.2f}",
        f"{'libnids':>10} {libnids.misses_per_packet:14.2f}",
        f"{'scap':>10} {scap.misses_per_packet:14.2f}",
    ]
    emit("\n".join(rows), name="fig07_cache_locality")

    # Ordering: snort > libnids > scap, with Scap around half.
    assert snort.misses_per_packet > libnids.misses_per_packet
    assert libnids.misses_per_packet > 1.6 * scap.misses_per_packet
    assert libnids.misses_per_packet < 4.0 * scap.misses_per_packet
    # Absolute ballparks from the paper (25 / 21 / 10).
    assert 10 < libnids.misses_per_packet < 40
    assert 4 < scap.misses_per_packet < 20
