"""Figure 6: pattern matching — drops, matches found, streams lost.

Paper claims reproduced here (§6.5):
  * Snort/Libnids are loss-free only up to ~0.75 Gbit/s; single-worker
    Scap reaches ~1 Gbit/s.
  * Under heavy overload Scap delivers ≈3× more traffic and finds
    several times more matches, because it keeps stream beginnings
    (where web-attack patterns live), delivers contiguous chunks, and
    always sees handshake packets so streams are not lost wholesale.
  * Stream loss for the baselines tracks their packet loss; Scap's
    stays far lower (14 % at 81 % loss in the paper).
  * Per-packet delivery ("Scap with packets") performs the same, with
    slightly fewer matches (patterns spanning packets are missed).
"""

from __future__ import annotations

from conftest import max_lossfree_rate

from repro.bench import fig06_pattern_matching, format_series, get_scale


def _metrics():
    return [
        ("drop%", lambda r: r.drop_rate * 100, "6.2f"),
        ("matched%", lambda r: r.match_rate * 100, "7.2f"),
        ("streams_lost%", lambda r: r.stream_loss_rate * 100, "7.2f"),
        ("delivered_MB", lambda r: r.delivered_bytes / 1e6, "8.2f"),
    ]


def test_fig06_pattern_matching(emit):
    series = fig06_pattern_matching(get_scale())
    emit(format_series(series, _metrics()), name="fig06_pattern_matching")

    top = series.xs()[-1]
    # Scap sustains a higher loss-free rate than the baselines.
    assert max_lossfree_rate(series, "scap") >= max_lossfree_rate(series, "libnids")
    assert max_lossfree_rate(series, "scap") >= max_lossfree_rate(series, "snort")

    scap_top = series.get("scap", top)
    nids_top = series.get("libnids", top)
    snort_top = series.get("snort", top)
    # At the top rate Scap delivers several times more stream data ...
    assert scap_top.delivered_bytes > 2.0 * nids_top.delivered_bytes
    # ... finds a multiple of the matches ...
    assert scap_top.match_rate > 2.0 * max(nids_top.match_rate, snort_top.match_rate)
    # ... and loses far fewer streams than its packet-loss rate implies.
    assert scap_top.stream_loss_rate < 0.5 * scap_top.drop_rate
    assert scap_top.stream_loss_rate < nids_top.stream_loss_rate

    # Baselines' stream loss roughly tracks their packet loss.
    assert nids_top.stream_loss_rate > 0.5 * nids_top.drop_rate

    # Packet-based delivery: same capture performance, matches at most
    # equal (cross-packet patterns can be missed).
    for x in series.xs():
        chunked = series.get("scap", x)
        packets = series.get("scap-pkts", x)
        assert abs(packets.drop_rate - chunked.drop_rate) < 0.1
        assert packets.matches_found <= chunked.matches_found + 2
    low = series.xs()[0]
    assert series.get("scap-pkts", low).match_rate > 0.9
