"""Figure 5: millions of concurrent streams — flow-table exhaustion.

Paper claims reproduced here (§6.4, scaled: the baselines' ~10^6-entry
tables and the 10^7-stream sweep are scaled down together; see
DESIGN.md):
  * Libnids/Snort cannot track more concurrent streams than their
    fixed-size tables hold — beyond the limit, new streams are lost in
    proportion to the excess.
  * Scap allocates stream records dynamically and loses none, at CPU
    and softirq loads that barely move with the stream count.
"""

from __future__ import annotations

from repro.bench import fig05_concurrent_streams, format_series, get_scale


def _metrics():
    return [
        ("streams_lost%", lambda r: r.stream_loss_rate * 100, "7.2f"),
        ("cpu%", lambda r: r.user_utilization * 100, "6.2f"),
        ("sirq%", lambda r: r.softirq_load * 100, "5.2f"),
    ]


def test_fig05_concurrent_streams(emit):
    scale = get_scale()
    series = fig05_concurrent_streams(scale)
    emit(format_series(series, _metrics()), name="fig05_concurrent_streams")

    limit = scale.concurrent_table_limit
    for count in series.xs():
        scap = series.get("scap", count)
        assert scap.streams_lost == 0, f"Scap lost streams at {count}"
        for system in ("libnids", "snort"):
            result = series.get(system, count)
            if count <= limit:
                assert result.streams_lost == 0, (system, count)
            else:
                expected = 1 - limit / count
                assert abs(result.stream_loss_rate - expected) < 0.15, (
                    system, count, result.stream_loss_rate, expected,
                )

    # CPU stays in the comfort zone at this fixed 1 Gbit/s rate.
    top = series.xs()[-1]
    assert series.get("scap", top).user_utilization < 0.5
