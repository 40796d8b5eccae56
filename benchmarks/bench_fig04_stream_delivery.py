"""Figure 4: delivering streams to user level — the cost of a copy.

Paper claims reproduced here (§6.3):
  * Libnids/Snort start dropping around 2.5–2.75 Gbit/s; by 6 Gbit/s
    they lose most packets, with user CPU saturated from ~3 Gbit/s.
  * Scap delivers all streams loss-free for at least ~2× higher rates
    (5.5 Gbit/s in the paper), with user CPU well under 60 % — the
    reassembly runs in the kernel, raising softirq load instead.
"""

from __future__ import annotations

from conftest import max_lossfree_rate

from repro.bench import fig04_stream_delivery, format_series, get_scale
from repro.bench.tables import STANDARD_METRICS


def test_fig04_stream_delivery(emit):
    series = fig04_stream_delivery(get_scale())
    emit(format_series(series, STANDARD_METRICS), name="fig04_stream_delivery")

    top = series.xs()[-1]
    scap_max = max_lossfree_rate(series, "scap")
    nids_max = max_lossfree_rate(series, "libnids")
    snort_max = max_lossfree_rate(series, "snort")
    # Headline: Scap delivers streams at ≥2x the baselines' rates.
    assert scap_max >= 2 * nids_max, (scap_max, nids_max)
    assert scap_max >= 2 * snort_max, (scap_max, snort_max)

    # Baselines saturate their single core; Scap stays below 60%.
    beyond_3g = [x for x in series.xs() if x >= 3.0]
    assert series.get("libnids", beyond_3g[0]).user_utilization > 0.9
    assert series.get("snort", beyond_3g[0]).user_utilization > 0.9
    assert series.get("scap", top).user_utilization < 0.60

    # In-kernel reassembly shifts work into software interrupts.
    assert series.get("scap", top).softirq_load > series.get("libnids", top).softirq_load

    # The baselines lose the majority of traffic at the top rate.
    assert series.get("libnids", top).drop_rate > 0.35
    assert series.get("snort", top).drop_rate > 0.35
