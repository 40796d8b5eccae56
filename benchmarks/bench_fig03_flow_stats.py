"""Figure 3: flow-statistics export — drop anything not needed.

Paper claims reproduced here (§6.2):
  * Libnids saturates one core and starts losing packets ≈2–2.5 Gbit/s;
    YAF lasts longer (≈4 Gbit/s) but also saturates — both bring every
    packet to user space just to throw it away.
  * Scap with a zero cutoff discards everything in the kernel: no loss
    at any rate, application CPU < 10 %.
  * With FDIR filters, data packets never reach main memory: the
    software-interrupt load collapses and only a small fraction of
    packets (session setup/teardown) is DMA'd at all.
"""

from __future__ import annotations

from conftest import first_drop_rate

from repro.bench import fig03_flow_statistics, format_series, get_scale
from repro.bench.tables import STANDARD_METRICS


def test_fig03_flow_statistics(emit):
    series = fig03_flow_statistics(get_scale())
    emit(format_series(series, STANDARD_METRICS), name="fig03_flow_stats")

    top = series.xs()[-1]
    # Scap (with or without FDIR) never drops; the pcap tools do.
    for system in ("scap", "scap-fdir"):
        assert all(series.get(system, x).drop_rate < 0.005 for x in series.xs())
    assert series.get("libnids", top).drop_rate > 0.10
    # YAF outlives Libnids but saturates eventually (its CPU pegs).
    assert first_drop_rate(series, "yaf") >= first_drop_rate(series, "libnids")
    assert series.get("yaf", top).user_utilization > 0.9

    # Scap's user-level application does almost nothing.
    assert all(series.get("scap", x).user_utilization < 0.15 for x in series.xs())
    # Libnids pegs its core by ~2.5 Gbit/s.
    rates_beyond = [x for x in series.xs() if x >= 2.5]
    assert series.get("libnids", rates_beyond[0]).user_utilization > 0.85

    # FDIR slashes the softirq load and the packets brought to memory.
    no_fdir = series.get("scap", top)
    fdir = series.get("scap-fdir", top)
    assert fdir.softirq_load < no_fdir.softirq_load * 0.75
    to_memory = fdir.extra["packets_to_memory"] / fdir.offered_packets
    assert to_memory < 0.35, f"FDIR should drop most packets at the NIC ({to_memory:.0%})"
