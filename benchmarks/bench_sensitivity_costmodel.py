"""Sensitivity: do the paper's qualitative claims survive miscalibration?

DESIGN.md claims the reproduced *shapes* — who wins, who saturates
first — are robust to the calibrated cycle constants.  This bench
perturbs the most influential constants (cache-miss penalty, per-byte
copy cost, per-packet softirq cost) by ±50 % and re-checks the Fig 4
headline at each corner: Scap loss-free where the baseline drops, with
a large user-CPU gap.
"""

from __future__ import annotations

import dataclasses

from repro.apps import StreamDeliveryApp, attach_app
from repro.baselines import LibnidsEngine, PcapBasedSystem
from repro.bench import get_scale
from repro.bench.scenarios import GBIT, _buffers, _trace
from repro.core import ScapSocket
from repro.kernelsim import CostModel

PERTURBATIONS = [
    {},
    {"cache_miss_penalty": 0.5},
    {"cache_miss_penalty": 1.5},
    {"copy_per_byte": 0.5},
    {"copy_per_byte": 1.5},
    {"softirq_per_packet": 1.5},
    {"user_reassembly_per_segment": 1.5},
]


def _perturbed(factors: dict) -> CostModel:
    base = CostModel()
    values = {name: getattr(base, name) * factor for name, factor in factors.items()}
    return dataclasses.replace(base, **values)


def _claim_holds(cost_model: CostModel, trace, ring: int, memory: int) -> dict:
    """Fig 4's qualitative claim at one operating point (3 Gbit/s)."""
    rate = 3.0 * GBIT
    app = StreamDeliveryApp()
    socket = ScapSocket(
        trace, rate_bps=rate, memory_size=memory, cost_model=cost_model
    )
    attach_app(socket, app)
    scap = socket.start_capture(name="scap")
    nids = PcapBasedSystem(
        LibnidsEngine(StreamDeliveryApp(), cost_model=cost_model),
        ring_bytes=ring,
        cost_model=cost_model,
    ).run(trace, rate)
    return {
        "scap_drop": scap.drop_rate,
        "nids_drop": nids.drop_rate,
        "scap_cpu": scap.user_utilization,
        "nids_cpu": nids.user_utilization,
    }


def _sweep():
    scale = get_scale()
    trace = _trace(scale, planted=False)
    ring, memory = _buffers(scale, trace)
    return [
        (factors, _claim_holds(_perturbed(factors), trace, ring, memory))
        for factors in PERTURBATIONS
    ]


def test_sensitivity_costmodel(emit):
    outcomes = _sweep()
    rows = [
        f"{'perturbation':>34} {'scap drop%':>11} {'nids drop%':>11} "
        f"{'scap cpu%':>10} {'nids cpu%':>10}"
    ]
    for factors, outcome in outcomes:
        label = (
            ", ".join(f"{k}×{v:g}" for k, v in factors.items()) or "baseline"
        )
        rows.append(
            f"{label:>34} {outcome['scap_drop'] * 100:11.2f} "
            f"{outcome['nids_drop'] * 100:11.2f} "
            f"{outcome['scap_cpu'] * 100:10.2f} {outcome['nids_cpu'] * 100:10.2f}"
        )
    emit("\n".join(rows), name="sensitivity_costmodel")

    for factors, outcome in outcomes:
        # The qualitative claim must hold at every corner: Scap clean
        # and cheap while the user-level baseline is at (or past) the
        # edge of saturation.  (The exact rate at which the baseline
        # starts dropping shifts with the constants — that is absolute
        # calibration, not shape.)
        assert outcome["scap_drop"] < 0.01, (factors, outcome)
        assert outcome["nids_drop"] >= outcome["scap_drop"], (factors, outcome)
        assert outcome["nids_cpu"] > 0.8, (factors, outcome)
        assert outcome["scap_cpu"] < 0.6 * outcome["nids_cpu"], (factors, outcome)
