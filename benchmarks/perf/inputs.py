"""Seed → inputs: the only place the benchmark's inputs are made.

``repro`` receives nothing but what is generated here; the same
``--seed`` gives the same packets, a different one different packets of
the same shape (``spec.CAMPUS_UNIT``).
"""

from __future__ import annotations

import hashlib
import math
import struct

from repro.netstack.pcap import write_pcap
from repro.traffic.generator import CampusTrafficGenerator, TrafficConfig
from repro.traffic.tcpsession import Impairments
from repro.traffic.trace import Trace

from .spec import Workload

__all__ = ["sub_seed", "build_trace", "scaled_units", "trace_digest", "pcap_bytes"]

#: Divisor applied to unit counts by ``--scale tiny`` (self-tests only).
TINY_DIVISOR = 5


def sub_seed(seed: int, label: str) -> int:
    """An independent 31-bit seed for ``label`` under ``seed``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def scaled_units(units: int, scale: str) -> int:
    return max(1, units // TINY_DIVISOR) if scale == "tiny" else units


def _stratum(workload: Workload, seed: int, flows: int, size: int, tcp: bool) -> Trace:
    """``flows`` flows whose response is exactly ``size`` bytes."""
    config = TrafficConfig(
        seed=seed,
        flow_count=flows,
        tcp_fraction=1.0 if tcp else 0.0,
        # Every draw of the size model lands above the cap, so the cap
        # is the size: the generator's own way of fixing it.
        small_flow_fraction=1.0,
        lognormal_mu=math.log(size * 64.0),
        lognormal_sigma=0.01,
        max_flow_bytes=size,
        request_bytes_range=workload.request_bytes,
        impairments=Impairments(
            retransmit_rate=0.01, reorder_rate=0.01, overlap_rate=0.005, seed=seed
        ),
    )
    return CampusTrafficGenerator(config).generate(name=workload.name)


def build_trace(workload: Workload, seed: int, units: int) -> Trace:
    """``units`` traffic units of the workload's profile for ``seed``:
    one generated trace per stratum (and one of UDP flows), interleaved
    on their native timelines."""
    parts = [
        _stratum(workload, sub_seed(seed, f"{workload.name}:{units}:{index}"),
                 flows * units, size, tcp=True)
        for index, (flows, size) in enumerate(workload.unit)
    ]
    parts.append(_stratum(workload, sub_seed(seed, f"{workload.name}:{units}:udp"),
                          units, 512, tcp=False))
    trace = parts[0]
    for part in parts[1:]:
        trace = trace.merged_with(part, name=workload.name)
    return trace


def trace_digest(trace: Trace) -> str:
    """SHA-256 over every packet's time, tuple, length and payload."""
    trace.reset_timeline()
    sha = hashlib.sha256()
    pack = struct.Struct("<dIIIHHB").pack
    for packet in trace.packets:
        five_tuple = packet.five_tuple
        if five_tuple is None:
            continue
        sha.update(pack(
            packet.timestamp, packet.wire_len, five_tuple.src_ip, five_tuple.dst_ip,
            five_tuple.src_port, five_tuple.dst_port, five_tuple.protocol,
        ))
        sha.update(packet.payload)
    return sha.hexdigest()


def pcap_bytes(trace: Trace, path: str) -> bytes:
    """``trace`` in the submission form (classic pcap), via ``path``."""
    trace.reset_timeline()
    write_pcap(path, trace.packets)
    with open(path, "rb") as handle:
        return handle.read()
