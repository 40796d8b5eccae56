"""The simulated monitoring host: cores and their interrupt servers.

Mirrors the testbed sensor: eight 2.00 GHz cores, one NIC RX queue per
core, the software-interrupt handler of each queue pinned to its core.
User-level threads get their own servers, created by the capture
systems (which know whether they are single-threaded like Libnids or
one-worker-per-core like Scap).
"""

from __future__ import annotations

from typing import List

from .costmodel import CostModel, DEFAULT_COST_MODEL
from .server import QueueServer

__all__ = ["Host", "RX_RING_PACKETS"]

#: Packets each per-queue NIC descriptor ring holds: if the softirq
#: handler falls that far behind, the NIC drops on the wire side (rare
#: in practice — the ring to user space fills first).
RX_RING_PACKETS = 4096


class Host:
    """Cores plus per-core software-interrupt queue servers, each
    bounded by :data:`RX_RING_PACKETS`."""

    def __init__(
        self,
        core_count: int = 8,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ):
        if core_count < 1:
            raise ValueError("need at least one core")
        self.core_count = core_count
        self.cost_model = cost_model
        self.softirq: List[QueueServer] = [
            QueueServer(RX_RING_PACKETS, name=f"softirq-core{core}")
            for core in range(core_count)
        ]

    def softirq_load(self, duration: float) -> float:
        """Fraction of total CPU time spent in software interrupts."""
        if duration <= 0:
            return 0.0
        busy = sum(server.busy_seconds for server in self.softirq)
        return min(1.0, busy / (duration * self.core_count))
