"""The simulated 10GbE NIC front-end: FDIR first, then RSS.

Every arriving packet is classified in "hardware": if a Flow Director
filter matches, its action applies (steer to a queue, or drop before
DMA — the subzero-copy path); otherwise RSS picks the queue.  The
classification costs the host no cycles, exactly like the real card.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..netstack.packet import Packet
from ..observability import Observability
from .batch import (
    PacketBatch,
    VERDICT_DROP_FCS,
    VERDICT_DROP_FDIR,
    VERDICT_HOST,
    VERDICT_STEERED,
)
from .fdir import FlowDirectorTable
from .offload import OffloadEngine
from .rss import SYMMETRIC_RSS_KEY, RSSHasher

__all__ = ["SimulatedNIC", "NICStats"]


@dataclass
class NICStats:
    """Aggregate NIC counters (the card offers no per-filter statistics,
    which is why Scap estimates flow sizes from FIN/RST sequence
    numbers — §5.5)."""

    received: int = 0
    dropped_at_nic: int = 0
    steered_by_fdir: int = 0
    fcs_errors: int = 0
    per_queue: List[int] = field(default_factory=list)


class SimulatedNIC:
    """RX-side model of an Intel 82599-class adapter."""

    def __init__(
        self,
        queue_count: int = 8,
        rss_key: bytes = SYMMETRIC_RSS_KEY,
        observability: Optional[Observability] = None,
        sanitizers: Optional[object] = None,
    ):
        self.queue_count = queue_count
        self.rss = RSSHasher(queue_count, key=rss_key)
        self.fdir = FlowDirectorTable(observability=observability, sanitizers=sanitizers)
        self.offload = OffloadEngine(self.fdir, self.rss, queue_count)
        self.stats = NICStats(per_queue=[0] * queue_count)

    def classify(self, packet: Packet) -> Optional[int]:
        """Return the RX queue for ``packet``, or None if dropped in hardware.

        A one-packet batch through the offload stage, accounted at once:
        the FCS → FDIR drop/steer → RSS precedence lives only in
        :class:`~repro.nic.offload.OffloadEngine`.
        """
        batch = PacketBatch((packet,))
        self.offload.classify(batch)
        verdict = batch.verdicts[0]
        queue = batch.queues[0]
        fdir_drop = verdict == VERDICT_DROP_FDIR
        steered = verdict == VERDICT_STEERED
        delivered = steered or verdict == VERDICT_HOST
        per_queue = [0] * self.queue_count
        if delivered:
            per_queue[queue] = 1
        self.apply_batch_stats(
            received=1,
            fcs_errors=int(verdict == VERDICT_DROP_FCS),
            fdir_drops=int(fdir_drop),
            steered=int(steered),
            matched=int(fdir_drop or steered),
            per_queue=per_queue,
        )
        return queue if delivered else None

    def classify_batch(self, batch: PacketBatch, start: int = 0) -> int:
        """Fill the batch's verdict/queue vectors via the offload stage.

        Side-effect free (see :class:`~repro.nic.offload.OffloadEngine`);
        returns the FDIR table version the verdicts are valid against.
        The runtime accounts each verdict at consumption time through
        :meth:`apply_batch_stats`.
        """
        return self.offload.classify(batch, start)

    def apply_batch_stats(
        self,
        received: int,
        fcs_errors: int,
        fdir_drops: int,
        steered: int,
        matched: int,
        per_queue: List[int],
    ) -> None:
        """Fold one consumed batch's hardware accounting into the stats."""
        stats = self.stats
        stats.received += received
        stats.fcs_errors += fcs_errors
        stats.dropped_at_nic += fdir_drops
        stats.steered_by_fdir += steered
        if matched:
            self.fdir.count_match(matched)
        stats_per_queue = stats.per_queue
        for queue, count in enumerate(per_queue):
            if count:
                stats_per_queue[queue] += count

    def reset_stats(self) -> None:
        """Zero the NIC counters (filters and RSS state are kept)."""
        self.stats = NICStats(per_queue=[0] * self.queue_count)
