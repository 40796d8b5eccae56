"""The generic hardware offload stage: per-batch drop/steer verdicts.

This generalizes the Flow Director table into the offload pipeline
stage of a programmable NIC (after Deri et al.'s hardware flow-offload
fast path): given a :class:`~repro.nic.batch.PacketBatch`, fill in the
batch's verdict and queue vectors — FCS drop, FDIR drop (subzero
copy), FDIR steer, or RSS — before a single packet is charged to host
cost-model accounting.

Verdict computation is side-effect free: no NIC counter moves and no
filter-match statistics are recorded here.  The runtime accounts each
verdict when (and only when) it consumes the packet, so a batch tail
re-classified after a mid-batch filter install or removal never
double-counts.  ``FlowDirectorTable.version`` is the coherence signal:
the runtime re-runs :meth:`OffloadEngine.classify` over the unconsumed
tail whenever the version moved, which makes verdicts identical to
classifying every packet immediately before its softirq, whatever the
batch size.
"""

from __future__ import annotations

from .batch import (
    PacketBatch,
    VERDICT_DROP_FCS,
    VERDICT_DROP_FDIR,
    VERDICT_HOST,
    VERDICT_STEERED,
)
from .fdir import FDIR_DROP, FlowDirectorTable
from .rss import RSSHasher

__all__ = ["OffloadEngine"]


class OffloadEngine:  # scapcheck: single-owner
    """Evaluates a batch's hardware verdicts against FDIR + RSS.

    Single-owner: one engine per simulated NIC, driven only by that
    NIC's runtime; there is no cross-core sharing to lock against.
    """

    def __init__(self, fdir: FlowDirectorTable, rss: RSSHasher, queue_count: int):
        self.fdir = fdir
        self.rss = rss
        self.queue_count = queue_count

    # ------------------------------------------------------------------
    def classify(self, batch: PacketBatch, start: int = 0) -> int:
        """Fill ``batch.verdicts``/``batch.queues`` from ``start`` on.

        Pure verdict computation — no counters move.  Returns the FDIR
        table version the verdicts are valid against; the runtime
        re-classifies the unconsumed tail when the version changes.
        """
        fdir = self.fdir
        packets = batch.packets
        queues = batch.queues
        verdicts = batch.verdicts
        queue_count = self.queue_count
        fdir_empty = len(fdir) == 0
        # The hasher's own memo: a dict lookup per packet, a Python call
        # only for a directional tuple this NIC has not seen.
        rss_queues = self.rss.queues
        for index in range(start, len(packets)):
            packet = packets[index]
            if packet.fcs_corrupt:
                verdicts[index] = VERDICT_DROP_FCS
                continue
            if not fdir_empty:
                matched = fdir.peek(packet)
                if matched is not None:
                    if matched.action_queue == FDIR_DROP:
                        verdicts[index] = VERDICT_DROP_FDIR
                    else:
                        verdicts[index] = VERDICT_STEERED
                        queues[index] = matched.action_queue % queue_count
                    continue
            verdicts[index] = VERDICT_HOST
            five_tuple = packet.five_tuple
            if five_tuple is None:
                queues[index] = 0  # non-IP frames land on queue 0
            else:
                queues[index] = rss_queues[five_tuple]
        return fdir.version
