"""Packet batches: the unit of work on the capture hot path.

Moving one Python object per packet per pipeline hop is exactly the
per-packet overhead the paper removes from the kernel (§2, §4); the
pipeline moves a :class:`PacketBatch` instead.  A batch is a read-only
view over a bounded run of consecutively arriving packets (a run of
one is the degenerate case, not a different path):

* ``packets`` — the packets, in arrival order (each carries its own
  flow key, ``Packet.five_tuple``);
* ``arena`` — one contiguous ``bytes`` buffer holding every
  payload back to back, built lazily on first use;
* ``queues`` / ``verdicts`` — the per-batch RSS/FDIR verdict vectors
  filled in by the NIC's offload stage before any packet is charged to
  host cost-model accounting.

The batch carries *hardware* decisions only; all kernel-visible side
effects (counters, trace hooks, sanitizer calls) happen per packet as
the runtime consumes the batch, which is what keeps every output
independent of the batch size.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..netstack.packet import Packet

__all__ = [
    "PacketBatch",
    "VERDICT_PENDING",
    "VERDICT_HOST",
    "VERDICT_STEERED",
    "VERDICT_DROP_FDIR",
    "VERDICT_DROP_FCS",
]

#: Verdict vector states.  ``PENDING`` only ever appears before the
#: offload stage ran over the slot; the runtime never consumes it.
VERDICT_PENDING = -1
#: Deliver to the host on the RSS-selected queue.
VERDICT_HOST = 0
#: Deliver to the host on a queue chosen by an FDIR steering filter.
VERDICT_STEERED = 1
#: Dropped in hardware by an FDIR drop filter (subzero copy, §5.5).
VERDICT_DROP_FDIR = 2
#: Dropped by the MAC for a bad frame checksum.
VERDICT_DROP_FCS = 3


class PacketBatch:
    """A bounded run of packets moving through the pipeline together."""

    __slots__ = ("packets", "queues", "verdicts", "_arena")

    def __init__(self, packets: Sequence[Packet]):
        self.packets: List[Packet] = list(packets)
        count = len(self.packets)
        self.queues: List[int] = [0] * count
        self.verdicts: List[int] = [VERDICT_PENDING] * count
        self._arena: Optional[bytes] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.packets)

    @property
    def arena(self) -> bytes:
        """All payloads of the batch, back to back in one buffer.

        Nothing in the pipeline reads it yet; it stays because the
        benchmark's layer table (``benchmarks/perf/spec.py``) names it.
        """
        if self._arena is None:
            self._arena = b"".join(packet.payload for packet in self.packets)
        return self._arena

    # ------------------------------------------------------------------
    def total_wire_bytes(self) -> int:
        """Sum of wire lengths across the batch."""
        # A list, not a generator: one frame per batch, not one resume
        # per packet.
        return sum([packet.wire_len for packet in self.packets])
