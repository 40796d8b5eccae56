"""The wire plane: faults applied to the replayed packet stream.

:class:`FaultedWorkload` wraps any workload exposing ``replay(rate_bps)``
(normally a :class:`~repro.traffic.trace.Trace`) and interposes the wire
faults of the run's :class:`~repro.faultinject.plan.FaultPlan` between
the replayer and the NIC: loss, duplication, reordering, payload
bit-flips, FCS corruption, and snaplen-style truncation.

Reordering swaps the *timestamps* of the affected packet and its
successor and yields them in timestamp order, so the arrival sequence
seen by the per-core softirq queues stays nondecreasing (the queue
model requires it) while the byte stream arrives out of order — the
same effect a reordering middlebox has on a capture port.

All mutating faults operate on shallow clones
(:func:`dataclasses.replace`), never on the trace's own packets, so a
trace replayed through a fault plan can be replayed clean afterwards.
"""

from __future__ import annotations

import dataclasses
from itertools import islice
from typing import Iterable, Iterator, List

from ..netstack.packet import Packet

__all__ = ["FaultedWorkload"]


class FaultedWorkload:
    """A workload with the wire fault plane interposed on replay."""

    def __init__(self, workload, injector):
        self._workload = workload
        self._injector = injector

    def __getattr__(self, name: str):
        # Ground truth (flows, name, totals, ...) passes through.
        return getattr(self._workload, name)

    def __len__(self) -> int:
        return len(self._workload)

    def replay(self, rate_bps: float) -> Iterator[Packet]:
        """Replay the wrapped workload with wire faults applied."""
        return self._reorder(self._per_packet(self._workload.replay(rate_bps)))

    def replay_batches(
        self, rate_bps: float, size: int
    ) -> Iterator[List[Packet]]:
        """Batched replay with wire faults applied.

        Defined explicitly so the runtime cannot reach the wrapped
        workload's own ``replay_batches`` through ``__getattr__`` —
        that would replay the clean trace and skip the wire plane
        entirely.  The chunks regroup this wrapper's faulted
        :meth:`replay` stream, so every batch size sees the identical
        faulted packet sequence.
        """
        if size < 1:
            raise ValueError("batch size must be positive")
        replay = self.replay(rate_bps)
        while True:
            chunk = list(islice(replay, size))
            if not chunk:
                return
            yield chunk

    # ------------------------------------------------------------------
    def _per_packet(self, packets: Iterable[Packet]) -> Iterator[Packet]:
        injector = self._injector
        faults = injector.plan.wire
        window = faults.window
        rng = injector._rngs["wire"]
        record = injector._record
        for packet in packets:
            now = packet.timestamp
            if not window.contains(now):
                yield packet
                continue
            if faults.drop_rate > 0.0 and rng.random() < faults.drop_rate:
                record(now, "wire", "drop", f"bytes={packet.wire_len}")
                continue
            if faults.fcs_corrupt_rate > 0.0 and rng.random() < faults.fcs_corrupt_rate:
                record(now, "wire", "fcs_corrupt", f"bytes={packet.wire_len}")
                yield dataclasses.replace(packet, fcs_corrupt=True)
                continue
            if (
                faults.corrupt_rate > 0.0
                and packet.payload
                and rng.random() < faults.corrupt_rate
            ):
                bit = rng.randrange(len(packet.payload) * 8)
                payload = bytearray(packet.payload)
                payload[bit // 8] ^= 1 << (bit % 8)
                record(now, "wire", "corrupt", f"bit={bit}")
                packet = dataclasses.replace(packet, payload=bytes(payload))
            if (
                faults.truncate_rate > 0.0
                and packet.payload
                and rng.random() < faults.truncate_rate
            ):
                keep = rng.randrange(len(packet.payload))
                record(now, "wire", "truncate", f"kept={keep}")
                # wire_len is carried over: the frame was full size on
                # the wire, only the capture is short (snaplen).
                packet = dataclasses.replace(packet, payload=packet.payload[:keep])
            if faults.duplicate_rate > 0.0 and rng.random() < faults.duplicate_rate:
                record(now, "wire", "duplicate", f"bytes={packet.wire_len}")
                yield dataclasses.replace(packet)
            yield packet

    def _reorder(self, packets: Iterable[Packet]) -> Iterator[Packet]:
        injector = self._injector
        faults = injector.plan.wire
        if faults.reorder_rate <= 0.0:
            yield from packets
            return
        window = faults.window
        rng = injector._rngs["wire"]
        iterator = iter(packets)
        for packet in iterator:
            if window.contains(packet.timestamp) and rng.random() < faults.reorder_rate:
                successor = next(iterator, None)
                if successor is None:
                    yield packet
                    return
                # Swap timestamps and yield in timestamp order: arrival
                # times stay nondecreasing, content arrives swapped.
                packet.timestamp, successor.timestamp = (
                    successor.timestamp,
                    packet.timestamp,
                )
                injector._record(successor.timestamp, "wire", "reorder", "")
                yield successor
                yield packet
            else:
                yield packet
