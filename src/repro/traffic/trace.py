"""Trace container: an ordered packet sequence plus ground truth.

A :class:`Trace` owns the packets of a generated (or loaded) workload
together with everything the experiment harness needs to score results:
per-flow specifications, planted pattern matches, totals.  Replaying at
a target bit-rate rescales the original timestamps uniformly — exactly
what replaying a captured trace faster does in the paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Sequence

from ..netstack.flows import FiveTuple
from ..netstack.packet import Packet
from ..netstack.pcap import check_pcap

__all__ = ["FlowSpec", "PlantedMatch", "PcapSource", "Timeline", "Trace"]


@dataclass
class PlantedMatch:
    """Ground truth for one pattern occurrence planted by the generator."""

    flow_index: int
    direction: int
    stream_offset: int  # byte offset within the reassembled stream direction
    pattern: bytes


@dataclass
class FlowSpec:
    """Ground truth for one generated flow."""

    index: int
    five_tuple: FiveTuple  # client perspective
    protocol: int
    client_bytes: int
    server_bytes: int
    start_time: float
    packet_count: int = 0
    planted: List[PlantedMatch] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return self.client_bytes + self.server_bytes


class Timeline:
    """Native timestamps (in replay order) and wire bytes of a workload,
    its ``duration`` (first to last packet) and ``native_rate_bps``.
    Replay at a bit-rate rescales the timestamps uniformly from the first,
    as tcpreplay's ``--multiplier`` does: the one retiming of
    :class:`Trace` and :class:`PcapSource`."""

    def __init__(self, base_times: List[float], wire_lens: Iterable[int]):
        self._base_times = base_times
        self.total_wire_bytes = sum(wire_lens)
        duration = self.duration = base_times[-1] - base_times[0] if base_times else 0.0
        self.native_rate_bps = self.total_wire_bytes * 8 / duration if duration > 0 else float("inf")

    def replayed_duration(self, rate_bps: float) -> float:
        """Duration of the workload when replayed at ``rate_bps``."""
        return self.total_wire_bytes * 8 / rate_bps

    def _replay_times(self, rate_bps: float) -> List[float]:
        """Every packet's timestamp when the workload plays at ``rate_bps``."""
        if rate_bps <= 0:
            raise ValueError("replay rate must be positive")
        native = self.native_rate_bps
        scale = 1.0 if native in (0.0, float("inf")) else native / rate_bps
        origin = self._base_times[0] if self._base_times else 0.0
        return [(base_time - origin) * scale for base_time in self._base_times]


class Trace(Timeline):
    """An immutable-ish packet workload with ground truth and replay.

    ``packets`` must already be sorted by timestamp.  ``replay(rate)``
    yields the packets with uniformly rescaled timestamps (mutating each
    packet's ``timestamp`` in place — runs are sequential, and this
    avoids copying the whole trace per rate point).
    """

    def __init__(
        self,
        packets: Sequence[Packet],
        flows: Optional[Sequence[FlowSpec]] = None,
        name: str = "trace",
    ):
        self.packets: List[Packet] = list(packets)
        self.packets.sort(key=lambda packet: packet.timestamp)
        self.flows: List[FlowSpec] = list(flows or [])
        self.name = name
        super().__init__([p.timestamp for p in self.packets], (p.wire_len for p in self.packets))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    @property
    def planted_matches(self) -> List[PlantedMatch]:
        return [match for flow in self.flows for match in flow.planted]

    # ------------------------------------------------------------------
    def replay(self, rate_bps: float) -> Iterator[Packet]:
        """Yield packets retimed (in place) so the trace plays at ``rate_bps``."""
        for packet, timestamp in zip(self.packets, self._replay_times(rate_bps)):
            packet.timestamp = timestamp
            yield packet

    def replay_batches(self, rate_bps: float, size: int) -> Iterator[List[Packet]]:
        """Yield retimed packets in lists of up to ``size``.

        Identical retiming and ordering to :meth:`replay`; the runtime
        uses this to skip one generator resume per packet.
        """
        times = self._replay_times(rate_bps)
        if size <= 0:
            raise ValueError("batch size must be positive")
        packets = self.packets
        for start in range(0, len(packets), size):
            chunk = packets[start : start + size]
            for packet, timestamp in zip(chunk, times[start : start + size]):
                packet.timestamp = timestamp
            yield chunk

    def reset_timeline(self) -> None:
        """Restore every packet's native timestamp.

        :meth:`replay` rescales timestamps in place; callers that reuse
        the trace afterwards reset first so they see the native
        timeline, not the last replay's.
        """
        for packet, base_time in zip(self.packets, self._base_times):
            packet.timestamp = base_time

    def close(self) -> None:
        """Drop the packets: a capture's socket outlives it in a GC cycle."""
        del self.packets[:]

    # ------------------------------------------------------------------
    def merged_with(self, other: "Trace", name: Optional[str] = None) -> "Trace":
        """Interleave two traces on their native timelines."""
        offset = len(self.flows)
        merged_flows = list(self.flows)
        for flow in other.flows:
            reindexed = FlowSpec(
                index=flow.index + offset,
                five_tuple=flow.five_tuple,
                protocol=flow.protocol,
                client_bytes=flow.client_bytes,
                server_bytes=flow.server_bytes,
                start_time=flow.start_time,
                packet_count=flow.packet_count,
                planted=[
                    PlantedMatch(match.flow_index + offset, match.direction,
                                 match.stream_offset, match.pattern)
                    for match in flow.planted
                ],
            )
            merged_flows.append(reindexed)
        return Trace(
            list(self.packets) + list(other.packets),
            merged_flows,
            name=name or f"{self.name}+{other.name}",
        )

    def summary(self) -> str:
        """A one-line human-readable description."""
        return (
            f"{self.name}: {len(self.packets)} packets, {len(self.flows)} flows, "
            f"{self.total_wire_bytes / 1e6:.2f} MB, native {self.native_rate_bps / 1e9:.3f} Gbit/s"
        )


class PcapSource(Timeline):
    """A pcap file replayed without a packet list (the packets equal
    ``Trace(read_pcap(...))``'s).  Construction checks every frame and
    stable-sorts the records, so a malformed frame anywhere refuses the
    file; replay builds each batch's packets, retimed, when asked for."""

    def __init__(self, data, name: str = "pcap"):
        records = sorted(check_pcap(data), key=itemgetter(0))  # stable
        super().__init__([record[0] for record in records], [record[1] for record in records])
        self.name = name
        self._data = data
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def replay(self, rate_bps: float) -> Iterator[Packet]:
        """Yield the packets retimed for ``rate_bps``, one at a time."""
        for packets in self.replay_batches(rate_bps, 1):
            yield packets[0]

    def replay_batches(self, rate_bps: float, size: int) -> Iterator[List[Packet]]:
        """Yield the packets retimed for ``rate_bps`` in lists of up to ``size``."""
        times = self._replay_times(rate_bps)
        if size <= 0:
            raise ValueError("batch size must be positive")
        data, records, build = self._data, self._records, Packet.from_fields
        for start in range(0, len(records), size):
            batch = zip(records[start : start + size], times[start : start + size])
            yield [build(data, fields, time, wire_len) for (_, wire_len, fields), time in batch]

    def close(self) -> None:
        """Drop the file and its records; a later replay is empty."""
        self._data, self._records, self._base_times = b"", [], []
