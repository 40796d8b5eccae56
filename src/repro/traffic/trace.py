"""Trace container: an ordered packet sequence plus ground truth.

A :class:`Trace` owns the packets of a generated (or loaded) workload
together with everything the experiment harness needs to score results:
per-flow specifications, planted pattern matches, totals.  Replaying at
a target bit-rate rescales the original timestamps uniformly — exactly
what replaying a captured trace faster does in the paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from ..netstack.flows import FiveTuple
from ..netstack.packet import Packet

__all__ = ["FlowSpec", "PlantedMatch", "Trace"]


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


class Trace:
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
        self._base_times = [packet.timestamp for packet in self.packets]
        self.total_wire_bytes = sum(packet.wire_len for packet in self.packets)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    @property
    def duration(self) -> float:
        """Native duration in virtual seconds (first to last packet)."""
        if not self.packets:
            return 0.0
        return self._base_times[-1] - self._base_times[0]

    @property
    def native_rate_bps(self) -> float:
        """The bit-rate implied by the native timestamps."""
        duration = self.duration
        if duration <= 0:
            return float("inf")
        return self.total_wire_bytes * 8 / duration

    @property
    def planted_matches(self) -> List[PlantedMatch]:
        return [match for flow in self.flows for match in flow.planted]

    # ------------------------------------------------------------------
    def replay(self, rate_bps: float) -> Iterator[Packet]:
        """Yield packets retimed so the trace plays at ``rate_bps``.

        Timestamps are rescaled uniformly from the native timeline (so
        relative ordering and interleaving are preserved, as with
        tcpreplay's ``--multiplier``) and written back into each packet.
        """
        if rate_bps <= 0:
            raise ValueError("replay rate must be positive")
        native = self.native_rate_bps
        scale = 1.0 if native in (0.0, float("inf")) else native / rate_bps
        origin = self._base_times[0] if self._base_times else 0.0
        for packet, base_time in zip(self.packets, self._base_times):
            packet.timestamp = (base_time - origin) * scale
            yield packet

    def replay_batches(self, rate_bps: float, size: int) -> Iterator[List[Packet]]:
        """Yield retimed packets in lists of up to ``size``.

        Identical retiming and ordering to :meth:`replay`; the runtime
        uses this to skip one generator resume per packet.
        """
        if rate_bps <= 0:
            raise ValueError("replay rate must be positive")
        if size <= 0:
            raise ValueError("batch size must be positive")
        native = self.native_rate_bps
        scale = 1.0 if native in (0.0, float("inf")) else native / rate_bps
        origin = self._base_times[0] if self._base_times else 0.0
        packets = self.packets
        base_times = self._base_times
        for start in range(0, len(packets), size):
            chunk = packets[start : start + size]
            for packet, base_time in zip(chunk, base_times[start : start + size]):
                packet.timestamp = (base_time - origin) * scale
            yield chunk

    def reset_timeline(self) -> None:
        """Restore every packet's native timestamp.

        :meth:`replay` rescales timestamps in place; callers that slice
        or re-shard the trace afterwards (e.g. the sharded capture)
        reset first so derived traces see the native timeline, not the
        last replay's.
        """
        for packet, base_time in zip(self.packets, self._base_times):
            packet.timestamp = base_time

    def replayed_duration(self, rate_bps: float) -> float:
        """Duration of the trace when replayed at ``rate_bps``."""
        return self.total_wire_bytes * 8 / rate_bps

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
