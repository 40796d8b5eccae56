"""Query API: turn indexed records back into reassembled streams.

A query selects records by five-tuple and/or time range through the
:class:`~repro.store.index.StoreIndex`, reads exactly the frames the
index named from their segments (one open per segment, ascending
offsets, every frame CRC-checked), and assembles them per stream
direction.  Records carry their ``stream_offset``, so assembly sorts by
offset and trims any overlap between adjacent records — re-recorded
bytes (chunk overlap, retransmission re-delivery) never appear twice in
the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..netstack.flows import FiveTuple
from .index import StoreIndex
from .segment import read_payloads

__all__ = ["StreamPayload", "QueryResult", "run_query"]


@dataclass
class StreamPayload:
    """One reassembled stream direction returned by a query."""

    #: Connection identity from the client's perspective.
    client_tuple: FiveTuple
    #: 0 = client-to-server bytes, 1 = server-to-client bytes.
    direction: int
    #: Reassembled payload (offset-sorted, overlap-deduplicated).
    data: bytes
    #: Simulated timestamp of the first contributing record.
    first_ts: float
    #: Simulated timestamp of the last contributing record.
    last_ts: float
    #: Stream offset of the first stored byte (0 unless the head was evicted).
    base_offset: int
    #: Bytes missing to gaps between stored records (eviction holes).
    gap_bytes: int = 0

    @property
    def directional_tuple(self) -> FiveTuple:
        """Five-tuple with the sender of these bytes as the source."""
        return self.client_tuple if self.direction == 0 else self.client_tuple.reversed()


@dataclass
class QueryResult:
    """All streams matched by one query, in first-timestamp order."""

    streams: List[StreamPayload] = field(default_factory=list)

    def __iter__(self) -> Iterator[StreamPayload]:
        return iter(self.streams)

    def __len__(self) -> int:
        return len(self.streams)

    @property
    def total_bytes(self) -> int:
        """Total reassembled payload bytes across all matched streams."""
        return sum(len(stream.data) for stream in self.streams)

    def connections(self) -> List[FiveTuple]:
        """Distinct client-perspective connections in this result."""
        seen: Dict[Tuple[int, int, int, int, int], FiveTuple] = {}
        for stream in self.streams:
            seen.setdefault(StoreIndex._key(stream.client_tuple), stream.client_tuple)
        return list(seen.values())


def run_query(
    index: StoreIndex,
    five_tuple: Optional[FiveTuple] = None,
    start_ts: Optional[float] = None,
    end_ts: Optional[float] = None,
) -> QueryResult:
    """Select, load, and reassemble matching streams from the store.

    Only the matching frames are read: each segment group the index
    returns is opened once and read at its entries' file offsets, which
    come in ascending order — so the cost is the matching records and
    their bytes, and a query that matches everything reads each segment
    front to back.  Frames are then grouped by connection and
    direction, offset-sorted, and overlap-trimmed.
    """
    groups: Dict[Tuple[int, int, int, int, int, int], List[Tuple[tuple, memoryview]]] = {}
    for segment, entries in index.lookup(five_tuple, start_ts, end_ts):
        for frame in read_payloads(segment.info.path, entries):
            src_ip, src_port, dst_ip, dst_port, protocol, direction, _, _, _ = frame[0]
            if (src_ip, src_port) <= (dst_ip, dst_port):
                key = (src_ip, src_port, dst_ip, dst_port, protocol, direction)
            else:
                key = (dst_ip, dst_port, src_ip, src_port, protocol, direction)
            groups.setdefault(key, []).append(frame)
    streams = [_assemble(frames) for frames in groups.values()]
    if len(streams) > 1:
        streams.sort(key=lambda stream: (stream.first_ts, stream.client_tuple, stream.direction))
    return QueryResult(streams=streams)


def _assemble(frames: List[Tuple[tuple, memoryview]]) -> StreamPayload:
    """Offset-sort, dedup overlap, and join one direction's payload views.

    ``frames`` are :func:`~repro.store.segment.read_payloads` items of
    one connection direction in read order (sorted here, in place, when
    there is more than one); the first names the stream.  A frame's
    fields are ``(src_ip, src_port, dst_ip, dst_port, protocol,
    direction, timestamp, stream_offset, priority)``.
    """
    fields, payload = frames[0]
    src_ip, src_port, dst_ip, dst_port, protocol, direction, timestamp, offset, _ = fields
    if direction:
        client_tuple = FiveTuple(dst_ip, dst_port, src_ip, src_port, protocol)
    else:
        client_tuple = FiveTuple(src_ip, src_port, dst_ip, dst_port, protocol)
    if len(frames) == 1:
        return StreamPayload(client_tuple, direction, bytes(payload), timestamp, timestamp, offset)
    frames.sort(key=lambda frame: (frame[0][7], -len(frame[1])))
    stamps = [fields[6] for fields, _ in frames]
    parts: List[memoryview] = []
    base_offset = next_offset = frames[0][0][7]
    gap_bytes = 0
    for fields, payload in frames:
        offset = fields[7]
        end = offset + len(payload)
        if end <= next_offset:
            continue  # fully duplicated bytes
        if offset >= next_offset:
            gap_bytes += offset - next_offset
            parts.append(payload)
        else:
            parts.append(payload[next_offset - offset :])
        next_offset = end
    return StreamPayload(
        client_tuple=client_tuple,
        direction=direction,
        data=b"".join(parts),
        first_ts=min(stamps),
        last_ts=max(stamps),
        base_offset=base_offset,
        gap_bytes=gap_bytes,
    )
