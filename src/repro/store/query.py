"""Query API: turn indexed records back into reassembled streams.

A query selects records by five-tuple and/or time range through the
:class:`~repro.store.index.StoreIndex`, plans which of them its answer
uses, reads exactly those frames from their segments (one open per
segment, ascending offsets, every frame CRC-checked), and assembles
them per stream direction.  Records carry their ``stream_offset``, so
assembly sorts by offset and trims any overlap between adjacent
records — re-recorded bytes (a capture submitted twice, chunk overlap,
retransmission re-delivery) never appear twice in the output.

The plan applies assembly's own rule to the index columns, so a record
whose bytes an earlier one already covers is never read.  It runs only
for connections in the index's ``overlapping`` set; a store without
re-recorded bytes takes the unplanned read unchanged.  If a frame the
plan asked for fails its check, the query reads everything it matched
again, unplanned: damage to a frame the answer uses gives the
unplanned answer, and damage to a frame the plan dropped goes unseen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..netstack.flows import FiveTuple
from .index import SegmentMeta, StoreIndex
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
    returns is opened once and read at its rows' file offsets, which
    come in ascending order — so the cost is the matching records and
    their bytes, and a query that matches everything reads each segment
    front to back.  Where a matched connection is in the index's
    ``overlapping`` set, :func:`_plan` first drops the frames whose
    bytes assembly would discard, so those are never read.  Frames are
    then grouped by connection and direction, offset-sorted, and
    overlap-trimmed.

    A planned read is strict: if a frame it asked for fails its check,
    the query reads again everything the lookup matched, as an unplanned
    query does, so damage to a frame the answer uses gives the answer an
    unplanned query gives.
    """
    groups = full = index.lookup(five_tuple, start_ts, end_ts)
    spans = None
    overlapping = index.overlapping
    if overlapping and (five_tuple is None or StoreIndex._key(five_tuple) in overlapping):
        groups, spans = _plan(groups, overlapping)
    while True:
        directions: Dict[Tuple[int, int, int, int, int, int], List[Tuple[tuple, memoryview]]] = {}
        for segment, rows in groups:
            info = segment.info
            frames = read_payloads(info.path, info.columns, rows)
            if spans is not None and len(frames) < len(rows):
                break  # a planned frame failed its check
            for frame in frames:
                src_ip, src_port, dst_ip, dst_port, protocol, direction, _, _, _ = frame[0]
                if (src_ip, src_port) <= (dst_ip, dst_port):
                    key = (src_ip, src_port, dst_ip, dst_port, protocol, direction)
                else:
                    key = (dst_ip, dst_port, src_ip, src_port, protocol, direction)
                directions.setdefault(key, []).append(frame)
        else:
            break
        groups, spans = full, None
    streams = [_assemble(frames) for frames in directions.values()]
    if spans:
        # A planned direction's time span covers the frames left unread.
        for key, stream in zip(directions, streams):
            span = spans.get(key)
            if span is not None:
                stream.first_ts, stream.last_ts = span
    if len(streams) > 1:
        streams.sort(key=lambda stream: (stream.first_ts, stream.client_tuple, stream.direction))
    return QueryResult(streams=streams)


def _plan(
    groups: List[Tuple[SegmentMeta, Sequence[int]]], overlapping: Set[Tuple[int, ...]]
) -> Tuple[List[Tuple[SegmentMeta, Sequence[int]]], Dict[Tuple[int, ...], Tuple[float, float]]]:
    """The lookup ``groups`` without the frames assembly would discard.

    Works from the index columns alone.  Each direction of an
    ``overlapping`` connection is ordered as :func:`_assemble` orders
    its frames — by ``(stream_offset, -length)``, stable over lookup
    order — and a row whose end is not past the bytes already covered
    is dropped; the first row always stays, since it sets
    ``base_offset``.  Returns the kept rows, grouped as ``groups``
    (empty groups left out), and each planned direction's
    ``(first_ts, last_ts)`` over every matched row.
    """
    # Per planned direction, (stream_offset, -length, position, timestamp)
    # of each row, where position counts rows in lookup order: the
    # tuples sort into assembly's order with ties kept in lookup order.
    directions: Dict[Tuple[int, int, int, int, int, int], List[tuple]] = {}
    position = 0
    for segment, rows in groups:
        columns = segment.info.columns
        tuples, conn, direction = columns.tuples, columns.conn, columns.direction
        offsets, lengths, timestamps = columns.stream_offset, columns.length, columns.timestamp
        for row in rows:
            start = 5 * conn[row]
            src_ip, src_port, dst_ip, dst_port, protocol = tuples[start : start + 5]
            if (src_ip, src_port) <= (dst_ip, dst_port):
                key = (src_ip, src_port, dst_ip, dst_port, protocol)
            else:
                key = (dst_ip, dst_port, src_ip, src_port, protocol)
            if key in overlapping:
                directions.setdefault(key + (direction[row],), []).append(
                    (offsets[row], -lengths[row], position, timestamps[row])
                )
            position += 1
    keep = bytearray(b"\x01") * position
    spans = {}
    for key, entries in directions.items():
        stamps = [entry[3] for entry in entries]
        spans[key] = (min(stamps), max(stamps))
        entries.sort()
        offset, negative_length, _, _ = entries[0]
        covered = offset - negative_length
        for offset, negative_length, position, _ in entries[1:]:
            end = offset - negative_length
            if end <= covered:
                keep[position] = 0
            else:
                covered = end
    if all(keep):
        return groups, spans
    kept = []
    position = 0
    for segment, rows in groups:
        end = position + len(rows)
        rows = list(compress(rows, keep[position:end]))
        position = end
        if rows:
            kept.append((segment, rows))
    return kept, spans


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
