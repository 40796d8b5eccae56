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
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..netstack.flows import FiveTuple
from .index import Key, SegmentMeta, StoreIndex
from .segment import SegmentColumns, read_payloads

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
        seen: Dict[Key, FiveTuple] = {}
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
    overlap-trimmed.  A frame's identity is its row: its connection is
    its segment's key for the row's connection number (each segment's
    keys computed once per query) or, in a point query, where every row
    is of the one connection, the queried five-tuple; its direction is
    the row's.

    A planned read is strict: if a frame it asked for fails its check,
    the query reads again everything the lookup matched, as an unplanned
    query does, so damage to a frame the answer uses gives the answer an
    unplanned query gives.
    """
    groups = full = index.lookup(five_tuple, start_ts, end_ts)
    keys = None
    if five_tuple is None:
        keys = {segment.serial: StoreIndex._keys(segment.info.columns) for segment, _ in full}
    spans = None
    overlapping = index.overlapping
    if overlapping and (five_tuple is None or StoreIndex._key(five_tuple) in overlapping):
        groups, spans = _plan(groups, five_tuple, keys, overlapping)
    while True:
        directions: Dict[Tuple[Key, int], List[Tuple[SegmentColumns, int, memoryview]]] = {}
        for segment, rows in groups:
            info = segment.info
            columns = info.columns
            frames = read_payloads(info.path, columns, rows)
            if spans is not None and len(frames) < len(rows):
                break  # a planned frame failed its check
            names = None if five_tuple else keys[segment.serial]
            conn, direction = columns.conn, columns.direction
            for row, payload in frames:
                directions.setdefault(
                    (five_tuple or names[conn[row]], direction[row]), []
                ).append((columns, row, payload))
        else:
            break
        groups, spans = full, None
    streams = [_assemble(frames) for frames in directions.values()]
    if spans:
        # A planned direction's time span covers the frames left unread.
        for name, stream in zip(directions, streams):
            span = spans.get(name)
            if span is not None:
                stream.first_ts, stream.last_ts = span
    if len(streams) > 1:
        streams.sort(key=attrgetter("first_ts", "client_tuple", "direction"))
    return QueryResult(streams=streams)


def _plan(
    groups: List[Tuple[SegmentMeta, Sequence[int]]],
    five_tuple: Optional[FiveTuple],
    keys: Optional[Dict[int, List[Key]]],
    overlapping: Set[Key],
) -> Tuple[List[Tuple[SegmentMeta, Sequence[int]]], Dict[Tuple[Key, int], Tuple[float, float]]]:
    """The lookup ``groups`` without the frames assembly would discard.

    Works from the index columns alone.  Each direction of an
    ``overlapping`` connection is ordered as :func:`_assemble` orders
    its frames — by ``(stream_offset, -length)``, stable over lookup
    order — and a row whose end is not past the bytes already covered
    is dropped; the first row always stays, since it sets
    ``base_offset``.  A row's connection is named by ``five_tuple`` (a
    point query's, every row of which is planned) or by its key in
    ``keys`` (per segment serial, by connection number).  Returns the
    kept rows, grouped as ``groups`` (empty groups left out), and each
    planned direction's ``(first_ts, last_ts)`` over every matched row.
    """
    # Per planned direction, (stream_offset, -length, position, timestamp)
    # of each row, where position counts rows in lookup order: the
    # tuples sort into assembly's order with ties kept in lookup order.
    directions: Dict[Tuple[Key, int], List[tuple]] = {}
    position = 0
    for segment, rows in groups:
        columns = segment.info.columns
        # Per connection number, its key if it is planned, else None.
        planned = None if five_tuple else [
            name if name in overlapping else None for name in keys[segment.serial]
        ]
        conn, direction = columns.conn, columns.direction
        offsets, lengths, timestamps = columns.stream_offset, columns.length, columns.timestamp
        for row in rows:
            name = five_tuple or planned[conn[row]]
            if name is not None:
                directions.setdefault((name, direction[row]), []).append(
                    (offsets[row], -lengths[row], position, timestamps[row])
                )
            position += 1
    keep = bytearray(b"\x01") * position
    spans = {}
    for name, entries in directions.items():
        stamps = [entry[3] for entry in entries]
        spans[name] = (min(stamps), max(stamps))
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


def _assemble(frames: List[Tuple[SegmentColumns, int, memoryview]]) -> StreamPayload:
    """Offset-sort, dedup overlap, and join one direction's payload views.

    ``frames`` are ``(columns, row, payload)`` items of one connection
    direction in read order (sorted here, in place, when there is more
    than one): the payload a :func:`~repro.store.segment.read_payloads`
    view, its stream offset and timestamp in ``columns`` at ``row``.
    The first names the stream.
    """
    columns, row, payload = frames[0]
    client_tuple, direction = columns.client_tuple(row), columns.direction[row]
    if len(frames) == 1:
        timestamp = columns.timestamp[row]
        return StreamPayload(
            client_tuple, direction, bytes(payload), timestamp, timestamp,
            columns.stream_offset[row],
        )
    frames.sort(key=lambda frame: (frame[0].stream_offset[frame[1]], -len(frame[2])))
    stamps = [columns.timestamp[row] for columns, row, _ in frames]
    parts: List[memoryview] = []
    base_offset = next_offset = frames[0][0].stream_offset[frames[0][1]]
    gap_bytes = 0
    for columns, row, payload in frames:
        offset = columns.stream_offset[row]
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
