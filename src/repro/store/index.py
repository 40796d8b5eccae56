"""In-memory index over the store's segments, rebuilt by scanning.

The index is *derived* state: opening a store directory scans every
``seg-*.scap`` file with the truncation-tolerant reader, so recovery
after a crash and a normal open are the same code path; a segment the
writer seals while the store is open is indexed from the entries the
writer kept, without re-reading it.  Per record we keep a small
:class:`RecordMeta` (identity, time, offset into both the stream and
the file, and the segment it lives in) grouped per segment in file
order, plus one lookup map from canonical five-tuple to that
connection's entries.  A lookup returns its matches grouped per
segment; a five-tuple lookup costs what it matches, a lookup without
time bounds hands over the lists it keeps instead of walking them, and
none touches disk: the file is opened only for the payload bytes of
the frames a lookup named.  The index also keeps the set of connections
whose stored bytes may overlap (:attr:`StoreIndex.overlapping`), so a
query plans its read only where a frame can be redundant.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from ..netstack.flows import FiveTuple
from .segment import RecordMeta, SegmentInfo, read_segment

__all__ = ["RecordMeta", "SegmentMeta", "StoreIndex"]


@dataclass
class SegmentMeta:
    """One segment file plus the metadata of every record inside it."""

    info: SegmentInfo
    records: List[RecordMeta] = field(default_factory=list)

    @property
    def path(self) -> str:
        """Path of the segment file."""
        return self.info.path

    @property
    def payload_bytes(self) -> int:
        """Live payload bytes indexed in this segment."""
        return sum(record.length for record in self.records)


class StoreIndex:
    """Lookup structure over all indexed segments of one store.

    Mutated only by the one thread that drives the owning store
    (`` # scapcheck: single-owner `` applies to callers); supports
    add/remove of whole segments (sealing, retention) and in-place
    replacement after compaction rewrites.  Those are the only ways
    records enter or leave the index, so they keep the record, payload
    and disk totals as running sums: reading them costs O(1).  They
    keep :attr:`overlapping` the same way.
    """

    def __init__(self):
        self.segments: Dict[str, SegmentMeta] = {}
        self._by_tuple: Dict[Tuple[int, int, int, int, int], List[RecordMeta]] = {}
        #: Keys of the connections with a direction some record of which
        #: starts before the end of the one indexed before it in that
        #: direction (a bucket's order): re-recorded bytes, or records
        #: out of offset order.  A connection outside the set has every
        #: direction in offset order without overlap, so no frame of it
        #: is redundant to a query.  Callers must not mutate it.
        self.overlapping: Set[Tuple[int, int, int, int, int]] = set()
        #: Per key and direction, the end offset of the last record
        #: indexed; what the next record is checked against.
        self._ends: Dict[Tuple[int, int, int, int, int], Dict[int, int]] = {}
        self._record_count = 0
        self._payload_bytes = 0
        self._disk_bytes = 0

    # ------------------------------------------------------------------
    @property
    def record_count(self) -> int:
        """Total records indexed across all segments."""
        return self._record_count

    @property
    def payload_bytes(self) -> int:
        """Total live payload bytes indexed across all segments."""
        return self._payload_bytes

    @property
    def disk_bytes(self) -> int:
        """Total on-disk bytes of all indexed segment files."""
        return self._disk_bytes

    # ------------------------------------------------------------------
    def scan_directory(self, directory: str) -> List[SegmentMeta]:
        """(Re)build the index from every segment file in ``directory``."""
        self.segments.clear()
        self._by_tuple.clear()
        self.overlapping.clear()
        self._ends.clear()
        self._record_count = self._payload_bytes = self._disk_bytes = 0
        added = []
        for name in sorted(os.listdir(directory)):
            if not (name.startswith("seg-") and name.endswith(".scap")):
                continue
            added.append(self.add_segment_file(os.path.join(directory, name)))
        return added

    def add_segment_file(self, path: str) -> SegmentMeta:
        """Scan one segment file and index everything recoverable."""
        _records, info = read_segment(path)
        return self._install(SegmentMeta(info=info, records=info.records))

    def add_sealed(self, info: SegmentInfo) -> SegmentMeta:
        """Index a segment the writer just sealed, without rescanning."""
        return self._install(SegmentMeta(info=info, records=info.records))

    def _install(self, segment: SegmentMeta) -> SegmentMeta:
        # Records are installed in file order and a segment all at once,
        # so inside a bucket one segment's entries are adjacent and in
        # file order; removal keeps that (lookup relies on both).  The
        # key is the same for either direction, so no client tuple is built.
        self.segments[segment.path] = segment
        by_tuple, ends = self._by_tuple, self._ends
        for meta in segment.records:
            meta.segment = segment
            key = self._key(meta.five_tuple)
            bucket = by_tuple.get(key)
            if bucket is None:
                by_tuple[key] = [meta]
                ends[key] = last = {}
            else:
                bucket.append(meta)
                last = ends[key]
            direction = meta.direction
            if meta.stream_offset < last.get(direction, 0):
                self.overlapping.add(key)
            last[direction] = meta.stream_offset + meta.length
        self._record_count += len(segment.records)
        self._payload_bytes += segment.payload_bytes
        self._disk_bytes += segment.info.disk_bytes
        return segment

    def remove_segment(self, path: str) -> Optional[SegmentMeta]:
        """Drop one segment (and its records) from the index."""
        segment = self.segments.pop(path, None)
        if segment is None:
            return None
        self._record_count -= len(segment.records)
        self._payload_bytes -= segment.payload_bytes
        self._disk_bytes -= segment.info.disk_bytes
        for key in {self._key(meta.five_tuple) for meta in segment.records}:
            bucket = [meta for meta in self._by_tuple[key] if meta.segment is not segment]
            self.overlapping.discard(key)
            if bucket:
                self._by_tuple[key] = bucket
                self._recheck(key, bucket)
            else:
                del self._by_tuple[key]
                del self._ends[key]
        return segment

    def _recheck(self, key: Tuple[int, int, int, int, int], bucket: List[RecordMeta]) -> None:
        """Recompute one connection's overlap flag and end offsets from
        what is left of its bucket, as ``_install`` would have."""
        last = self._ends[key] = {}
        for meta in bucket:
            if meta.stream_offset < last.get(meta.direction, 0):
                self.overlapping.add(key)
            last[meta.direction] = meta.stream_offset + meta.length

    def replace_segment(self, path: str, replacement: SegmentMeta) -> None:
        """Swap a segment's index entry after a compaction rewrite."""
        self.remove_segment(path)
        self._install(replacement)

    # ------------------------------------------------------------------
    @staticmethod
    def _key(five_tuple: FiveTuple) -> Tuple[int, int, int, int, int]:
        """The connection's key: its canonical form as plain ints, the
        same for either direction (``FiveTuple.canonical``, unbuilt)."""
        src_ip, src_port, dst_ip, dst_port, protocol = five_tuple
        if (src_ip, src_port) <= (dst_ip, dst_port):
            return (src_ip, src_port, dst_ip, dst_port, protocol)
        return (dst_ip, dst_port, src_ip, src_port, protocol)

    def lookup(
        self,
        five_tuple: Optional[FiveTuple] = None,
        start_ts: Optional[float] = None,
        end_ts: Optional[float] = None,
    ) -> List[Tuple[SegmentMeta, List[RecordMeta]]]:
        """The matches of a tuple/time query, grouped per segment.

        ``five_tuple`` matches either direction of the connection;
        ``start_ts``/``end_ts`` bound the record timestamp inclusively.
        With no arguments, everything matches.  Groups come in
        ``(first_ts, path)`` order, entries in file order inside a
        group, and no group is empty.  With a ``five_tuple`` only that
        connection's entries are visited, not the whole index.  Without
        time bounds the lists the index keeps are handed over: each
        segment's ``records``, or the bucket of a connection whose
        entries sit in one segment; only a connection spread over
        several segments is split into per-segment runs.  Callers must
        not mutate the lists.
        """
        if five_tuple is None:
            groups = [
                (segment, segment.records)
                for segment in self.segments.values()
                if segment.records
            ]
        else:
            bucket = self._by_tuple.get(self._key(five_tuple))
            if bucket is None:
                return []
            if bucket[0].segment is bucket[-1].segment:
                groups = [(bucket[0].segment, bucket)]
            else:
                groups = [
                    (segment, list(metas))
                    for segment, metas in groupby(bucket, attrgetter("segment"))
                ]
        groups.sort(key=lambda group: (group[0].info.first_ts, group[0].info.path))
        if start_ts is None and end_ts is None:
            return groups
        low = -math.inf if start_ts is None else start_ts
        high = math.inf if end_ts is None else end_ts
        kept = []
        for segment, metas in groups:
            info = segment.info
            if info.last_ts < low or info.oldest_ts > high:
                continue
            metas = [meta for meta in metas if low <= meta.timestamp <= high]
            if metas:
                kept.append((segment, metas))
        return kept

    def connections(self) -> List[FiveTuple]:
        """All distinct connections stored, as client-perspective tuples.

        In order of first appearance, segments taken in ``(first_ts,
        path)`` order and records in file order.
        """

        def store_order(meta: RecordMeta) -> Tuple[float, str, int]:
            return (meta.segment.info.first_ts, meta.segment.path, meta.file_offset)

        first = [min(bucket, key=store_order) for bucket in self._by_tuple.values()]
        first.sort(key=store_order)
        return [meta.client_tuple for meta in first]
