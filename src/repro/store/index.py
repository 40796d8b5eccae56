"""In-memory index over the store's segments, rebuilt by scanning.

The index is *derived* state: opening a store directory scans every
``seg-*.scap`` file with the truncation-tolerant reader, so recovery
after a crash and a normal open are the same code path; a segment the
writer seals while the store is open is indexed from the columns the
writer kept, without re-reading it.  No record is a Python object: per
segment the index keeps the
:class:`~repro.store.segment.SegmentColumns` its writer or scan filled,
one ``array`` per field with a row per frame, and per connection one
``array`` of row numbers (its *bucket*) under the connection's
canonical five-tuple.  A lookup returns row numbers grouped per
segment; a five-tuple lookup costs what it matches, and none touches
disk: the file is opened only for the payload bytes of the frames a
lookup named.  The index also keeps the set of connections whose
stored bytes may overlap (:attr:`StoreIndex.overlapping`), so a query
plans its read only where a frame can be redundant.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..netstack.flows import FiveTuple
from .segment import SegmentColumns, SegmentInfo, index_segment

__all__ = ["SegmentMeta", "StoreIndex"]

Key = Tuple[int, int, int, int, int]


@dataclass
class SegmentMeta:
    """One indexed segment file: what its seal or scan learned, rows included."""

    info: SegmentInfo
    #: What the buckets of the index holding the segment name it by.
    serial: int = field(default=-1, compare=False)

    @property
    def path(self) -> str:
        """Path of the segment file."""
        return self.info.path


class StoreIndex:
    """Lookup structure over all indexed segments of one store.

    Mutated only by the one thread that drives the owning store
    (`` # scapcheck: single-owner `` applies to callers); supports
    add/remove of whole segments (sealing, retention; a compaction
    removes the old segment and adds its sealed copy).  Those are the
    only ways records enter or leave the index, so they keep the record,
    payload and disk totals as running sums: reading them costs O(1).
    They keep :attr:`overlapping` the same way.
    """

    def __init__(self):
        self.segments: Dict[str, SegmentMeta] = {}
        self._serials: Dict[int, SegmentMeta] = {}
        self._next_serial = 0
        #: Per connection key, its bucket: a run per segment holding
        #: records of it, in install order — the segment's serial, the
        #: number of rows, then the rows in file order.
        self._by_tuple: Dict[Key, array] = {}
        #: Keys of the connections with a direction some record of which
        #: starts before the end of the one indexed before it in that
        #: direction (a bucket's order): re-recorded bytes, or records
        #: out of offset order.  A connection outside the set has every
        #: direction in offset order without overlap, so no frame of it
        #: is redundant to a query.  Callers must not mutate it.
        self.overlapping: Set[Key] = set()
        #: Per key, indexed by direction byte, the end offset of the last
        #: record indexed; what the next record is checked against.
        self._ends: Dict[Key, array] = {}
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
        """Index every segment file in ``directory``; return their entries."""
        added = []
        for name in sorted(os.listdir(directory)):
            if not (name.startswith("seg-") and name.endswith(".scap")):
                continue
            added.append(self.add_segment_file(os.path.join(directory, name)))
        return added

    def add_segment_file(self, path: str) -> SegmentMeta:
        """Scan one segment file and index everything recoverable."""
        return self._install(SegmentMeta(index_segment(path)))

    def add_sealed(self, info: SegmentInfo) -> SegmentMeta:
        """Index a segment the writer just sealed, without rescanning."""
        return self._install(SegmentMeta(info))

    @staticmethod
    def _keys(columns: SegmentColumns) -> List[Key]:
        """The key of each connection number of ``columns``."""
        values = iter(columns.tuples)
        return list(map(StoreIndex._key, zip(values, values, values, values, values)))

    def _install(self, segment: SegmentMeta) -> SegmentMeta:
        # A segment is installed all at once, as one run at the end of
        # each bucket it touches; removal keeps the other runs in their
        # order (lookup relies on both).
        serial = segment.serial = self._next_serial
        self._next_serial += 1
        self.segments[segment.path] = segment
        self._serials[serial] = segment
        info = segment.info
        columns = info.columns
        # An end offset slot per direction byte up to the largest stored.
        zeros = array("Q", bytes(8 * (max(columns.direction, default=0) + 1)))
        runs: Dict[Key, array] = {}
        targets = []  # per connection number: its key, run and end offsets
        for key in self._keys(columns):
            ends = self._ends.setdefault(key, array("Q"))
            ends.extend(zeros[len(ends) :])
            targets.append((key, runs.setdefault(key, array("Q", (serial, 0))), ends))
        directions, offsets, lengths = columns.direction, columns.stream_offset, columns.length
        for row, number in enumerate(columns.conn):
            key, run, ends = targets[number]
            run.append(row)
            direction, offset = directions[row], offsets[row]
            if offset < ends[direction]:
                self.overlapping.add(key)
            ends[direction] = offset + lengths[row]
        for key, run in runs.items():
            run[1] = len(run) - 2
            self._by_tuple.setdefault(key, array("Q")).extend(run)
        self._record_count += info.record_count
        self._payload_bytes += info.payload_bytes
        self._disk_bytes += info.disk_bytes
        return segment

    def remove_segment(self, path: str) -> Optional[SegmentMeta]:
        """Drop one segment (and its records) from the index."""
        segment = self.segments.pop(path, None)
        if segment is None:
            return None
        del self._serials[segment.serial]
        info = segment.info
        self._record_count -= info.record_count
        self._payload_bytes -= info.payload_bytes
        self._disk_bytes -= info.disk_bytes
        for key in set(self._keys(info.columns)):
            bucket, start = self._by_tuple[key], 0
            while bucket[start] != segment.serial:
                start += 2 + bucket[start + 1]
            del bucket[start : start + 2 + bucket[start + 1]]
            self.overlapping.discard(key)
            if bucket:
                self._recheck(key, bucket)
            else:
                del self._by_tuple[key], self._ends[key]
        return segment

    def _recheck(self, key: Key, bucket: array) -> None:
        """Recompute one connection's overlap flag and end offsets from
        what is left of its bucket, as ``_install`` would have."""
        ends = self._ends[key]
        ends[:] = array("Q", bytes(8 * len(ends)))
        for segment, rows in self._runs(bucket):
            columns = segment.info.columns
            for row in rows:
                direction, offset = columns.direction[row], columns.stream_offset[row]
                if offset < ends[direction]:
                    self.overlapping.add(key)
                ends[direction] = offset + columns.length[row]

    # ------------------------------------------------------------------
    @staticmethod
    def _key(five_tuple: Sequence[int]) -> Key:
        """The connection's key: its canonical form as plain ints, the
        same for either direction (``FiveTuple.canonical``, unbuilt)."""
        src_ip, src_port, dst_ip, dst_port, protocol = five_tuple
        if src_ip < dst_ip or (src_ip == dst_ip and src_port <= dst_port):
            return (src_ip, src_port, dst_ip, dst_port, protocol)
        return (dst_ip, dst_port, src_ip, src_port, protocol)

    def _runs(self, bucket: array) -> Iterator[Tuple[SegmentMeta, array]]:
        """``(segment, rows)`` of each run of ``bucket``, in bucket order."""
        start, end = 0, len(bucket)
        while start < end:
            rows = start + 2
            start = rows + bucket[start + 1]
            yield self._serials[bucket[rows - 2]], bucket[rows:start]

    def lookup(
        self,
        five_tuple: Optional[FiveTuple] = None,
        start_ts: Optional[float] = None,
        end_ts: Optional[float] = None,
    ) -> List[Tuple[SegmentMeta, Sequence[int]]]:
        """The matches of a tuple/time query: row numbers grouped per segment.

        ``five_tuple`` matches either direction of the connection;
        ``start_ts``/``end_ts`` bound the record timestamp inclusively.
        With no arguments, everything matches.  Groups come in
        ``(first_ts, path)`` order, rows in file order inside a group,
        and no group is empty.  With a ``five_tuple`` only that
        connection's bucket is visited, not the whole index.  Without
        time bounds no row is visited one by one: a segment's rows are
        a ``range``, a connection's rows in a segment a slice of its
        bucket.
        """
        if five_tuple is None:
            groups = [
                (segment, range(segment.info.record_count))
                for segment in self.segments.values()
                if segment.info.record_count
            ]
            groups.sort(key=lambda group: (group[0].info.first_ts, group[0].info.path))
        else:
            bucket = self._by_tuple.get(self._key(five_tuple))
            if bucket is None:
                return []
            if bucket[1] + 2 == len(bucket):  # one run: nothing to order
                groups = [(self._serials[bucket[0]], bucket[2:])]
            else:
                groups = list(self._runs(bucket))
                groups.sort(key=lambda group: (group[0].info.first_ts, group[0].info.path))
        if start_ts is None and end_ts is None:
            return groups
        low = -math.inf if start_ts is None else start_ts
        high = math.inf if end_ts is None else end_ts
        kept = []
        for segment, rows in groups:
            info = segment.info
            if info.last_ts < low or info.oldest_ts > high:
                continue
            timestamp = info.columns.timestamp
            rows = [row for row in rows if low <= timestamp[row] <= high]
            if rows:
                kept.append((segment, rows))
        return kept

    def connections(self) -> List[FiveTuple]:
        """All distinct connections stored, as client-perspective tuples.

        In order of first appearance, segments taken in ``(first_ts,
        path)`` order and records in file order.
        """

        def first_record(entry: Tuple[SegmentMeta, int]) -> Tuple[float, str, int]:
            info = entry[0].info
            return (info.first_ts, info.path, info.columns.file_offset[entry[1]])

        first = [
            min(((segment, rows[0]) for segment, rows in self._runs(bucket)), key=first_record)
            for bucket in self._by_tuple.values()
        ]
        first.sort(key=first_record)
        return [segment.info.columns.client_tuple(row) for segment, row in first]
