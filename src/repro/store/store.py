"""The stream store facade: one directory, one API.

:class:`StreamStore` ties the pieces together — the writer pipeline
appends records to per-core segment series, sealed segments flow into
the in-memory index, the retention engine prunes by age/quota/bytes,
and queries reassemble stored streams (optionally re-materialized as a
replay trace).  Opening a directory that already holds segments
rebuilds the index by scanning them, so crash recovery and a normal
open are the same operation.  It also deletes the half-written copy a
compaction that crashed left behind (``seg-*.scap.tmp``); the segment
it was copying is still intact, because the swap never ran.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from ..netstack.flows import FiveTuple
from ..observability import NULL_OBSERVABILITY, Observability
from .index import StoreIndex
from .query import QueryResult, run_query
from .replay import StoredStreamSource
from .retention import TMP_SUFFIX, RetentionEngine, RetentionPolicy, RetentionReport
from .segment import SegmentInfo, StreamRecord
from .writer import DEFAULT_SEGMENT_BYTES, StoreWriter

__all__ = ["StoreStats", "StreamStore"]


@dataclass
class StoreStats:
    """A snapshot of one store's accounting counters."""

    #: Live payload bytes currently indexed (stored and queryable).
    stored_bytes: int = 0
    #: On-disk footprint of all segment files.
    disk_bytes: int = 0
    #: Records currently indexed.
    record_count: int = 0
    #: Segment files currently live.
    segment_count: int = 0
    #: Payload bytes ever handed to the writer.
    enqueued_bytes: int = 0
    #: Payload bytes written into segment files.
    written_bytes: int = 0
    #: Payload bytes lost to segment write errors.
    writer_queue_drop_bytes: int = 0
    #: Records lost to segment write errors.
    writer_queue_drops: int = 0
    #: Payload bytes waiting in the writer's batches right now.
    queue_depth_bytes: int = 0
    #: Payload bytes evicted by retention so far.
    evicted_bytes: int = 0
    #: Records evicted by retention so far.
    evicted_records: int = 0
    #: Segments sealed over the store's lifetime.
    segments_sealed: int = 0
    #: Bytes saved by zlib compression so far.
    compressed_saved_bytes: int = 0


class StreamStore:
    """A persistent, indexed, retained store of captured streams.

    Single-owner: construct a store anywhere, then drive it from one
    thread — the capture thread in library mode, ``scapd-owner`` in
    service mode.  Nothing here takes a lock; every byte's fate, every
    segment name and every segment byte is a pure function of the input
    sequence, always.
    """

    def __init__(
        self,
        directory: str,
        cores: int = 1,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        compress: bool = False,
        retention: Optional[RetentionPolicy] = None,
        observability: Optional[Observability] = None,
        sanitizers: Optional[object] = None,
    ):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        _remove_compaction_copies(directory)
        self.index = StoreIndex()
        recovered = self.index.scan_directory(directory)
        start_sequence = _next_sequence(directory)
        self.retention_policy = retention or RetentionPolicy()
        self._retention = RetentionEngine(self.index, self.retention_policy)
        self.evicted_bytes = 0
        self.evicted_records = 0
        self.last_ts = max(
            (segment.info.last_ts for segment in recovered if segment.info.record_count),
            default=0.0,
        )
        self._obs = observability or NULL_OBSERVABILITY
        self._m_evicted = self._obs.registry.counter(
            "scap_store_evicted_bytes_total", "payload bytes evicted by retention"
        )
        self._m_stored = self._obs.registry.gauge(
            "scap_store_stored_bytes", "live payload bytes indexed in the store"
        )
        self.writer = StoreWriter(
            directory,
            cores=cores,
            segment_bytes=segment_bytes,
            compress=compress,
            observability=observability,
            sanitizers=sanitizers,
            on_seal=self._on_seal,
            start_sequence=start_sequence,
        )
        self._closed = False

    # ------------------------------------------------------------------
    def _on_seal(self, info: SegmentInfo) -> None:
        self.index.add_sealed(info)
        if self._obs.enabled:
            self._m_stored.set(self.index.payload_bytes)

    # ------------------------------------------------------------------
    def append(self, record: StreamRecord, core: int = 0) -> None:
        """Hand one record to the writer pipeline, which never refuses it."""
        if record.timestamp > self.last_ts:
            self.last_ts = record.timestamp
        self.writer.enqueue(core, record)

    def flush(self) -> None:
        """Drain the write batches and seal every active segment."""
        self.writer.seal_all()

    # ------------------------------------------------------------------
    def query(
        self,
        five_tuple: Optional[FiveTuple] = None,
        start_ts: Optional[float] = None,
        end_ts: Optional[float] = None,
    ) -> QueryResult:
        """Reassembled streams matching a five-tuple / time-range."""
        return run_query(self.index, five_tuple, start_ts, end_ts)

    def replay_source(
        self,
        five_tuple: Optional[FiveTuple] = None,
        start_ts: Optional[float] = None,
        end_ts: Optional[float] = None,
        name: str = "stored-replay",
    ) -> StoredStreamSource:
        """A replayable trace source for the matching streams."""
        return StoredStreamSource(self.query(five_tuple, start_ts, end_ts), name=name)

    def connections(self) -> List[FiveTuple]:
        """Distinct stored connections (client-perspective tuples)."""
        return self.index.connections()

    # ------------------------------------------------------------------
    def enforce_retention(self, now_ts: Optional[float] = None) -> RetentionReport:
        """Run the retention policies; ``now_ts`` defaults to newest seen."""
        report = self._retention.enforce(self.last_ts if now_ts is None else now_ts)
        self.evicted_bytes += report.evicted_bytes
        self.evicted_records += report.evicted_records
        if self._obs.enabled and report.evicted_bytes:
            self._m_evicted.inc(report.evicted_bytes)
            self._m_stored.set(self.index.payload_bytes)
        return report

    # ------------------------------------------------------------------
    def stats(self) -> StoreStats:
        """A snapshot of the store's counters."""
        return StoreStats(
            stored_bytes=self.index.payload_bytes,
            disk_bytes=self.index.disk_bytes,
            record_count=self.index.record_count,
            segment_count=len(self.index.segments),
            enqueued_bytes=self.writer.enqueued_bytes,
            written_bytes=self.writer.written_bytes,
            writer_queue_drop_bytes=self.writer.dropped_bytes,
            writer_queue_drops=self.writer.write_errors,
            queue_depth_bytes=self.writer.queue_depth_bytes,
            evicted_bytes=self.evicted_bytes,
            evicted_records=self.evicted_records,
            segments_sealed=self.writer.segments_sealed,
            compressed_saved_bytes=self.writer.compressed_saved,
        )

    # ------------------------------------------------------------------
    def close(self, enforce_retention: bool = True) -> StoreStats:
        """Seal everything, run a final retention sweep, check ledgers."""
        if self._closed:
            return self.stats()
        self.writer.close()
        if enforce_retention and self.retention_policy.enabled:
            self.enforce_retention()
        self._closed = True
        return self.stats()


def _remove_compaction_copies(directory: str) -> None:
    """Delete the ``seg-*.scap.tmp`` copies of crashed compactions."""
    for name in os.listdir(directory):
        if name.startswith("seg-") and name.endswith(".scap" + TMP_SUFFIX):
            os.unlink(os.path.join(directory, name))


def _next_sequence(directory: str) -> int:
    """First unused segment sequence number in ``directory``."""
    highest = -1
    for name in os.listdir(directory):
        if name.startswith("seg-") and name.endswith(".scap"):
            try:
                highest = max(highest, int(name[:-5].rsplit("-", 1)[1]))
            except (IndexError, ValueError):
                continue
    return highest + 1
