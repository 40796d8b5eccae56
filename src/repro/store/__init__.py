"""Persistent stream store: record, index, retain, query, replay.

See ``docs/STORE.md`` for the on-disk format, retention semantics, and
failure model.  The usual entry point is :class:`StreamStore`; the
:class:`~repro.apps.recorder.StreamRecorder` app feeds one from a live
capture socket.
"""

from .index import SegmentMeta, StoreIndex
from .query import QueryResult, StreamPayload, run_query
from .replay import StoredStreamSource
from .retention import ClassQuota, RetentionEngine, RetentionPolicy, RetentionReport
from .segment import (
    SegmentInfo,
    SegmentWriter,
    StreamRecord,
    read_segment,
    scan_records,
)
from .store import StoreStats, StreamStore
from .writer import StoreWriter

__all__ = [
    "StreamRecord",
    "SegmentInfo",
    "SegmentWriter",
    "read_segment",
    "scan_records",
    "StoreWriter",
    "StoreIndex",
    "SegmentMeta",
    "QueryResult",
    "StreamPayload",
    "run_query",
    "ClassQuota",
    "RetentionPolicy",
    "RetentionReport",
    "RetentionEngine",
    "StoredStreamSource",
    "StoreStats",
    "StreamStore",
]
