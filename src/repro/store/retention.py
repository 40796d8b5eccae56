"""Retention and eviction for the stream store.

Three policies, enforced in order of decreasing certainty:

1. **max-age** — segments whose newest record is older than
   ``max_age`` simulated seconds (relative to the enforcement time)
   are deleted whole.
2. **per-class quotas** — payload-byte budgets keyed by the same BPF
   expressions as `scap_set_cutoff` classes; a class over budget has
   records evicted from its streams until it fits.
3. **max-bytes** — a global cap on the store's on-disk footprint,
   each record measured by its frame's bytes on disk.

Eviction is *heavy-tail aware*: victims are chosen highest stream
offset first (then lowest priority, then oldest), so a stream's tail
is always dropped before its head — the same asymmetry that makes the
paper's per-stream cutoff effective on heavy-tailed traffic, applied
after the fact.  Record eviction from sealed (immutable) segments is
implemented by compaction: the kept frames are copied as they are
(compressed ones stay compressed) into a new file, which is swapped in
with ``os.replace``; the directory is fsynced after every rename and
delete.
"""

from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..filters.bpf import BPFFilter
from .index import SegmentMeta, StoreIndex
from .segment import SegmentColumns, SegmentInfo, SegmentWriter, copy_frames

#: Suffix of the copy ``_compact`` writes before swapping it in.
TMP_SUFFIX = ".tmp"

__all__ = ["ClassQuota", "RetentionPolicy", "RetentionReport", "RetentionEngine"]


@dataclass
class ClassQuota:
    """A byte budget for streams matching one BPF class expression."""

    expression: str
    max_bytes: int
    _filter: Optional[BPFFilter] = field(default=None, repr=False, compare=False)

    @property
    def bpf(self) -> BPFFilter:
        """The compiled filter for :attr:`expression` (cached)."""
        if self._filter is None:
            self._filter = BPFFilter(self.expression)
        return self._filter


@dataclass
class RetentionPolicy:
    """What the retention engine enforces on each sweep."""

    #: Global cap on the store's on-disk bytes (None = unbounded).
    max_bytes: Optional[int] = None
    #: Maximum record age in simulated seconds (None = keep forever).
    max_age: Optional[float] = None
    #: Per-BPF-class payload-byte budgets, checked most-specific first.
    class_quotas: List[ClassQuota] = field(default_factory=list)

    @property
    def enabled(self) -> bool:
        """True if any policy is active."""
        return (
            self.max_bytes is not None
            or self.max_age is not None
            or bool(self.class_quotas)
        )


@dataclass
class RetentionReport:
    """What one enforcement sweep evicted."""

    evicted_records: int = 0
    #: Payload bytes of evicted records.
    evicted_bytes: int = 0
    segments_deleted: int = 0
    segments_compacted: int = 0

    def merge(self, other: "RetentionReport") -> None:
        """Accumulate another sweep's counts into this report."""
        self.evicted_records += other.evicted_records
        self.evicted_bytes += other.evicted_bytes
        self.segments_deleted += other.segments_deleted
        self.segments_compacted += other.segments_compacted


class RetentionEngine:
    """Applies a :class:`RetentionPolicy` to an indexed store directory.

    The engine mutates both the filesystem and the index, on the one
    thread that drives the owning store.  # scapcheck: single-owner
    """

    def __init__(self, index: StoreIndex, policy: RetentionPolicy):
        self.index = index
        self.policy = policy

    # ------------------------------------------------------------------
    def enforce(self, now_ts: float) -> RetentionReport:
        """Run all active policies; return what was evicted."""
        report = RetentionReport()
        if not self.policy.enabled:
            return report
        if self.policy.max_age is not None:
            report.merge(self._enforce_age(now_ts))
        for quota in self.policy.class_quotas:
            report.merge(self._enforce_quota(quota))
        if self.policy.max_bytes is not None:
            report.merge(self._enforce_bytes(self.policy.max_bytes))
        return report

    # ------------------------------------------------------------------
    def _enforce_age(self, now_ts: float) -> RetentionReport:
        report = RetentionReport()
        horizon = now_ts - self.policy.max_age
        for segment in list(self.index.segments.values()):
            if segment.info.record_count and segment.info.last_ts < horizon:
                report.merge(self._delete_segment(segment))
        return report

    def _enforce_quota(self, quota: ClassQuota) -> RetentionReport:
        matcher = quota.bpf

        def in_class(columns: SegmentColumns, row: int) -> bool:
            return matcher.matches_five_tuple(columns.client_tuple(row))

        live = sum(
            segment.info.columns.length[row]
            for segment in self.index.segments.values()
            for row in range(segment.info.record_count)
            if in_class(segment.info.columns, row)
        )
        if live <= quota.max_bytes:
            return RetentionReport()
        return self._evict(
            live - quota.max_bytes, lambda info, row: info.columns.length[row], in_class
        )

    def _enforce_bytes(self, max_bytes: int) -> RetentionReport:
        report = RetentionReport()
        excess = self.index.disk_bytes - max_bytes
        if excess <= 0:
            return report
        # Rows are measured by their frames' bytes on disk, which is
        # what compaction takes off the file.  Should the footprint
        # still be over, whole oldest segments go.
        report.merge(self._evict(excess, SegmentInfo.frame_bytes))
        for segment in sorted(
            self.index.segments.values(),
            key=lambda seg: (seg.info.first_ts, seg.info.path),
        ):
            if self.index.disk_bytes <= max_bytes:
                break
            report.merge(self._delete_segment(segment))
        return report

    # ------------------------------------------------------------------
    def _evict(
        self, want_bytes: int, size: Callable[[SegmentInfo, int], int], predicate=None
    ) -> RetentionReport:
        """Evict rows whose ``size`` sums to ≥ ``want_bytes``, tails before heads."""
        candidates: List[Tuple[SegmentMeta, int]] = [
            (segment, row)
            for segment in self.index.segments.values()
            for row in range(segment.info.record_count)
            if predicate is None or predicate(segment.info.columns, row)
        ]

        def heavy_tail(candidate: Tuple[SegmentMeta, int]) -> Tuple[int, int, float]:
            # Deepest stream offset first, then lowest priority, then oldest.
            columns, row = candidate[0].info.columns, candidate[1]
            return (-columns.stream_offset[row], columns.priority[row], columns.timestamp[row])

        candidates.sort(key=heavy_tail)
        doomed: Dict[str, Set[int]] = {}
        gathered = 0
        for segment, row in candidates:
            if gathered >= want_bytes:
                break
            doomed.setdefault(segment.path, set()).add(row)
            gathered += size(segment.info, row)
        report = RetentionReport()
        for path, rows in doomed.items():
            report.merge(self._compact(self.index.segments[path], rows))
        return report

    def _compact(self, segment: SegmentMeta, doomed: Set[int]) -> RetentionReport:
        """Rewrite ``segment`` without the ``doomed`` rows (atomic swap).

        The kept frames are copied as they are (:func:`copy_frames`),
        and the copy's sealed info is indexed in the segment's place.
        """
        info = segment.info
        if len(doomed) == info.record_count:
            return self._delete_segment(segment)
        path = segment.path
        tmp_path = path + TMP_SUFFIX
        writer = SegmentWriter(tmp_path, core=info.core)
        try:
            copy_frames(info, [row for row in range(info.record_count) if row not in doomed], writer)
            copy = writer.seal()
            _commit(path, tmp_path)
        except BaseException:
            # The original segment is untouched until the rename; only
            # the half-written copy has to go.
            writer.close()
            _commit(tmp_path)
            raise
        copy.path = path
        self.index.remove_segment(path)
        self.index.add_sealed(copy)
        # Every row not copied is gone: the doomed ones, and any kept one
        # behind a frame that failed its check (the copy stops there).
        return RetentionReport(
            evicted_records=info.record_count - copy.record_count,
            evicted_bytes=info.payload_bytes - copy.payload_bytes,
            segments_compacted=1,
        )

    def _delete_segment(self, segment: SegmentMeta) -> RetentionReport:
        _commit(segment.path)
        self.index.remove_segment(segment.path)
        return RetentionReport(
            evicted_records=segment.info.record_count,
            evicted_bytes=segment.info.payload_bytes,
            segments_deleted=1,
        )


def _commit(path: str, replacement: Optional[str] = None) -> None:
    """Move ``replacement`` over ``path`` (``os.replace``), or delete
    ``path`` when there is no replacement; then fsync the directory, so
    the change survives a crash.  Deleting a file already gone is not an
    error."""
    if replacement is not None:
        os.replace(replacement, path)
    else:
        with suppress(FileNotFoundError):
            os.unlink(path)
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY | os.O_CLOEXEC)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
