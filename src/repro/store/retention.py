"""Retention and eviction for the stream store.

Three policies, enforced in order of decreasing certainty:

1. **max-age** — segments whose newest record is older than
   ``max_age`` simulated seconds (relative to the enforcement time)
   are deleted whole.
2. **per-class quotas** — byte budgets keyed by the same BPF
   expressions as `scap_set_cutoff` classes; a class over budget has
   records evicted from its streams until it fits.
3. **max-bytes** — a global cap on the store's on-disk footprint.

Eviction is *heavy-tail aware*: victims are chosen highest stream
offset first (then lowest priority, then oldest), so a stream's tail
is always dropped before its head — the same asymmetry that makes the
paper's per-stream cutoff effective on heavy-tailed traffic, applied
after the fact.  Record eviction from sealed (immutable) segments is
implemented by compaction: the segment is rewritten without the
victims and atomically swapped in with ``os.replace``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..filters.bpf import BPFFilter
from .index import RecordMeta, SegmentMeta, StoreIndex
from .segment import SegmentWriter, scan_records

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
            if segment.records and segment.info.last_ts < horizon:
                report.merge(self._delete_segment(segment))
        return report

    def _enforce_quota(self, quota: ClassQuota) -> RetentionReport:
        matcher = quota.bpf

        def in_class(meta: RecordMeta) -> bool:
            return matcher.matches_five_tuple(meta.client_tuple)

        live = sum(
            meta.length
            for segment in self.index.segments.values()
            for meta in segment.records
            if in_class(meta)
        )
        if live <= quota.max_bytes:
            return RetentionReport()
        return self._evict(live - quota.max_bytes, predicate=in_class)

    def _enforce_bytes(self, max_bytes: int) -> RetentionReport:
        report = RetentionReport()
        excess = self.index.disk_bytes - max_bytes
        if excess <= 0:
            return report
        # Tail-first record eviction shrinks payload; frame/seal overhead
        # stays, so fall back to deleting whole oldest segments if the
        # disk footprint is still over after compaction.
        report.merge(self._evict(excess))
        for segment in sorted(
            self.index.segments.values(),
            key=lambda seg: (seg.info.first_ts, seg.info.path),
        ):
            if self.index.disk_bytes <= max_bytes:
                break
            report.merge(self._delete_segment(segment))
        return report

    # ------------------------------------------------------------------
    def _evict(self, want_bytes: int, predicate=None) -> RetentionReport:
        """Evict ≥ ``want_bytes`` of payload, tails before heads."""
        candidates: List[Tuple[SegmentMeta, RecordMeta]] = [
            (segment, meta)
            for segment in self.index.segments.values()
            for meta in segment.records
            if predicate is None or predicate(meta)
        ]
        # Heavy-tail order: deepest stream offset first, then lowest
        # priority, then oldest timestamp.
        candidates.sort(
            key=lambda pair: (-pair[1].stream_offset, pair[1].priority, pair[1].timestamp)
        )
        doomed: Dict[str, Set[int]] = {}
        gathered = 0
        for segment, meta in candidates:
            if gathered >= want_bytes:
                break
            doomed.setdefault(segment.path, set()).add(meta.file_offset)
            gathered += meta.length
        report = RetentionReport()
        for path, offsets in doomed.items():
            report.merge(self._compact(self.index.segments[path], offsets))
        return report

    def _compact(self, segment: SegmentMeta, doomed_offsets: Set[int]) -> RetentionReport:
        """Rewrite ``segment`` without the doomed records (atomic swap)."""
        report = RetentionReport()
        survivors = [
            meta for meta in segment.records if meta.file_offset not in doomed_offsets
        ]
        victims = [meta for meta in segment.records if meta.file_offset in doomed_offsets]
        if not victims:
            return report
        if not survivors:
            return self._delete_segment(segment)
        path = segment.path
        tmp_path = path + TMP_SUFFIX
        writer = SegmentWriter(tmp_path, core=segment.info.core, compress=False)
        try:
            for offset, record in scan_records(path):
                if offset in doomed_offsets:
                    continue
                writer.append(record)
            writer.seal()
            os.replace(tmp_path, path)
        except BaseException:
            # The original segment is untouched until ``os.replace``;
            # only the half-written copy has to go.
            writer.close()
            os.unlink(tmp_path)
            raise
        self.index.remove_segment(path)
        self.index.add_segment_file(path)
        report.segments_compacted += 1
        report.evicted_records += len(victims)
        report.evicted_bytes += sum(meta.length for meta in victims)
        return report

    def _delete_segment(self, segment: SegmentMeta) -> RetentionReport:
        report = RetentionReport()
        self.index.remove_segment(segment.path)
        if os.path.exists(segment.path):
            os.unlink(segment.path)
        report.segments_deleted += 1
        report.evicted_records += len(segment.records)
        report.evicted_bytes += sum(meta.length for meta in segment.records)
        return report
