"""Retention: age, per-class quotas, global bytes, tail-first eviction."""

import os
import shutil
from typing import NamedTuple

import pytest

from repro.netstack import FiveTuple, IPProtocol
from repro.store import (
    ClassQuota,
    RetentionPolicy,
    SegmentMeta,
    StreamRecord,
    StreamStore,
)
from repro.store import retention


def _record(port=80, offset=0, ts=0.0, size=100, priority=0, src_port=1000):
    return StreamRecord(
        five_tuple=FiveTuple(10, src_port, 20, port, IPProtocol.TCP),
        direction=0,
        stream_offset=offset,
        timestamp=ts,
        data=b"z" * size,
        priority=priority,
    )


class Row(NamedTuple):
    """One indexed record, read back from its segment's columns."""

    segment: SegmentMeta
    row: int
    five_tuple: FiveTuple
    client_tuple: FiveTuple
    direction: int
    stream_offset: int
    timestamp: float
    length: int
    priority: int
    file_offset: int


def rows_of(segment, rows=None):
    """The :class:`Row` of each of ``rows`` (by default every row) of ``segment``."""
    columns = segment.info.columns
    tuples = columns.tuples
    return [
        Row(
            segment, row, FiveTuple(*tuples[5 * columns.conn[row] : 5 * columns.conn[row] + 5]),
            columns.client_tuple(row),
            columns.direction[row], columns.stream_offset[row], columns.timestamp[row],
            columns.length[row], columns.priority[row], columns.file_offset[row],
        )
        for row in (range(len(columns.file_offset)) if rows is None else rows)
    ]


def assert_index_coherent(index):
    """The buckets hold exactly the rows of the live segments.

    ``StoreIndex.lookup`` answers five-tuple queries from the buckets
    alone, so they must never drift from the segments' columns: every
    row of every live segment exactly once, under its own connection's
    key, in a run that names (by serial) the live segment holding it;
    one run per segment inside a bucket, its rows in file order; no
    empty bucket or run left behind.  The running record and payload
    totals equal a fresh sum over those rows, and the disk total a
    fresh sum over the segments.  The overlap set and the end offsets
    are what a fresh walk of the buckets gives.
    """
    listed = {
        (id(segment), row)
        for segment in index.segments.values()
        for row in range(len(segment.info.columns.file_offset))
    }
    assert index.record_count == len(listed) == sum(
        segment.info.record_count for segment in index.segments.values()
    )
    assert index.payload_bytes == sum(
        sum(segment.info.columns.length) for segment in index.segments.values()
    )
    assert index.disk_bytes == sum(
        segment.info.disk_bytes for segment in index.segments.values()
    )
    assert sorted(id(segment) for segment in index._serials.values()) == sorted(
        id(segment) for segment in index.segments.values()
    )
    for segment in index.segments.values():
        assert index._serials[segment.serial] is segment
        offsets = list(segment.info.columns.file_offset)
        assert offsets == sorted(offsets)  # a row per frame, in file order
    mapped, overlapping, ends = [], set(), {}
    for key, bucket in index._by_tuple.items():
        runs, start = [], 0
        while start < len(bucket):
            count = bucket[start + 1]
            runs.append((bucket[start], list(bucket[start + 2 : start + 2 + count])))
            start += 2 + count
        assert runs and start == len(bucket), key
        assert len(runs) == len({serial for serial, _rows in runs}), key  # one run per segment
        last = ends[key] = {}
        for serial, rows in runs:
            assert rows and rows == sorted(set(rows)), key
            segment = index._serials[serial]
            assert index.segments.get(segment.path) is segment
            for meta in rows_of(segment, rows):
                assert index._key(meta.client_tuple) == key
                mapped.append((id(segment), meta.row))
                if meta.stream_offset < last.get(meta.direction, 0):
                    overlapping.add(key)
                last[meta.direction] = meta.stream_offset + meta.length
    assert len(mapped) == len(listed)
    assert set(mapped) == listed
    assert index.overlapping == overlapping
    assert index._ends.keys() == ends.keys()
    for key, last in ends.items():
        # A slot per direction up to the largest seen; unseen ones hold 0.
        assert max(last) < len(index._ends[key])
        assert list(index._ends[key]) == [last.get(d, 0) for d in range(len(index._ends[key]))]


def _checked(index):
    """Re-check coherence after every mutation of ``index``."""
    for name in ("_install", "remove_segment"):

        def checked(*args, _mutate=getattr(index, name), **kwargs):
            result = _mutate(*args, **kwargs)
            assert_index_coherent(index)
            return result

        setattr(index, name, checked)
    assert_index_coherent(index)
    return index


def _store(tmp_path, **kwargs):
    kwargs.setdefault("segment_bytes", 2000)
    store = StreamStore(str(tmp_path), **kwargs)
    _checked(store.index)
    return store


class TestMaxAge:
    def test_old_segments_deleted_whole(self, tmp_path):
        store = _store(tmp_path, retention=RetentionPolicy(max_age=10.0))
        for n in range(8):
            store.append(_record(ts=1.0, src_port=1000 + n))
        store.flush()  # seals segment 1 (all old records)
        for n in range(8):
            store.append(_record(ts=100.0, src_port=2000 + n))
        store.flush()
        report = store.enforce_retention(now_ts=100.0)
        assert report.segments_deleted >= 1
        assert report.evicted_records == 8
        stats = store.close(enforce_retention=False)
        assert stats.record_count == 8  # only the recent segment remains
        assert all(
            meta.timestamp == 100.0
            for segment in store.index.segments.values()
            for meta in rows_of(segment)
        )

    def test_recent_segments_survive(self, tmp_path):
        store = _store(tmp_path, retention=RetentionPolicy(max_age=50.0))
        for n in range(4):
            store.append(_record(ts=90.0, src_port=1000 + n))
        store.flush()
        report = store.enforce_retention(now_ts=100.0)
        assert report.evicted_records == 0


class TestMaxBytes:
    def test_tails_evicted_before_heads(self, tmp_path):
        store = _store(tmp_path, retention=RetentionPolicy(max_bytes=800))
        # One long stream recorded as head + deep tail pieces.
        for n in range(8):
            store.append(_record(offset=n * 100, ts=float(n)))
        store.flush()
        store.enforce_retention()
        survivors = [
            meta.stream_offset
            for segment in store.index.segments.values()
            for meta in rows_of(segment)
        ]
        assert survivors  # head survives
        assert min(survivors) == 0
        # Whatever was evicted came from the deep end of the stream.
        assert max(survivors) < 700
        stats = store.close(enforce_retention=False)
        assert stats.disk_bytes <= 800
        assert stats.evicted_records > 0

    @pytest.mark.parametrize("compress, kept", [(True, 48), (False, 49)])
    def test_cap_counts_disk_bytes(self, tmp_path, compress, kept):
        """A cap 100 bytes under the store evicts frames worth 100 disk
        bytes: two compressed frames of about 60 bytes, or one 4,045-byte
        frame.  Measured in payload bytes, one 4,000-byte record would be
        taken from the compressed segment, its rewrite left over the cap,
        and the segment deleted whole."""
        store = _store(tmp_path, segment_bytes=1 << 20, compress=compress)
        for n in range(50):
            store.append(_record(offset=n * 4000, ts=float(n), size=4000))
        store.flush()
        assert len(store.index.segments) == 1
        cap = store.index.disk_bytes - 100
        store.retention_policy.max_bytes = cap
        report = store.enforce_retention()
        stats = store.close(enforce_retention=False)
        assert report.evicted_records == 50 - kept and report.segments_deleted == 0
        assert stats.record_count == kept and stats.disk_bytes <= cap
        assert sorted(meta.stream_offset for meta in rows_of(*store.index.segments.values())) == [
            n * 4000 for n in range(kept)
        ]

    def test_under_budget_untouched(self, tmp_path):
        store = _store(tmp_path, retention=RetentionPolicy(max_bytes=1 << 20))
        for n in range(5):
            store.append(_record(offset=n * 100))
        store.flush()
        report = store.enforce_retention()
        assert report.evicted_records == 0
        assert report.segments_deleted == 0


class TestClassQuotas:
    def test_only_matching_class_shrinks(self, tmp_path):
        policy = RetentionPolicy(
            class_quotas=[ClassQuota(expression="port 80", max_bytes=300)]
        )
        store = _store(tmp_path, retention=policy)
        for n in range(6):
            store.append(_record(port=80, offset=n * 100, src_port=1111))
        for n in range(6):
            store.append(_record(port=25, offset=n * 100, src_port=2222))
        store.flush()
        store.enforce_retention()
        web = store.query(FiveTuple(10, 1111, 20, 80, IPProtocol.TCP))
        mail = store.query(FiveTuple(10, 2222, 20, 25, IPProtocol.TCP))
        assert sum(len(s.data) for s in web.streams) <= 300
        assert sum(len(s.data) for s in mail.streams) == 600  # untouched
        # Tail-first inside the class: the web stream still has its head.
        assert web.streams and web.streams[0].base_offset == 0
        store.close(enforce_retention=False)

    def test_low_priority_evicted_before_high_at_same_depth(self, tmp_path):
        policy = RetentionPolicy(
            class_quotas=[ClassQuota(expression="port 80", max_bytes=100)]
        )
        store = _store(tmp_path, retention=policy)
        store.append(_record(port=80, offset=0, priority=0, src_port=1111))
        store.append(_record(port=80, offset=0, priority=9, src_port=2222))
        store.flush()
        store.enforce_retention()
        survivors = [
            meta.priority
            for segment in store.index.segments.values()
            for meta in rows_of(segment)
        ]
        assert survivors == [9]


class TestCompaction:
    def test_compacted_segment_still_queryable_and_recoverable(self, tmp_path):
        store = _store(tmp_path, retention=RetentionPolicy(max_bytes=900))
        for n in range(8):
            store.append(_record(offset=n * 100, ts=float(n)))
        store.flush()
        store.enforce_retention()
        before = store.query()
        store.close(enforce_retention=False)
        # Reopen: the compacted, resealed segment must scan cleanly.
        reopened = StreamStore(str(tmp_path))
        after = reopened.query()
        assert [s.data for s in after.streams] == [s.data for s in before.streams]
        reopened.close()

    def test_a_failed_compaction_leaves_no_copy_behind(self, tmp_path, monkeypatch):
        """A compaction that raises mid-copy deletes its ``.tmp`` copy and
        leaves the segment whole; a copy a crash left is deleted when the
        store next opens, so ``disk_bytes`` is the size of the files."""
        store = _store(tmp_path, retention=RetentionPolicy(max_bytes=900))
        for n in range(8):
            store.append(_record(offset=n * 100, ts=float(n)))
        store.flush()
        before = [s.data for s in store.query().streams]
        copy_frames = retention.copy_frames

        def torn_copy(info, rows, writer):
            copy_frames(info, rows[:1], writer)
            raise OSError("disk went away")

        monkeypatch.setattr(retention, "copy_frames", torn_copy)
        with pytest.raises(OSError, match="disk went away"):
            store.enforce_retention()
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
        store.close(enforce_retention=False)
        # A crash between the copy and the swap: the copy stays behind.
        segment = sorted(name for name in os.listdir(tmp_path) if name.endswith(".scap"))[0]
        shutil.copy(tmp_path / segment, tmp_path / (segment + ".tmp"))

        reopened = StreamStore(str(tmp_path))
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
        assert [s.data for s in reopened.query().streams] == before
        assert reopened.stats().disk_bytes == sum(
            os.path.getsize(tmp_path / name) for name in os.listdir(tmp_path)
        )
        reopened.close(enforce_retention=False)


class TestRunningTotals:
    def test_totals_equal_a_recomputed_sum(self, tmp_path):
        """``record_count`` / ``payload_bytes`` / ``disk_bytes`` are kept
        as running sums.  ``_store`` re-checks them against a fresh sum
        after every index mutation: here seals, a ``max_bytes`` eviction
        that compacts one segment and deletes another, and then a
        reopen.  The disk total is also the size of the files."""
        store = _store(tmp_path, retention=RetentionPolicy(max_bytes=1600))
        for n in range(24):
            store.append(
                _record(offset=(n // 3) * 100, ts=float(n), src_port=1000 + n % 3, size=50 + n)
            )
            if n % 8 == 7:
                store.flush()
        assert len(store.index.segments) == 3
        assert store.index.record_count == 24
        report = store.enforce_retention()
        assert report.segments_compacted == 1 and report.segments_deleted == 1
        index = store.index
        totals = (index.record_count, index.payload_bytes, index.disk_bytes)
        assert totals[0] == 24 - report.evicted_records
        assert totals[2] == sum(os.path.getsize(path) for path in index.segments)
        stats = store.close(enforce_retention=False)
        assert (stats.record_count, stats.stored_bytes, stats.disk_bytes) == totals
        reopened = StreamStore(str(tmp_path))
        assert_index_coherent(reopened.index)
        index = reopened.index
        assert (index.record_count, index.payload_bytes, index.disk_bytes) == totals
        reopened.close(enforce_retention=False)
