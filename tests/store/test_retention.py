"""Retention: age, per-class quotas, global bytes, tail-first eviction."""

import os
import shutil
from itertools import groupby

import pytest

from repro.netstack import FiveTuple, IPProtocol
from repro.store import ClassQuota, RetentionPolicy, StoreIndex, StreamRecord, StreamStore
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


def assert_index_coherent(index):
    """``_by_tuple`` holds exactly the records of the live segments.

    ``StoreIndex.lookup`` answers five-tuple queries from that map
    alone, so it must never drift from ``segments[*].records``: the same
    objects, each under its own connection's key and pointing back at
    the live segment that lists it, one segment's entries adjacent and
    in file order inside a bucket, and no empty buckets left behind.  The running
    record and payload totals equal a fresh sum over those records, and
    the disk total a fresh sum over the segments.
    """
    listed = {
        id(meta): meta for segment in index.segments.values() for meta in segment.records
    }
    mapped = [meta for bucket in index._by_tuple.values() for meta in bucket]
    assert len(mapped) == len(listed)
    assert index.record_count == len(listed)
    assert index.payload_bytes == sum(meta.length for meta in listed.values())
    assert index.disk_bytes == sum(
        segment.info.disk_bytes for segment in index.segments.values()
    )
    assert {id(meta) for meta in mapped} == set(listed)
    for key, bucket in index._by_tuple.items():
        assert bucket, key
        for meta in bucket:
            assert index._key(meta.client_tuple) == key
            assert index.segments.get(meta.segment.path) is meta.segment
            assert any(meta is listed_meta for listed_meta in meta.segment.records)
        runs = [id(segment) for segment, _run in groupby(bucket, key=lambda m: m.segment)]
        assert len(runs) == len(set(runs)), key  # one segment's entries are adjacent
        for segment in {id(meta.segment): meta.segment for meta in bucket}.values():
            offsets = [meta.file_offset for meta in bucket if meta.segment is segment]
            assert offsets == sorted(offsets)


def _checked(index):
    """Re-check coherence after every mutation of ``index``."""
    for name in ("_install", "remove_segment", "replace_segment"):

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
            for meta in segment.records
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
            for meta in segment.records
        ]
        assert survivors  # head survives
        assert min(survivors) == 0
        # Whatever was evicted came from the deep end of the stream.
        assert max(survivors) < 700
        stats = store.close(enforce_retention=False)
        assert stats.disk_bytes <= 800
        assert stats.evicted_records > 0

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
            for meta in segment.records
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
        scan_records = retention.scan_records

        def torn_scan(path):
            records = scan_records(path)
            yield next(records)
            raise OSError("disk went away")

        monkeypatch.setattr(retention, "scan_records", torn_scan)
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

    def test_replace_segment_keeps_the_tuple_map_coherent(self, tmp_path):
        store = _store(tmp_path)
        for n in range(30):
            store.append(_record(offset=(n // 3) * 100, ts=float(n), src_port=1000 + n % 3))
        store.flush()
        assert len(store.index.segments) > 1
        path = sorted(store.index.segments)[0]
        before = store.query().streams
        rescanned = StoreIndex()
        store.index.replace_segment(path, rescanned.add_segment_file(path))
        assert store.index.segments[path].records is rescanned.segments[path].records
        assert store.query().streams == before
        for connection in store.connections():
            assert store.query(connection).streams == [
                s for s in before if s.client_tuple == connection
            ]
        store.close(enforce_retention=False)


class TestRunningTotals:
    def test_totals_equal_a_recomputed_sum(self, tmp_path):
        """``record_count`` / ``payload_bytes`` / ``disk_bytes`` are kept
        as running sums.  ``_store`` re-checks them against a fresh sum
        after every index mutation: here seals, a ``max_bytes`` eviction
        that compacts one segment and deletes another, and then a
        reopen.  The disk total is also the size of the files."""
        store = _store(tmp_path, retention=RetentionPolicy(max_bytes=2000))
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
