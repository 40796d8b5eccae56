"""The indexed read path: a point query seeks to its frames.

Differential: for every stored connection, ``query(five_tuple=c)`` must
equal the matching streams of the full ``query()`` and an oracle that
does what the store did before the index was used for reads — walk
every index entry, scan every frame of each matching segment, keep the
wanted offsets.  Corruption: the seek path checks every frame it
returns, so damage is omitted exactly as a scan omits it.
"""

import os
import random

import pytest

from repro.netstack import FiveTuple, IPProtocol
from repro.store import (
    ClassQuota,
    RetentionPolicy,
    StoreIndex,
    StreamRecord,
    StreamStore,
    scan_records,
)
from repro.store import segment as segment_module
from repro.store.query import StreamPayload

from .test_retention import assert_index_coherent

ABSENT = FiveTuple(1, 1, 2, 2, IPProtocol.TCP)


def _client(n, port=80):
    return FiveTuple(10 + n, 1000 + n, 20, port, IPProtocol.TCP)


def _workload(seed, connections=6, rounds=14, start_ts=0.0, port=80):
    """Interleaved records of several two-way connections.

    Sizes vary from a few bytes to a few hundred, so with a small
    ``segment_bytes`` every connection straddles several segment rolls;
    some records re-record bytes already stored (overlap), some
    timestamps run backwards (a segment's first record is not always
    its oldest), and half the payloads compress.
    """
    rng = random.Random(seed)
    offsets = {}
    records = []
    ts = start_ts
    for _round in range(rounds):
        for n in range(connections):
            direction = rng.randrange(2)
            client = _client(n, port)
            offset = offsets.get((n, direction), 0)
            if offset and rng.random() < 0.2:
                offset -= rng.randrange(1, min(offset, 40) + 1)  # re-recorded bytes
            size = rng.choice((7, 60, 180, 400))
            ts += rng.choice((0.5, 1.0, -0.25))
            records.append(
                StreamRecord(
                    five_tuple=client if direction == 0 else client.reversed(),
                    direction=direction,
                    stream_offset=offset,
                    timestamp=ts,
                    data=(
                        bytes(rng.randrange(256) for _ in range(size))
                        if rng.random() < 0.5
                        else bytes([rng.randrange(256)]) * size  # zlib shrinks these
                    ),
                    priority=n % 3,
                )
            )
            offsets[(n, direction)] = offset + size
    return records


def _fill(store, records):
    cores = store.writer.cores
    for record in records:
        store.append(record, core=record.client_tuple.src_port % cores)
    store.flush()


# ----------------------------------------------------------------------
# The oracle: the read path as it was before lookups used ``_by_tuple``
# ----------------------------------------------------------------------
def _old_lookup(index, five_tuple=None, start_ts=None, end_ts=None):
    wanted = StoreIndex._key(five_tuple) if five_tuple is not None else None
    segments = sorted(index.segments.values(), key=lambda s: (s.info.first_ts, s.info.path))
    for segment in segments:
        for meta in segment.records:
            if wanted is not None and StoreIndex._key(meta.client_tuple) != wanted:
                continue
            if start_ts is not None and meta.timestamp < start_ts:
                continue
            if end_ts is not None and meta.timestamp > end_ts:
                continue
            yield segment, meta


def _assemble(client_tuple, direction, records):
    """Offset-sort, dedup overlap, and concatenate one direction's
    ``StreamRecord``s: the store's assembly as it was before queries
    read frames as views, kept here so the oracle does not share code
    with what it checks."""
    records = sorted(records, key=lambda record: (record.stream_offset, -len(record.data)))
    parts = []
    base_offset = records[0].stream_offset
    next_offset = base_offset
    gap_bytes = 0
    for record in records:
        end = record.stream_offset + len(record.data)
        if end <= next_offset:
            continue  # fully duplicated bytes
        if record.stream_offset > next_offset:
            gap_bytes += record.stream_offset - next_offset
            parts.append(record.data)
        else:
            parts.append(record.data[next_offset - record.stream_offset :])
        next_offset = end
    return StreamPayload(
        client_tuple=client_tuple,
        direction=direction,
        data=b"".join(parts),
        first_ts=min(record.timestamp for record in records),
        last_ts=max(record.timestamp for record in records),
        base_offset=base_offset,
        gap_bytes=gap_bytes,
    )


def _old_query(index, five_tuple=None, start_ts=None, end_ts=None):
    matches = {}
    for segment, meta in _old_lookup(index, five_tuple, start_ts, end_ts):
        matches.setdefault(segment.path, set()).add(meta.file_offset)
    groups, group_tuple = {}, {}
    for path, wanted in matches.items():
        for offset, record in scan_records(path):
            if offset not in wanted:
                continue
            key = (StoreIndex._key(record.client_tuple), record.direction)
            groups.setdefault(key, []).append(record)
            group_tuple.setdefault(key, record.client_tuple)
    streams = [_assemble(group_tuple[key], key[1], records) for key, records in groups.items()]
    streams.sort(key=lambda s: (s.first_ts, s.client_tuple, s.direction))
    return streams


def _of(streams, connection):
    key = StoreIndex._key(connection)
    return [stream for stream in streams if StoreIndex._key(stream.client_tuple) == key]


def _assert_point_reads_match(store):
    """Every connection, every filter shape: point == full == oracle."""
    index = store.index
    connections = store.connections()
    assert connections
    everything = store.query().streams
    assert everything == _old_query(index)
    seen_first = {}
    for _segment, meta in _old_lookup(index):
        seen_first.setdefault(StoreIndex._key(meta.client_tuple), meta.client_tuple)
    assert connections == list(seen_first.values())
    first_seen = []
    for stream in everything:
        if stream.client_tuple not in first_seen:
            first_seen.append(stream.client_tuple)
    assert store.query().connections() == first_seen
    for connection in connections:
        point = store.query(five_tuple=connection).streams
        assert point, connection
        assert point == _of(everything, connection)
        assert point == _old_query(index, connection)
        assert store.query(five_tuple=connection.reversed()).streams == point
        stamps = sorted(
            meta.timestamp for _segment, meta in _old_lookup(index, connection)
        )
        mid, late = stamps[len(stamps) // 2], stamps[-2]
        for window in (
            {"start_ts": mid},
            {"end_ts": mid},
            {"start_ts": mid, "end_ts": late},
            {"start_ts": late + 100.0},
        ):
            got = store.query(five_tuple=connection, **window).streams
            assert got == _old_query(index, connection, **window), window
            assert got == _of(store.query(**window).streams, connection), window
            # Same (segment, meta) objects in the same order, not only
            # the same bytes once assembled.
            pairs = [
                (segment, meta)
                for segment, metas in index.lookup(connection, **window)
                for meta in metas
            ]
            old_pairs = list(_old_lookup(index, connection, **window))
            assert len(pairs) == len(old_pairs)
            assert all(
                new[0] is old[0] and new[1] is old[1] for new, old in zip(pairs, old_pairs)
            )


# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("cores", [1, 2])
    def test_point_query_equals_full_query_and_scan_oracle(self, tmp_path, cores, compress):
        store = StreamStore(str(tmp_path), cores=cores, segment_bytes=1500, compress=compress)
        _fill(store, _workload(seed=3))
        _fill(store, _workload(seed=4, start_ts=40.0))  # same connections, later segments
        assert len(store.index.segments) > 4
        straddlers = [
            connection
            for connection in store.connections()
            if len({
                segment.path
                for segment, metas in store.index.lookup(connection)
                for _meta in metas
            }) > 1
        ]
        assert straddlers  # records of one connection on both sides of a roll
        _assert_point_reads_match(store)
        assert_index_coherent(store.index)
        store.close(enforce_retention=False)
        reopened = StreamStore(str(tmp_path))
        _assert_point_reads_match(reopened)
        reopened.close(enforce_retention=False)

    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("cores", [1, 2])
    def test_one_workload_recorded_twice(self, tmp_path, cores, compress):
        """What the daemon's store holds after two submissions of one
        pcap: every record twice, in two flushes.  A third flush adds a
        record fully inside an earlier, longer one of its stream."""
        store = StreamStore(
            str(tmp_path / "twice"), cores=cores, segment_bytes=1500, compress=compress
        )
        records = _workload(seed=10)
        _fill(store, records)
        _fill(store, records)
        longer = max(records, key=lambda record: len(record.data))
        inner = StreamRecord(
            five_tuple=longer.five_tuple,
            direction=longer.direction,
            stream_offset=longer.stream_offset + 3,
            timestamp=longer.timestamp + 200.0,
            data=longer.data[3:-3],
            priority=longer.priority,
        )
        _fill(store, [inner])
        assert store.index.record_count == 2 * len(records) + 1
        once = StreamStore(str(tmp_path / "once"), cores=cores, segment_bytes=1500)
        _fill(once, records)
        for connection in once.connections():
            twice = store.query(five_tuple=connection).streams
            single = once.query(five_tuple=connection).streams
            assert [stream.data for stream in twice] == [stream.data for stream in single]
        _assert_point_reads_match(store)
        once.close(enforce_retention=False)
        store.close(enforce_retention=False)

    def test_after_retention_compacted_one_segment_and_deleted_another(self, tmp_path):
        policy = RetentionPolicy(
            max_age=60.0, class_quotas=[ClassQuota(expression="port 25", max_bytes=2500)]
        )
        store = StreamStore(str(tmp_path), segment_bytes=3000, retention=policy)
        _fill(store, _workload(seed=5, connections=3, rounds=4))  # old: aged out whole
        _fill(store, _workload(seed=6, start_ts=100.0))
        _fill(store, _workload(seed=7, connections=2, start_ts=100.0, port=25))  # over quota
        before = {connection: store.query(connection).total_bytes
                  for connection in store.connections()}
        report = store.enforce_retention(now_ts=130.0)
        assert report.segments_deleted >= 1 and report.segments_compacted >= 1
        after = {connection: store.query(connection).total_bytes
                 for connection in store.connections()}
        assert any(after[c] < before[c] for c in after)  # compaction carved a stream
        assert any(after[c] == before[c] for c in after)
        assert_index_coherent(store.index)
        _assert_point_reads_match(store)
        store.close(enforce_retention=False)

    def test_grouped_lookup_with_a_window_inside_a_segment(self, tmp_path):
        """Per-segment groups: ``(first_ts, path)`` order, file order
        inside, no empty group — also when the time window cuts a
        segment's entries — and unbounded lookups hand over the lists
        the index keeps."""
        store = StreamStore(str(tmp_path), segment_bytes=1500)
        _fill(store, _workload(seed=3))
        _fill(store, _workload(seed=4, start_ts=40.0))
        index = store.index

        def flat(groups):
            return [(segment, meta) for segment, metas in groups for meta in metas]

        def check_shape(groups):
            assert all(metas for _segment, metas in groups)
            keys = [(segment.info.first_ts, segment.path) for segment, _metas in groups]
            assert keys == sorted(set(keys))
            for _segment, metas in groups:
                offsets = [meta.file_offset for meta in metas]
                assert offsets == sorted(offsets)

        everything = index.lookup()
        check_shape(everything)
        assert all(metas is segment.records for segment, metas in everything)
        assert flat(everything) == list(_old_lookup(index))
        cut_inside = 0
        for connection in store.connections():
            whole = index.lookup(connection)
            check_shape(whole)
            if len(whole) == 1:
                assert whole[0][1] is index._by_tuple[StoreIndex._key(connection)]
                continue
            stamps = sorted(meta.timestamp for _segment, meta in flat(whole))
            window = {"start_ts": stamps[len(stamps) // 3], "end_ts": stamps[2 * len(stamps) // 3]}
            groups = index.lookup(connection, **window)
            check_shape(groups)
            pairs = flat(groups)
            old_pairs = list(_old_lookup(index, connection, **window))
            assert len(pairs) == len(old_pairs)
            assert all(new[0] is old[0] and new[1] is old[1] for new, old in zip(pairs, old_pairs))
            sizes = {segment.path: len(metas) for segment, metas in whole}
            cut_inside += any(0 < len(metas) < sizes[segment.path] for segment, metas in groups)
            point = store.query(connection, **window).streams
            scan = _of(store.query(**window).streams, connection)
            assert point == scan == _old_query(index, connection, **window)
            assert [stream.data for stream in point] == [stream.data for stream in scan]
        assert cut_inside
        store.close(enforce_retention=False)

    def test_absent_tuple_opens_no_descriptor(self, tmp_path, monkeypatch):
        store = StreamStore(str(tmp_path), segment_bytes=1500)
        _fill(store, _workload(seed=8))

        def no_open(*args, **kwargs):
            raise AssertionError(f"a query for nothing opened {args[0]}")

        monkeypatch.setattr(segment_module.os, "open", no_open)
        assert store.query(five_tuple=ABSENT).streams == []
        assert store.query(five_tuple=ABSENT, start_ts=0.0, end_ts=1e9).streams == []
        assert store.query(five_tuple=store.connections()[0], start_ts=1e9).streams == []
        monkeypatch.undo()
        store.close(enforce_retention=False)

    def test_absent_tuple_is_empty_and_opens_no_file(self, tmp_path, monkeypatch):
        store = StreamStore(str(tmp_path), segment_bytes=1500)
        _fill(store, _workload(seed=8))

        def no_open(*args, **kwargs):
            raise AssertionError(f"a query for nothing opened {args[0]}")

        monkeypatch.setattr(segment_module, "open", no_open, raising=False)
        assert store.query(five_tuple=ABSENT).streams == []
        assert store.query(five_tuple=ABSENT, start_ts=0.0, end_ts=1e9).streams == []
        assert [meta for _, metas in store.index.lookup(ABSENT) for meta in metas] == []
        connection = store.connections()[0]
        assert store.query(five_tuple=connection, start_ts=1e9).streams == []
        monkeypatch.undo()
        store.close(enforce_retention=False)


# ----------------------------------------------------------------------
class TestCorruption:
    """Damage to a segment *after* it was indexed.

    The index still names the damaged frame.  The read of a segment
    stops at the first wanted frame that fails its check, exactly like
    a scan stops at the first frame that fails: the affected
    connection's point query serves what it read before the damage
    (plus its other segments) — which is also all a fresh store's
    recovery scan will index for it.  Connections whose wanted frames
    are intact do not notice.
    """

    def _store(self, tmp_path, compress=False):
        store = StreamStore(str(tmp_path), segment_bytes=6000, compress=compress)
        _fill(store, _workload(seed=9))
        return store

    @staticmethod
    def _victim(store):
        """A mid-file record of the first segment, with its connection."""
        segment = min(store.index.segments.values(), key=lambda s: s.path)
        meta = segment.records[len(segment.records) // 2]
        return segment, meta

    @pytest.mark.parametrize("compress", [False, True])
    def test_flipped_body_byte_is_never_served(self, tmp_path, compress):
        store = self._store(tmp_path, compress)
        segment, victim = self._victim(store)
        connections = store.connections()
        affected = next(
            c for c in connections
            if StoreIndex._key(c) == StoreIndex._key(victim.client_tuple)
        )
        before = {c: store.query(c).streams for c in connections}
        survivors = [
            meta for seg, metas in store.index.lookup(affected) for meta in metas
            if seg is not segment or meta.file_offset < victim.file_offset
        ]
        with open(segment.path, "r+b") as handle:
            handle.seek(victim.file_offset + 9 + 3)  # inside the frame body
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))

        damaged = store.query(affected).streams  # must not raise
        assert sum(len(s.data) for s in damaged) < sum(len(s.data) for s in before[affected])
        # Exactly the records read before the damaged frame, plus the
        # connection's frames in other segments.
        expected = {}
        for seg_path in sorted({m.segment.path for m in survivors}):
            offsets = {m.file_offset for m in survivors if m.segment.path == seg_path}
            for offset, record in scan_records(seg_path):
                if offset in offsets:
                    expected.setdefault(record.direction, []).append(record)
        assert sorted(damaged, key=lambda s: s.direction) == [
            _assemble(affected, direction, records)
            for direction, records in sorted(expected.items())
        ]
        for connection in connections:
            if connection != affected:
                assert store.query(connection).streams == before[connection]
        store.close(enforce_retention=False)
        reopened = StreamStore(str(tmp_path))
        assert reopened.query(affected).streams == damaged
        reopened.close(enforce_retention=False)

    def test_truncation_mid_frame_after_indexing(self, tmp_path):
        store = self._store(tmp_path)
        segment, victim = self._victim(store)
        connections = store.connections()
        before = {c: store.query(c).streams for c in connections}
        untouched = [
            c for c in connections
            if all(
                seg is not segment or meta.file_offset < victim.file_offset
                for seg, metas in store.index.lookup(c)
                for meta in metas
            )
        ]
        os.truncate(segment.path, victim.file_offset + 9 + victim.length // 2)

        after = {c: store.query(c).streams for c in connections}  # must not raise
        cut = [c for c in connections if c not in untouched]
        assert cut
        for connection in cut:
            assert sum(len(s.data) for s in after[connection]) < sum(
                len(s.data) for s in before[connection]
            )
        for connection in untouched:
            assert after[connection] == before[connection]
        store.close(enforce_retention=False)
        reopened = StreamStore(str(tmp_path))
        # Truncation loses everything past the cut for every reader, so
        # here the fresh store agrees on every connection.
        for connection in connections:
            assert reopened.query(connection).streams == after[connection]
        reopened.close(enforce_retention=False)

    def test_bad_header_magic_raises_through_a_point_query(self, tmp_path):
        store = self._store(tmp_path)
        segment, victim = self._victim(store)
        with open(segment.path, "r+b") as handle:
            handle.write(b"NOTASEG\x01")
        with pytest.raises(ValueError, match="bad magic"):
            store.query(victim.client_tuple)
        with pytest.raises(ValueError, match="bad magic"):
            store.query()
        with pytest.raises(ValueError, match="bad magic"):
            list(scan_records(segment.path))
