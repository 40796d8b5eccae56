"""The planned read: a query reads only the frames its answer uses.

Where a connection's stored bytes may overlap (the index's
``overlapping`` set), ``run_query`` plans from the index entries which
frames assembly keeps and reads only those.  Differential: for stores
with re-recorded captures, equal offsets of different lengths, partial
overlaps, gaps, out-of-order timestamps and many small segments, every
full, point and time-bounded query must equal an oracle that reads
*every* frame with ``scan_records`` and assembles them with the rule
the store has always used — and the bytes ``os.pread`` returns must be
exactly the frames that assembly uses.  Damage: a skipped frame is
never read, a used one sends the query back to the unplanned read.
"""

import os
import random
import tempfile
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import StreamRecorder
from repro.core import ScapSocket
from repro.netstack import FiveTuple, IPProtocol
from repro.store import StoreIndex, StreamRecord, StreamStore, scan_records
from repro.store import query as query_module
from repro.store import segment as segment_module
from repro.store.query import StreamPayload
from repro.traffic import campus_mix

from .test_retention import assert_index_coherent, rows_of

#: ``os.pread`` bytes of a segment header and of one frame around its
#: payload (frame header plus the record's fixed fields).
HEADER_BYTES = 16
FRAME_OVERHEAD = 9 + 32


def _client(n):
    return FiveTuple(0x0A000001 + n, 40000 + n, 0x0A0000FE, 80, IPProtocol.TCP)


# ----------------------------------------------------------------------
# The oracle: every frame scanned, assembled as the store always has
# ----------------------------------------------------------------------
def _oracle(index, five_tuple=None, start_ts=None, end_ts=None):
    """``(streams, used)``: the expected answer, and the ``(path,
    file_offset, length)`` of each frame its assembly uses."""
    wanted = StoreIndex._key(five_tuple) if five_tuple is not None else None
    segments = sorted(index.segments.values(), key=lambda s: (s.info.first_ts, s.path))
    directions, names = {}, {}
    for segment in segments:
        for offset, record in scan_records(segment.path):
            key = StoreIndex._key(record.client_tuple)
            if wanted is not None and key != wanted:
                continue
            if start_ts is not None and record.timestamp < start_ts:
                continue
            if end_ts is not None and record.timestamp > end_ts:
                continue
            frames = directions.setdefault((key, record.direction), [])
            frames.append((segment.path, offset, record))
            names.setdefault((key, record.direction), record.client_tuple)
    streams, used = [], []
    for (key, direction), frames in directions.items():
        frames.sort(key=lambda frame: (frame[2].stream_offset, -len(frame[2].data)))
        base = covered = frames[0][2].stream_offset
        parts, gap = [], 0
        for path, offset, record in frames:
            start, end = record.stream_offset, record.stream_offset + len(record.data)
            if end <= covered:
                continue
            used.append((path, offset, len(record.data)))
            if start > covered:
                gap += start - covered
                parts.append(record.data)
            else:
                parts.append(record.data[covered - start:])
            covered = end
        stamps = [record.timestamp for _path, _offset, record in frames]
        streams.append(StreamPayload(
            client_tuple=names[key, direction], direction=direction, data=b"".join(parts),
            first_ts=min(stamps), last_ts=max(stamps), base_offset=base, gap_bytes=gap,
        ))
    streams.sort(key=lambda s: (s.first_ts, s.client_tuple, s.direction))
    return streams, used


def _expected_read_bytes(used):
    """What ``os.pread`` returns for exactly the ``used`` frames."""
    paths = {path for path, _offset, _length in used}
    return HEADER_BYTES * len(paths) + sum(FRAME_OVERHEAD + length for _p, _o, length in used)


def _run_count(used):
    """The reads of the ``(path, file_offset, length)`` frames besides
    each segment's header: one per run of frames that lie next to each
    other in one file, a run holding at most ``READ_BLOCK`` bytes."""
    runs, before, start = 0, None, 0
    for path, offset, length in sorted(used):
        end = offset + FRAME_OVERHEAD + length
        if before != (path, offset) or end - start > segment_module.READ_BLOCK:
            runs += 1
            start = offset
        before = (path, end)
    return runs


@contextmanager
def _counted_preads():
    """Count the bytes every ``os.pread`` returns while inside."""
    counted = [0]
    real = os.pread

    def pread(fd, size, offset):
        data = real(fd, size, offset)
        counted[0] += len(data)
        return data

    with mock.patch.object(segment_module.os, "pread", pread):
        yield counted


# ----------------------------------------------------------------------
# Generated stores
# ----------------------------------------------------------------------
@st.composite
def _direction(draw, truth):
    """One direction's records as ``(offset, length, ts, data)``.

    ``clean``: contiguous pieces in offset order, some with a gap
    before them — what one capture records.  Otherwise offsets and
    lengths come from a coarse grid, so equal offsets with different
    lengths, containment and partial overlap are all common; a record
    either carries the stream's own bytes or bytes of its own.
    """
    stamp = st.integers(0, 40).map(lambda n: n / 4)
    records = []
    if draw(st.booleans()):
        offset = draw(st.integers(0, 3)) * 16
        for _ in range(draw(st.integers(1, 6))):
            offset += draw(st.sampled_from((0, 0, 0, 5)))  # a gap now and then
            length = draw(st.integers(1, 90))
            records.append((offset, length, draw(stamp), truth[offset:offset + length]))
            offset += length
        return records
    for _ in range(draw(st.integers(1, 8))):
        offset = draw(st.integers(0, 20)) * 8 + draw(st.sampled_from((0, 0, 3)))
        length = draw(st.sampled_from((1, 8, 16, 24, 40, 77)))
        if draw(st.integers(0, 3)):
            data = truth[offset:offset + length]
        else:
            data = bytes([draw(st.integers(0, 255))]) * length
        records.append((offset, length, draw(stamp), data))
    return records


@st.composite
def _stores(draw):
    """Store parameters and the records to append, in append order."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    truth = bytes(rng.randrange(256) for _ in range(512))
    lanes = []
    for n in range(draw(st.integers(1, 3))):
        client = _client(n)
        for direction in (0, 1):
            if direction and not draw(st.booleans()):
                continue
            sender = client if direction == 0 else client.reversed()
            lanes.append([
                StreamRecord(sender, direction, offset, ts, data, priority=n % 3)
                for offset, _length, ts, data in draw(_direction(truth))
            ])
    # Interleave the directions, each keeping its own order.
    capture = []
    while any(lanes):
        lane = rng.choice([lane for lane in lanes if lane])
        capture.append(lane.pop(0))
    appends = [capture]
    if draw(st.booleans()):  # the same capture recorded again
        shift = draw(st.sampled_from((0.0, 50.0)))
        appends.append([
            StreamRecord(r.five_tuple, r.direction, r.stream_offset, r.timestamp + shift,
                         r.data, r.priority)
            for r in capture
        ])
    return {
        "appends": appends,
        "segment_bytes": draw(st.sampled_from((150, 400, 1200, 1 << 20))),
        "cores": draw(st.sampled_from((1, 2))),
        "compress": draw(st.booleans()),
        "window": (draw(st.integers(0, 40)) / 4, draw(st.integers(0, 40)) / 4),
    }


def _build(directory, spec):
    store = StreamStore(
        directory, cores=spec["cores"], segment_bytes=spec["segment_bytes"],
        compress=spec["compress"],
    )
    for records in spec["appends"]:
        for record in records:
            store.append(record, core=record.client_tuple.src_port % spec["cores"])
        store.flush()
    return store


def _check_query(store, compress, **query):
    expected, used = _oracle(store.index, **query)
    with _counted_preads() as counted:
        got = store.query(**query).streams
    assert got == expected, query
    if not compress:  # a compressed frame's read is sized from its payload
        assert counted[0] == _expected_read_bytes(used), query


@settings(
    max_examples=200, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=_stores())
def test_planned_query_equals_scan_oracle_and_reads_only_used_frames(spec):
    with tempfile.TemporaryDirectory() as directory:
        store = _build(directory, spec)
        assert_index_coherent(store.index)
        low, high = sorted(spec["window"])
        queries = [{}, {"start_ts": low}, {"end_ts": high}, {"start_ts": low, "end_ts": high}]
        for connection in store.connections():
            queries += [
                {"five_tuple": connection},
                {"five_tuple": connection.reversed()},
                {"five_tuple": connection, "start_ts": low, "end_ts": high},
            ]
        for query in queries:
            _check_query(store, spec["compress"], **query)
        store.close(enforce_retention=False)
        reopened = StreamStore(directory)
        assert reopened.index.overlapping == store.index.overlapping
        for query in queries[:4]:
            _check_query(reopened, spec["compress"], **query)
        reopened.close(enforce_retention=False)


# ----------------------------------------------------------------------
# A capture recorded twice
# ----------------------------------------------------------------------
def _record(store, seed=3):
    socket = ScapSocket(campus_mix(flow_count=12, seed=seed), memory_size=64 << 20, rate_bps=1e9)
    recorder = StreamRecorder(store)
    socket.set_store(recorder)
    socket.start_capture()
    return recorder.recorded_bytes


def test_capture_recorded_twice_reads_one_capture(tmp_path):
    """A full query of a store holding one capture twice reads the
    payload bytes of one capture, exactly, and answers as a store that
    holds it once."""
    once = StreamStore(str(tmp_path / "once"), cores=1)
    one_capture = _record(once)
    twice = StreamStore(str(tmp_path / "twice"), cores=1)
    assert _record(twice) == _record(twice) == one_capture
    assert not once.index.overlapping
    assert twice.index.overlapping == set(twice.index._by_tuple)
    assert twice.index.payload_bytes == 2 * one_capture

    frames = []
    real = os.pread

    def pread(fd, size, offset):
        data = real(fd, size, offset)
        frames.append((offset, len(data)))
        return data

    with mock.patch.object(segment_module.os, "pread", pread):
        answer = twice.query()
    used = _oracle(twice.index)[1]
    assert len(used) == once.index.record_count
    payload_read = sum(size for offset, size in frames if offset) - FRAME_OVERHEAD * len(used)
    assert payload_read == one_capture
    assert len(frames) - sum(1 for offset, _ in frames if not offset) == _run_count(used)
    single = once.query()
    assert answer.total_bytes == single.total_bytes == one_capture
    assert [(s.client_tuple, s.direction, s.data, s.base_offset, s.gap_bytes)
            for s in answer] == [
        (s.client_tuple, s.direction, s.data, s.base_offset, s.gap_bytes) for s in single
    ]
    once.close(enforce_retention=False)
    twice.close(enforce_retention=False)


# ----------------------------------------------------------------------
# The overlap set and damage
# ----------------------------------------------------------------------
def _records(copy=0):
    """Three two-way connections in four pieces per direction; ``copy``
    re-records the same ranges with other bytes and later stamps."""
    records = []
    for n in range(3):
        client = _client(n)
        for piece in range(4):
            records.append(StreamRecord(
                client, 0, piece * 50, 1.0 + piece + copy, bytes([n + copy]) * 50
            ))
            records.append(StreamRecord(
                client.reversed(), 1, piece * 70, 1.5 + piece + copy, bytes([n + 8 + copy]) * 70
            ))
    return records


def _twice_store(directory):
    """Connections 0 and 1 recorded twice, connection 2 once."""
    store = StreamStore(directory, cores=1, segment_bytes=600)
    for records in (_records(), _records(copy=100)[:16]):
        for record in records:
            store.append(record)
        store.flush()
    return store


def _unplanned(store, *args, **kwargs):
    """The answer of the unplanned read, over the same index."""
    with mock.patch.object(store.index, "overlapping", set()):
        return store.query(*args, **kwargs).streams


def test_overlap_set_follows_installs_and_removals(tmp_path):
    store = StreamStore(str(tmp_path), cores=1, segment_bytes=600)
    for record in _records():
        store.append(record)
    store.flush()
    first = set(store.index.segments)
    assert store.index.overlapping == set()
    for record in _records(copy=100)[:16]:
        store.append(record)
    store.flush()
    assert store.index.overlapping == {StoreIndex._key(_client(n)) for n in (0, 1)}
    assert_index_coherent(store.index)
    for path in sorted(set(store.index.segments) - first):
        store.index.remove_segment(path)
        assert_index_coherent(store.index)
    assert store.index.overlapping == set()  # the second recording is gone
    store.close(enforce_retention=False)


def test_zero_length_first_record_keeps_the_base_offset(tmp_path):
    store = StreamStore(str(tmp_path), cores=1)
    client = _client(0)
    for record in (
        StreamRecord(client, 0, 10, 1.0, b""),
        StreamRecord(client, 0, 10, 2.0, b"abcdef"),
        StreamRecord(client, 0, 0, 3.0, b""),
        StreamRecord(client, 0, 12, 4.0, b"cd"),
        StreamRecord(client, 0, 20, 5.0, b"xy"),
    ):
        store.append(record)
    store.flush()
    assert store.index.overlapping
    for query in ({}, {"five_tuple": client}, {"start_ts": 1.5}):
        assert store.query(**query).streams == _oracle(store.index, **query)[0]
        assert store.query(**query).streams == _unplanned(store, **query)
    store.close(enforce_retention=False)


@pytest.mark.parametrize("sealed", [False, True])
def test_end_bound_finds_a_record_older_than_its_segments_first(tmp_path, sealed):
    """A segment is skipped only when its *oldest* record is past the
    end bound: its first record may be newer than a later one."""
    store = StreamStore(str(tmp_path), cores=1)
    client = _client(0)
    store.append(StreamRecord(client, 0, 0, 5.0, b"late"))
    store.append(StreamRecord(client, 0, 4, 1.0, b"early"))
    store.flush()
    if sealed:
        store.close(enforce_retention=False)
        store = StreamStore(str(tmp_path))
    for query in ({"end_ts": 2.0}, {"five_tuple": client, "start_ts": 0.0, "end_ts": 2.0}):
        streams = store.query(**query).streams
        assert [stream.data for stream in streams] == [b"early"]
        assert streams == _oracle(store.index, **query)[0]
    store.close(enforce_retention=False)


def test_any_direction_byte_is_indexed(tmp_path):
    """The direction is a byte on disk; the overlap check takes any."""
    store = StreamStore(str(tmp_path), cores=1)
    client = _client(0)
    for direction, offset in ((0, 0), (7, 0), (7, 4), (7, 2)):
        store.append(StreamRecord(client, direction, offset, 1.0, b"abcd"))
    store.flush()
    assert store.index.overlapping == {StoreIndex._key(client)}
    assert store.query().streams == _oracle(store.index)[0]
    store.close(enforce_retention=False)
    reopened = StreamStore(str(tmp_path))
    assert reopened.index.overlapping == {StoreIndex._key(client)}
    reopened.close(enforce_retention=False)


def _flip(path, file_offset):
    with open(path, "r+b") as handle:
        handle.seek(file_offset + 9 + 3)  # inside the frame body
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xFF]))


@pytest.mark.parametrize("point", [False, True])
def test_damage_to_a_skipped_frame_changes_nothing(tmp_path, point):
    store = _twice_store(str(tmp_path))
    connection = _client(0)
    query = {"five_tuple": connection} if point else {}
    before = store.query(**query).streams
    _, used = _oracle(store.index, **query)
    used = {(path, offset) for path, offset, _length in used}
    skipped = [
        meta for segment in store.index.segments.values() for meta in rows_of(segment)
        if StoreIndex._key(meta.five_tuple) == StoreIndex._key(connection)
        and (segment.path, meta.file_offset) not in used
    ]
    assert skipped
    victim = skipped[len(skipped) // 2]
    _flip(victim.segment.path, victim.file_offset)
    asked = set()

    def read_payloads(path, columns, rows):
        asked.update((path, columns.file_offset[row]) for row in rows)
        return segment_module.read_payloads(path, columns, rows)

    with mock.patch.object(query_module, "read_payloads", read_payloads):
        assert store.query(**query).streams == before
    assert (victim.segment.path, victim.file_offset) not in asked
    store.close(enforce_retention=False)


@pytest.mark.parametrize("point", [False, True])
def test_damage_to_a_used_frame_reads_as_unplanned(tmp_path, point):
    store = _twice_store(str(tmp_path))
    connection = _client(1)
    query = {"five_tuple": connection} if point else {}
    before = store.query(**query).streams
    _, used = _oracle(store.index, **query)
    path, offset, _length = next(
        frame for frame in used
        if any(
            meta.file_offset == frame[1]
            and StoreIndex._key(meta.five_tuple) == StoreIndex._key(connection)
            for meta in rows_of(store.index.segments[frame[0]])
        )
    )
    _flip(path, offset)
    damaged = store.query(**query).streams
    # The re-recorded copy fills in what the damaged one no longer
    # gives, with its own bytes: only the unplanned read finds them.
    assert damaged != before
    assert damaged == _unplanned(store, **query)
    store.close(enforce_retention=False)
