"""Run reads: frames that lie next to each other are read with one pread.

``segment.read_payloads`` joins index entries whose frames are adjacent
into runs of at most ``READ_BLOCK`` bytes and reads each run at once.
Exact gates: a full scan of a one-segment store makes one header read
and one read per ``READ_BLOCK`` of frames.  Damage inside a run: every
full, point and time-bounded query equals an oracle that reads each
wanted frame on its own and stops at the first that fails, on the live
store and on the store reopened from its directory, and a query that
hits a bad frame leaves no descriptor open.
"""

import math
import os
import random
import struct
import zlib
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.netstack import FiveTuple, IPProtocol
from repro.store import StoreIndex, StreamRecord, StreamStore
from repro.store import segment as segment_module

from .test_point_read import _assemble
from .test_query_plan import FRAME_OVERHEAD, HEADER_BYTES, _oracle
from .test_retention import rows_of


def _client(n):
    return FiveTuple(0x0A000001 + n, 41000 + n, 0x0A0000FE, 80, IPProtocol.TCP)


# ----------------------------------------------------------------------
# The oracle: one read per wanted frame, as the store read before runs
# ----------------------------------------------------------------------
def _read_each(path, offsets):
    """The records framed at ``offsets`` (ascending), each read and
    checked on its own; the first that fails ends the read."""
    records = []
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        header = handle.read(HEADER_BYTES)
        if len(header) < HEADER_BYTES or header[:8] != b"SCAPSEG\x01":
            return records
        for offset in offsets:
            handle.seek(offset)
            head = handle.read(9)
            if len(head) < 9:
                break
            length, crc, flags = struct.unpack("!IIB", head)
            if length == 0xFFFFFFFF or offset + 9 + length > size:
                break
            body = handle.read(length)
            if len(body) < length or zlib.crc32(body) != crc:
                break
            if flags & 1:
                body = zlib.decompress(body)
            records.append(StreamRecord.decode(body))
    return records


def _per_frame_query(index, five_tuple=None, start_ts=None, end_ts=None):
    wanted = StoreIndex._key(five_tuple) if five_tuple is not None else None
    segments = sorted(index.segments.values(), key=lambda s: (s.info.first_ts, s.path))
    directions, names = {}, {}
    for segment in segments:
        offsets = [
            meta.file_offset for meta in rows_of(segment)
            if (wanted is None or StoreIndex._key(meta.client_tuple) == wanted)
            and (start_ts is None or meta.timestamp >= start_ts)
            and (end_ts is None or meta.timestamp <= end_ts)
        ]
        for record in _read_each(segment.path, offsets):
            key = (StoreIndex._key(record.client_tuple), record.direction)
            directions.setdefault(key, []).append(record)
            names.setdefault(key, record.client_tuple)
    streams = [
        _assemble(names[key], key[1], records) for key, records in directions.items()
    ]
    streams.sort(key=lambda s: (s.first_ts, s.client_tuple, s.direction))
    return streams


def _windows(entries):
    """No bound, and three time bounds cutting ``entries``."""
    stamps = sorted(meta.timestamp for meta in entries)
    mid, late = stamps[len(stamps) // 2], stamps[-3]
    return ({}, {"start_ts": mid}, {"end_ts": mid}, {"start_ts": mid, "end_ts": late})


def _assert_queries_match(store, connections, windows):
    """Full, point and time-bounded queries equal the per-frame oracle."""
    index = store.index
    assert store.query().streams == _per_frame_query(index)
    for window in windows[1:]:
        assert store.query(**window).streams == _per_frame_query(index, **window), window
    for connection in connections:
        for window in windows:
            assert store.query(connection, **window).streams == _per_frame_query(
                index, connection, **window
            ), (connection, window)


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@contextmanager
def _preads():
    """The ``(offset, bytes returned)`` of every ``os.pread`` inside."""
    reads = []
    real = os.pread

    def pread(fd, size, offset):
        data = real(fd, size, offset)
        reads.append((offset, len(data)))
        return data

    with mock.patch.object(segment_module.os, "pread", pread):
        yield reads


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------
def _fill(directory, compress=False):
    """One segment: five connections, each round two adjacent records of
    one direction per connection, so a point query's frames form runs
    of two and a full scan's one run.  With ``compress`` every other
    record's payload is random (stored as it is) and the rest compress."""
    rng = random.Random(7)
    store = StreamStore(directory, cores=1, compress=compress)
    offsets = {}
    stamp = 0.0
    for round_ in range(6):
        for n in range(5):
            direction = (round_ + n) % 2
            tuple_ = _client(n) if direction == 0 else _client(n).reversed()
            for piece in range(2):
                size = rng.choice((9, 40, 120, 300))
                if compress and piece:
                    data = rng.randbytes(size)
                else:
                    data = bytes([65 + n + direction]) * size
                offset = offsets.get((n, direction), 0)
                stamp += rng.choice((0.5, 1.0, -0.25))
                store.append(StreamRecord(tuple_, direction, offset, stamp, data))
                offsets[n, direction] = offset + size
    store.flush()
    assert len(store.index.segments) == 1 and not store.index.overlapping
    return store


def _frames(store):
    """The one segment and its entries in file order."""
    (segment,) = store.index.segments.values()
    return segment, rows_of(segment)


def _entry_end(meta):
    return meta.file_offset + FRAME_OVERHEAD + meta.length


# ----------------------------------------------------------------------
# Exact read counts
# ----------------------------------------------------------------------
def test_full_scan_reads_header_then_one_pread_per_block(tmp_path):
    frame = 64  # divides READ_BLOCK, so runs fill it exactly
    assert segment_module.READ_BLOCK % frame == 0
    count = 5000
    store = StreamStore(str(tmp_path), cores=1)
    for n in range(count):
        connection = _client(n % 50)
        store.append(StreamRecord(connection, 0, (n // 50) * 23, n / 100, b"%023d" % n))
    store.flush()
    _segment, entries = _frames(store)
    assert len(entries) == count
    assert all(_entry_end(a) == b.file_offset for a, b in zip(entries, entries[1:]))
    assert _entry_end(entries[0]) - entries[0].file_offset == frame

    with _preads() as reads:
        answer = store.query().streams
    runs = math.ceil(count * frame / segment_module.READ_BLOCK)
    assert runs > 1
    assert reads[0] == (0, HEADER_BYTES)
    assert len(reads) == 1 + runs
    assert sum(size for _offset, size in reads[1:]) == count * frame
    assert max(size for _offset, size in reads) <= segment_module.READ_BLOCK
    assert answer == _oracle(store.index)[0] == _per_frame_query(store.index)
    store.close(enforce_retention=False)


def test_compressed_frame_ends_its_run(tmp_path):
    store = _fill(str(tmp_path), compress=True)
    _segment, entries = _frames(store)
    # Both kinds of frame sit in the one segment: a compressed frame is
    # shorter than its entry predicts, an incompressible one is not.
    shorter = sum(_entry_end(a) > b.file_offset for a, b in zip(entries, entries[1:]))
    exact = sum(_entry_end(a) == b.file_offset for a, b in zip(entries, entries[1:]))
    assert shorter and exact
    with _preads() as reads:
        store.query()
    assert len(reads) == 1 + 1 + shorter
    connections, windows = [_client(n) for n in range(5)], _windows(entries)
    _assert_queries_match(store, connections, windows)
    store.close(enforce_retention=False)
    reopened = StreamStore(str(tmp_path))
    _assert_queries_match(reopened, connections, windows)
    reopened.close(enforce_retention=False)


# ----------------------------------------------------------------------
# Damage inside a run
# ----------------------------------------------------------------------
def _damage_and_check(tmp_path, compress, damage):
    store = _fill(str(tmp_path), compress=compress)
    segment, entries = _frames(store)
    connections, windows = [_client(n) for n in range(5)], _windows(entries)
    before = store.query().total_bytes
    damage(segment.path, entries)
    descriptors = _open_descriptors()
    answer = store.query()
    assert _open_descriptors() == descriptors
    assert answer.total_bytes < before
    _assert_queries_match(store, connections, windows)
    store.close(enforce_retention=False)
    reopened = StreamStore(str(tmp_path))
    assert reopened.query().streams == answer.streams
    _assert_queries_match(reopened, connections, windows)
    reopened.close(enforce_retention=False)


@pytest.mark.parametrize("compress", [False, True])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_crc_flip_inside_a_run(tmp_path, compress, where):
    def flip(path, entries):
        victim = {"first": entries[0], "middle": entries[len(entries) // 2],
                  "last": entries[-1]}[where]
        with open(path, "r+b") as handle:
            handle.seek(victim.file_offset + 4)  # the frame's CRC field
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))

    _damage_and_check(tmp_path, compress, flip)


@pytest.mark.parametrize("compress", [False, True])
def test_truncation_inside_a_run(tmp_path, compress):
    def truncate(path, entries):
        victim = entries[len(entries) // 2]
        os.truncate(path, victim.file_offset + 9 + victim.length // 2)

    _damage_and_check(tmp_path, compress, truncate)


def test_frame_longer_than_its_entry_is_read_whole(tmp_path):
    """An entry that understates its frame's length ends its run short;
    the frame is read again at the length its header gives."""
    store = _fill(str(tmp_path))
    segment, entries = _frames(store)
    victim = entries[len(entries) // 2]
    segment.info.columns.length[victim.row] -= 5
    with _preads() as reads:
        answer = store.query().streams
    offsets = [offset for offset, _size in reads]
    assert offsets == [0, entries[0].file_offset, victim.file_offset,
                       entries[len(entries) // 2 + 1].file_offset]
    assert answer == _per_frame_query(store.index)
    segment.info.columns.length[victim.row] += 5
    assert answer == store.query().streams
    store.close(enforce_retention=False)


# ----------------------------------------------------------------------
# The recovery scan reads in blocks
# ----------------------------------------------------------------------
def test_scan_carries_frames_over_block_ends(tmp_path):
    """Frames that straddle a block end, and one longer than a block,
    are recovered whole; a cut anywhere in them keeps the frames before."""
    rng = random.Random(11)
    path = str(tmp_path / "seg.scap")
    writer = segment_module.SegmentWriter(path)
    records, ends = [], []
    block = segment_module.READ_BLOCK
    for n, size in enumerate([block // 3] * 4 + [block + 5000] + [777] * 300):
        records.append(StreamRecord(_client(n % 3), 0, n, float(n), rng.randbytes(size)))
        writer.append(records[-1])
        ends.append(writer.disk_bytes)
    writer.seal()
    assert ends[-1] > 3 * block
    scanned, info = segment_module.read_segment(path)
    assert scanned == records and info.sealed
    with open(path, "rb") as handle:
        blob = handle.read()
    torn = str(tmp_path / "torn.scap")
    for n in list(range(6)) + list(range(6, len(records), 50)):
        start = ends[n - 1] if n else 16
        for cut in (start + 5, (start + ends[n]) // 2, ends[n] - 1, ends[n]):
            with open(torn, "wb") as handle:
                handle.write(blob[:cut])
            scanned, info = segment_module.read_segment(torn)
            kept = n + (cut == ends[n])
            assert scanned == records[:kept], cut
            assert info.torn_bytes == cut - ([16] + ends)[kept]
