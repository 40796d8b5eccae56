"""Compaction copies the frames it keeps as they are, and a rename or a
delete of a segment is made durable.

Retention evicts records from a sealed segment by writing the kept
frames to a copy and swapping it in.  The copy never re-encodes a
frame: every surviving frame is byte-identical to the one it was (a
compressed frame stays compressed), the columns the index installs for
the copy are what a rescan of the file gives (though no file is scanned
to get them), and every query of the compacted store equals the scan
oracle.  Each rename and each delete is
followed by an fsync of the directory that holds the segment.
"""

import os
import random
import stat

import pytest

from repro.netstack import FiveTuple, IPProtocol
from repro.store import ClassQuota, RetentionPolicy, StreamRecord, StreamStore
from repro.store.segment import index_segment, scan_records

from .test_query_plan import _oracle


def _client(n):
    return FiveTuple(0x0A000001 + n, 42000 + n, 0x0A0000FE, 80, IPProtocol.TCP)


def _fill(directory, compress, retention):
    """Three segments of six connections, both directions, with
    re-recorded and partly overlapping pieces; half of the payloads
    compress and half are random (stored as they are)."""
    rng = random.Random(4901)
    store = StreamStore(directory, cores=1, compress=compress, retention=retention)
    stamp = 0.0
    for capture in range(3):
        for piece in range(6):
            for n in range(6):
                for direction in (0, 1):
                    five_tuple = _client(n) if direction == 0 else _client(n).reversed()
                    size = rng.randrange(40, 400)
                    data = bytes([65 + n]) * size if piece % 2 else rng.randbytes(size)
                    offset = 300 * piece - 100 * capture
                    stamp += 0.01
                    store.append(StreamRecord(
                        five_tuple, direction, max(0, offset), stamp, data, priority=n % 3,
                    ))
        store.flush()
    return store


def _frames(info):
    """The bytes of each frame of segment ``info``, in file order."""
    with open(info.path, "rb") as handle:
        data = handle.read()
    return [
        data[offset : offset + info.frame_bytes(row)]
        for row, offset in enumerate(info.columns.file_offset)
    ]


def _no_scan(*args, **kwargs):
    raise AssertionError("compaction scanned a segment")


def _is_subsequence(short, long):
    frames = iter(long)
    return all(any(frame == candidate for candidate in frames) for frame in short)


@pytest.mark.parametrize("compress", [False, True])
@pytest.mark.parametrize("policy", ["bytes", "quota"])
def test_compaction_copies_frames_as_they_are(tmp_path, compress, policy, monkeypatch):
    directory = str(tmp_path)
    store = _fill(directory, compress, None)
    before = {path: _frames(segment.info) for path, segment in store.index.segments.items()}
    if policy == "bytes":
        store.retention_policy.max_bytes = store.index.disk_bytes * 2 // 3
    else:
        store.retention_policy.class_quotas = [
            ClassQuota(expression="host 10.0.0.2 or host 10.0.0.4", max_bytes=1500)
        ]
    with monkeypatch.context() as patch:
        # The copy is indexed from its sealed info: no file is scanned.
        for name in ("repro.store.index.index_segment", "repro.store.segment.read_segment"):
            patch.setattr(name, _no_scan)
        report = store.enforce_retention()
    assert report.segments_compacted >= 1 and report.evicted_records > 0
    if policy == "bytes":
        assert store.index.disk_bytes <= store.retention_policy.max_bytes

    survivors = 0
    for path, segment in store.index.segments.items():
        info = segment.info
        assert info == index_segment(path)  # columns, counts, footer: a rescan's
        after = _frames(info)
        assert _is_subsequence(after, before[path])
        survivors += len(after)
    assert survivors == sum(map(len, before.values())) - report.evicted_records
    if compress:
        assert any(frame[8] & 1 for frames in before.values() for frame in frames)

    index = store.index
    assert store.query().streams == _oracle(index)[0]
    for n in range(6):
        assert store.query(_client(n)).streams == _oracle(index, _client(n))[0]
    assert store.query(start_ts=0.5, end_ts=1.5).streams == _oracle(index, None, 0.5, 1.5)[0]
    expected = store.query().streams
    store.close(enforce_retention=False)
    reopened = StreamStore(directory)
    assert reopened.query().streams == expected
    reopened.close(enforce_retention=False)


def test_renames_and_deletes_fsync_the_directory(tmp_path, monkeypatch):
    """After every ``os.replace`` and ``os.unlink`` of a segment, the
    directory holding it is fsynced before retention goes on."""
    store = _fill(str(tmp_path), False, RetentionPolicy(max_age=1.0))
    store.retention_policy.max_bytes = store.index.disk_bytes // 3
    directory = os.stat(tmp_path)
    events = []
    real = {name: getattr(os, name) for name in ("replace", "unlink", "fsync")}

    def replace(source, target):
        real["replace"](source, target)
        events.append(("replace", target))

    def unlink(path):
        real["unlink"](path)
        events.append(("unlink", path))

    def fsync(fd):
        real["fsync"](fd)
        status = os.fstat(fd)
        if stat.S_ISDIR(status.st_mode):
            events.append(("fsync", (status.st_dev, status.st_ino)))

    for name, wrapper in (("replace", replace), ("unlink", unlink), ("fsync", fsync)):
        monkeypatch.setattr(os, name, wrapper)
    report = store.enforce_retention(now_ts=2.2)  # the first segment is too old
    monkeypatch.undo()
    assert report.segments_deleted >= 1 and report.segments_compacted >= 1
    changes = [i for i, (kind, _) in enumerate(events) if kind != "fsync"]
    assert len(changes) == report.segments_deleted + report.segments_compacted
    for i in changes:
        assert events[i + 1 : i + 2] == [("fsync", (directory.st_dev, directory.st_ino))], events
    store.close(enforce_retention=False)


def test_rows_lost_behind_a_damaged_frame_are_counted_as_evicted(tmp_path):
    """The copy stops at the first kept frame that fails its check; the
    report, and so the store's eviction counters, count every row that
    was not copied, not only the rows meant to go."""
    store = StreamStore(str(tmp_path), cores=1)
    for n in range(10):  # one stream, so its deepest record is the victim
        store.append(StreamRecord(_client(0), 0, 100 * n, 1.0 + n, bytes([65 + n]) * 100))
    store.flush()
    (segment,) = store.index.segments.values()
    info = segment.info
    damaged = info.columns.file_offset[5] + info.frame_bytes(5) - 1
    with open(info.path, "r+b") as handle:
        handle.seek(damaged)
        byte = handle.read(1)[0]
        handle.seek(damaged)
        handle.write(bytes([byte ^ 0xFF]))
    store.retention_policy.max_bytes = store.index.disk_bytes - 100
    report = store.enforce_retention()
    (segment,) = store.index.segments.values()
    assert segment.info.record_count == 5  # rows 0-4: the copy stopped at row 5
    stats = store.stats()
    assert report.evicted_records == stats.evicted_records == 5
    assert report.evicted_bytes == stats.evicted_bytes == 500
    assert [record.data[:1] for _, record in scan_records(segment.path)] == [
        bytes([65 + n]) for n in range(5)
    ]
    store.close(enforce_retention=False)
