"""The on-disk segment format of the stream store (docs/STORE.md).

A *segment* is one append-only file of length-prefixed stream records.
Each record frame carries a CRC32 of its body and an optional
zlib-compression flag; a segment that has been cleanly finished is
*sealed* with a footer (record count, time range, payload bytes, its
own CRC, and a trailing magic) so readers can verify completeness
without rescanning.  A segment whose writer died mid-append has a
*torn tail*: recovery replays frames from the front and stops at the
first frame whose length or CRC does not check out, so every record
written before the tear survives and only the torn frame is lost —
the same contract as a write-ahead log.

Layout::

    header   "SCAPSEG\\x01" + u32 core + u32 reserved        (16 bytes)
    frame    u32 body_len | u32 crc32(body) | u8 flags | body
    footer   u32 0xFFFFFFFF | u32 crc32(fbody) | fbody | "SCAPEND\\x01"
             fbody = u64 records | f64 first_ts | f64 last_ts
                     | u64 payload_bytes                      (32 bytes)

``flags`` bit 0 marks a zlib-compressed body.  ``body_len`` is capped
at 2^31-1, so the footer sentinel can never be mistaken for a record.
"""

from __future__ import annotations

import os
import struct
import zlib
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple

from ..netstack.flows import FiveTuple

__all__ = [
    "SEGMENT_MAGIC",
    "FOOTER_MAGIC",
    "StreamRecord",
    "SegmentColumns",
    "SegmentInfo",
    "SegmentWriter",
    "copy_frames",
    "index_segment",
    "read_segment",
    "scan_records",
    "read_payloads",
]

SEGMENT_MAGIC = b"SCAPSEG\x01"
FOOTER_MAGIC = b"SCAPEND\x01"

_HEADER = struct.Struct("!8sII")
_FRAME = struct.Struct("!IIB")
_BODY = struct.Struct("!IHIHBBdQH")  # five-tuple, direction, ts, offset, priority
_FOOTER_HEAD = struct.Struct("!II")  # sentinel, crc32(fbody)
_FOOTER_BODY = struct.Struct("!QddQ")
_FOOTER_SIZE = _FOOTER_HEAD.size + _FOOTER_BODY.size + len(FOOTER_MAGIC)
_FOOTER_SENTINEL = 0xFFFFFFFF
_FLAG_ZLIB = 0x01
_MAX_BODY = (1 << 31) - 1
_O_READ = os.O_RDONLY | os.O_CLOEXEC
#: Bytes of a frame besides its payload when its body is not compressed.
_FRAME_FIXED = _FRAME.size + _BODY.size

#: The most bytes one read of frames asks for (a longer frame is read
#: alone), as :data:`repro.netstack.pcap.READ_BLOCK` bounds the pcap reader.
READ_BLOCK = 1 << 18


@dataclass
class StreamRecord:
    """One recorded piece of a stream direction: identity + payload.

    ``five_tuple`` is the *directional* tuple (source = the sender of
    these bytes); ``direction`` says which side of the connection that
    is (0 = client-to-server), so the client-perspective tuple can
    always be reconstructed.  ``stream_offset`` positions ``data``
    inside the reassembled stream, ``timestamp`` is the simulated
    capture time of the delivery, ``priority`` is the stream's PPL
    priority at record time (retention evicts low priorities first).
    """

    five_tuple: FiveTuple
    direction: int
    stream_offset: int
    timestamp: float
    data: bytes
    priority: int = 0

    @property
    def client_tuple(self) -> FiveTuple:
        """The connection's five-tuple from the client's perspective."""
        return self.five_tuple if self.direction == 0 else self.five_tuple.reversed()

    def encode(self) -> bytes:
        """Serialize to the (uncompressed) frame body."""
        return _BODY.pack(
            *self.five_tuple, self.direction, self.timestamp, self.stream_offset, self.priority
        ) + self.data

    @classmethod
    def decode(cls, body: bytes | memoryview) -> "StreamRecord":
        """Parse a frame body back into a record (its payload copied out)."""
        fields = _BODY.unpack_from(body)
        return cls(
            FiveTuple(*fields[:5]), fields[5], fields[7], fields[6], bytes(body[_BODY.size :]),
            fields[8],
        )


@dataclass
class SegmentColumns:
    """The index fields of one segment's frames, one ``array`` per field.

    Row ``i`` is the ``i``-th frame in file order.  A row's directional
    five-tuple is ``tuples[5 * conn : 5 * conn + 5]``: ``tuples`` holds
    each distinct five-tuple of the segment once, in order of first
    appearance, and ``conn`` the row's connection number.  Filled where
    the frame's file offset is known — by the writer as it appends, by
    the scan as it recovers — so indexing a segment never needs its
    payloads, and no row is a Python object.
    """

    file_offset: array = field(default_factory=partial(array, "Q"))
    length: array = field(default_factory=partial(array, "I"))
    stream_offset: array = field(default_factory=partial(array, "Q"))
    timestamp: array = field(default_factory=partial(array, "d"))
    direction: array = field(default_factory=partial(array, "B"))
    priority: array = field(default_factory=partial(array, "H"))
    conn: array = field(default_factory=partial(array, "I"))
    tuples: array = field(default_factory=partial(array, "I"))

    def append(
        self, numbers: Dict[tuple, int], five_tuple: tuple, direction: int, stream_offset: int,
        timestamp: float, length: int, priority: int, file_offset: int,
    ) -> None:
        """Add the row of the frame at ``file_offset``.

        ``numbers`` maps the five-tuples appended so far to their
        connection numbers; the appender keeps it while it appends.
        """
        number = numbers.get(five_tuple)
        if number is None:
            number = numbers[five_tuple] = len(numbers)
            self.tuples.extend(five_tuple)
        self.conn.append(number)
        self.file_offset.append(file_offset)
        self.length.append(length)
        self.stream_offset.append(stream_offset)
        self.timestamp.append(timestamp)
        self.direction.append(direction)
        self.priority.append(priority)

    def client_tuple(self, row: int) -> FiveTuple:
        """The connection's five-tuple of ``row`` from the client's perspective."""
        # tuple.__new__: the same FiveTuple, without namedtuple's __new__.
        tuples, start = self.tuples, 5 * self.conn[row]
        if self.direction[row]:
            return tuple.__new__(FiveTuple, (
                tuples[start + 2], tuples[start + 3], tuples[start], tuples[start + 1],
                tuples[start + 4],
            ))
        return tuple.__new__(FiveTuple, tuples[start : start + 5])


@dataclass
class SegmentInfo:
    """What a scan (or a seal) learned about one segment file."""

    path: str
    core: int = 0
    sealed: bool = False
    record_count: int = 0
    payload_bytes: int = 0
    disk_bytes: int = 0
    first_ts: float = 0.0
    last_ts: float = 0.0
    #: The smallest record timestamp: ``first_ts`` is the first record's,
    #: and records need not arrive in time order.
    oldest_ts: float = 0.0
    #: Bytes of torn tail discarded by recovery (0 for clean segments).
    torn_bytes: int = 0
    #: Index fields of every written / recovered record, in file order.
    columns: SegmentColumns = field(default_factory=SegmentColumns, repr=False)

    def frame_bytes(self, row: int) -> int:
        """Bytes the frame of ``row`` takes on disk: up to the next row's
        frame, or to the footer or torn tail."""
        offsets = self.columns.file_offset
        if row + 1 < len(offsets):
            return offsets[row + 1] - offsets[row]
        end = self.disk_bytes - self.torn_bytes - (_FOOTER_SIZE if self.sealed else 0)
        return end - offsets[row]


class SegmentWriter:
    """Appends records to one segment file; ``seal`` finishes it.

    The writer owns the file handle; :meth:`write_frame` (which ``append``
    calls with the frame it encodes) returns the frame's file offset and
    adds its row to the segment's columns (no payload), which ``seal``
    hands over in the :class:`SegmentInfo` so the index can point at
    every frame without re-reading the file.  Frames are flushed and
    fsynced by ``seal`` and ``close``, never one by one.
    """

    def __init__(
        self,
        path: str,
        core: int = 0,
        compress: bool = False,
    ):
        self.path = path
        self.core = core
        self.compress = compress
        self.compressed_saved = 0
        self._columns = SegmentColumns()
        self._numbers: Dict[tuple, int] = {}
        self._file: Optional[BinaryIO] = open(path, "wb")
        self._file.write(_HEADER.pack(SEGMENT_MAGIC, core, 0))
        self._offset = _HEADER.size

    @property
    def disk_bytes(self) -> int:
        """Bytes written to the file so far (header + frames)."""
        return self._offset

    @property
    def record_count(self) -> int:
        """Records appended so far."""
        return len(self._columns.file_offset)

    def append(self, record: StreamRecord) -> int:
        """Write one record frame; return its file offset."""
        body = record.encode()
        flags = 0
        if self.compress:
            packed = zlib.compress(body, 6)
            if len(packed) < len(body):
                self.compressed_saved += len(body) - len(packed)
                body = packed
                flags |= _FLAG_ZLIB
        if len(body) > _MAX_BODY:
            raise ValueError(f"record body too large: {len(body)} bytes")
        return self.write_frame(
            _FRAME.pack(len(body), zlib.crc32(body), flags) + body, record.five_tuple,
            record.direction, record.stream_offset, record.timestamp, len(record.data),
            record.priority,
        )

    def write_frame(
        self, frame: bytes | memoryview, five_tuple: tuple, direction: int, stream_offset: int,
        timestamp: float, length: int, priority: int,
    ) -> int:
        """Write one whole frame (header and body); add its row, return its offset.

        ``length`` is the frame's payload bytes.
        """
        if self._file is None:
            raise ValueError(f"segment {self.path} is closed")
        offset = self._offset
        self._file.write(frame)
        self._offset += len(frame)
        self._columns.append(
            self._numbers, five_tuple, direction, stream_offset, timestamp, length, priority,
            offset,
        )
        return offset

    def seal(self) -> SegmentInfo:
        """Write the footer, fsync, close; return the segment's info."""
        if self._file is None:
            raise ValueError(f"segment {self.path} is closed")
        info = _counted(SegmentInfo(self.path, self.core, sealed=True, columns=self._columns))
        fbody = _FOOTER_BODY.pack(
            info.record_count, info.first_ts, info.last_ts, info.payload_bytes
        )
        self._file.write(
            _FOOTER_HEAD.pack(_FOOTER_SENTINEL, zlib.crc32(fbody)) + fbody + FOOTER_MAGIC
        )
        self._offset += _FOOTER_SIZE
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._file = None
        self._numbers = {}
        info.disk_bytes = self._offset
        return info

    def close(self) -> None:
        """Close without sealing (leaves a recoverable, unsealed file)."""
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None


def scan_records(path: str) -> Iterator[Tuple[int, StreamRecord]]:
    """Yield ``(file_offset, record)`` for every intact record.

    Tolerates truncation anywhere: a frame whose header is short, whose
    body is short, or whose CRC mismatches ends the scan — everything
    before it is returned.  A sealed footer also ends the scan cleanly.
    """
    records, info = read_segment(path)
    yield from zip(info.columns.file_offset, records)


def _read_header(fd: int, path: str) -> Optional[int]:
    """The core id from the segment header; None if the header is torn.

    Raises ``ValueError`` for a file that is not a segment at all.
    """
    header = os.pread(fd, _HEADER.size, 0)
    if len(header) < _HEADER.size:
        return None
    magic, core, _reserved = _HEADER.unpack(header)
    if magic != SEGMENT_MAGIC:
        raise ValueError(f"{path}: not a scap segment (bad magic)")
    return core


def _parse_frame(
    view: memoryview, at: int, position: int, size: int
) -> Optional[Tuple[Optional[memoryview], int]]:
    """Check the frame at ``view[at:]``, which lies at file ``position``.

    ``view`` holds bytes read from the ``size``-byte file.  Returns the
    checked body and the frame length, the body a view of ``view`` (or
    of its inflated copy).  None means there is no intact record there:
    the frame header or the body runs past the end of the file
    (truncation), the length field is the footer sentinel, or the body
    fails its CRC (corruption).  A frame that fits the file but runs
    past the end of ``view`` gives ``(None, length)``: the caller reads
    at least ``length`` bytes at ``position`` and parses them again.
    Every reader of segment files parses frames here, so no body is
    decompressed or decoded without its CRC having been checked on that
    read.
    """
    head = _FRAME.size
    held = len(view) - at
    if held < head:
        return None if position + head > size else (None, head)
    body_len, crc, flags = _FRAME.unpack_from(view, at)
    end = head + body_len
    if body_len == _FOOTER_SENTINEL or position + end > size:
        return None
    if end > held:
        return None, end
    body = view[at + head : at + end]
    if zlib.crc32(body) != crc:
        return None
    if flags & _FLAG_ZLIB:
        body = memoryview(zlib.decompress(body))
    return body, end


def _read_footer(fd: int, position: int) -> Optional[Tuple[int, float, float, int]]:
    """The intact footer at ``position``, or None.

    Returned as ``(record_count, first_ts, last_ts, payload_bytes)``.
    """
    footer = os.pread(fd, _FOOTER_SIZE, position)
    if len(footer) < _FOOTER_SIZE or not footer.endswith(FOOTER_MAGIC):
        return None
    fbody = footer[_FOOTER_HEAD.size : -len(FOOTER_MAGIC)]
    if _FOOTER_HEAD.unpack_from(footer) != (_FOOTER_SENTINEL, zlib.crc32(fbody)):
        return None
    return _FOOTER_BODY.unpack(fbody)


def _counted(info: SegmentInfo) -> SegmentInfo:
    """``info`` with its record count, payload bytes and time range
    taken from its columns; ``last_ts`` counts up from 0.0."""
    columns = info.columns
    stamps = columns.timestamp
    info.record_count = len(stamps)
    info.payload_bytes = sum(columns.length)
    if stamps:
        info.first_ts, info.oldest_ts = stamps[0], min(stamps)
        info.last_ts = max(0.0, max(stamps))
    return info


def index_segment(path: str, records: Optional[List[StreamRecord]] = None) -> SegmentInfo:
    """Scan one segment: what :func:`read_segment` learns, records aside.

    The frames are read in blocks of :data:`READ_BLOCK` bytes through
    one bare descriptor; a frame that runs past a block carries its
    head over into the next read.  Each frame that passes its checks is
    indexed from its fixed fields into ``info.columns``; only when
    ``records`` is given is it decoded (its payload copied) into it.
    """
    info = SegmentInfo(path=path)
    columns = info.columns
    numbers: Dict[tuple, int] = {}
    fd = os.open(path, _O_READ)
    try:
        size = info.disk_bytes = os.fstat(fd).st_size
        core = _read_header(fd, path)
        if core is None:
            info.torn_bytes = size
            return info
        info.core = core
        position = _HEADER.size
        view = memoryview(b"")
        at = 0  # where ``position`` lies in ``view``
        while True:
            frame = _parse_frame(view, at, position, size)
            if frame is None:
                break
            body, frame_bytes = frame
            if body is None:
                # The frame runs past the block: carry its head over.
                held = len(view) - at
                more = os.pread(fd, max(READ_BLOCK, frame_bytes - held), position + held)
                if not more:
                    break
                view = memoryview(b"".join((view[at:], more)))
                at = 0
                continue
            fields = _BODY.unpack_from(body)
            columns.append(
                numbers, fields[:5], fields[5], fields[7], fields[6],
                len(body) - _BODY.size, fields[8], position,
            )
            if records is not None:
                records.append(StreamRecord.decode(body))
            position += frame_bytes
            at += frame_bytes
        _counted(info)
        footer = _read_footer(fd, position)
        if footer is not None and footer[0] == info.record_count:
            # A footer whose count disagrees with the frames before it
            # is not trusted: the segment counts as torn.
            info.sealed = True
            _count, info.first_ts, info.last_ts, _payload = footer
        else:
            info.torn_bytes = size - position
    finally:
        os.close(fd)
    return info


def read_payloads(
    path: str, columns: SegmentColumns, rows: Sequence[int]
) -> List[Tuple[int, memoryview]]:
    """Read the frames of the ``rows`` of ``columns`` (ascending) and nothing else.

    One bare ``os.open`` (no file object) closed before returning, the
    file size taken by ``fstat``, the header read and its magic checked:
    a torn header or a wrong magic (damage after indexing) serves
    nothing from this segment.  Rows whose frames lie next to each
    other form a run: a row joins the run before it when its frame
    starts where that run's last frame ends at its uncompressed size
    (frame header, fixed fields and the row's length) and the run
    stays within :data:`READ_BLOCK` bytes.  Each run is read with one
    ``pread``; a compressed frame is shorter than its row predicts,
    so it ends its run.  Every frame passes the checks a scan applies
    (:func:`_parse_frame`: length inside the file, not the footer, CRC)
    before it is used; one whose length field says it is longer than
    its run holds is read again at that length first.  Like a scan, the
    read stops at the first frame that fails them, so the result is the
    intact prefix of what was asked for.  Per frame it returns the row
    and a view of its payload (into its run's read): the frame's
    identity is its row in ``columns``, so no body field is decoded and
    nothing is copied.
    """
    frames: List[Tuple[int, memoryview]] = []
    file_offset, length = columns.file_offset, columns.length
    fd = os.open(path, _O_READ)
    try:
        size = os.fstat(fd).st_size
        header = os.pread(fd, _HEADER.size, 0)
        if len(header) < _HEADER.size or not header.startswith(SEGMENT_MAGIC):
            return frames
        first, count = 0, len(rows)
        while first < count:
            # The run from ``rows[first]``: each next row starts where
            # the frame before it ends uncompressed.
            start = end = file_offset[rows[first]]
            last = first
            while last < count and file_offset[rows[last]] == end:
                frame_end = end + _FRAME_FIXED + length[rows[last]]
                if frame_end - start > READ_BLOCK and last > first:
                    break
                end = frame_end
                last += 1
            view = memoryview(os.pread(fd, end - start, start))
            for row in rows[first:last]:
                position = file_offset[row]
                frame = _parse_frame(view, position - start, position, size)
                if frame is not None and frame[0] is None:
                    longer = memoryview(os.pread(fd, frame[1], position))
                    frame = _parse_frame(longer, 0, position, size)
                if frame is None or frame[0] is None:
                    return frames
                frames.append((row, frame[0][_BODY.size :]))
            first = last
    finally:
        os.close(fd)
    return frames


def copy_frames(info: SegmentInfo, rows: Sequence[int], writer: SegmentWriter) -> None:
    """Copy the frames of ``rows`` (ascending) of ``info`` to ``writer`` as they are.

    Each frame, :meth:`SegmentInfo.frame_bytes` long, is read on its own
    and passes :func:`_parse_frame` before it is written with its row;
    the copy stops at the first that fails, as a scan does.  Nothing is
    decoded or re-encoded, so a compressed frame stays compressed.
    """
    columns = info.columns
    fd = os.open(info.path, _O_READ)
    try:
        size = os.fstat(fd).st_size
        for row in rows:
            position = columns.file_offset[row]
            frame = os.pread(fd, info.frame_bytes(row), position)
            checked = _parse_frame(memoryview(frame), 0, position, size)
            if checked is None or checked[1] != len(frame):
                return
            start = 5 * columns.conn[row]
            writer.write_frame(
                frame, tuple(columns.tuples[start : start + 5]), columns.direction[row],
                columns.stream_offset[row], columns.timestamp[row], columns.length[row],
                columns.priority[row],
            )
    finally:
        os.close(fd)


def read_segment(path: str) -> Tuple[List[StreamRecord], SegmentInfo]:
    """Recover a segment: all intact records plus what the scan learned.

    Works on sealed and torn segments alike; ``info.sealed`` says which
    it was and ``info.torn_bytes`` how much tail (if any) was discarded.
    """
    records: List[StreamRecord] = []
    return records, index_segment(path, records)
