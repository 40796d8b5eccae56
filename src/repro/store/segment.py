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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, List, Optional, Tuple

from ..netstack.flows import FiveTuple

if TYPE_CHECKING:
    from .index import SegmentMeta

__all__ = [
    "SEGMENT_MAGIC",
    "FOOTER_MAGIC",
    "StreamRecord",
    "RecordMeta",
    "SegmentInfo",
    "SegmentWriter",
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
        ft = self.five_tuple
        return (
            _BODY.pack(
                ft.src_ip,
                ft.src_port,
                ft.dst_ip,
                ft.dst_port,
                ft.protocol,
                self.direction,
                self.timestamp,
                self.stream_offset,
                self.priority,
            )
            + self.data
        )

    @classmethod
    def decode(cls, body: bytes | memoryview) -> "StreamRecord":
        """Parse a frame body back into a record (its payload copied out)."""
        (
            src_ip,
            src_port,
            dst_ip,
            dst_port,
            protocol,
            direction,
            timestamp,
            stream_offset,
            priority,
        ) = _BODY.unpack_from(body)
        return cls(
            five_tuple=FiveTuple(src_ip, src_port, dst_ip, dst_port, protocol),
            direction=direction,
            stream_offset=stream_offset,
            timestamp=timestamp,
            data=bytes(body[_BODY.size :]),
            priority=priority,
        )


@dataclass
class RecordMeta:
    """Index entry for one stored record (payload stays on disk).

    Built where the frame's file offset is known — by the writer as it
    appends, by the scan as it recovers — so indexing a segment never
    needs its payloads.
    """

    five_tuple: FiveTuple
    direction: int
    stream_offset: int
    timestamp: float
    length: int
    priority: int
    file_offset: int
    #: The indexed segment holding this record; set by ``StoreIndex``.
    segment: Optional[SegmentMeta] = field(default=None, repr=False, compare=False)

    @classmethod
    def of(cls, record: StreamRecord, file_offset: int) -> "RecordMeta":
        """The index entry of ``record`` framed at ``file_offset``."""
        return cls(
            record.five_tuple,
            record.direction,
            record.stream_offset,
            record.timestamp,
            len(record.data),
            record.priority,
            file_offset,
        )

    @property
    def client_tuple(self) -> FiveTuple:
        """The connection's five-tuple from the client's perspective."""
        return self.five_tuple if self.direction == 0 else self.five_tuple.reversed()


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
    #: Bytes of torn tail discarded by recovery (0 for clean segments).
    torn_bytes: int = 0
    #: Index entry of every written / recovered record, in file order.
    records: List[RecordMeta] = field(default_factory=list, repr=False)


class SegmentWriter:
    """Appends records to one segment file; ``seal`` finishes it.

    The writer owns the file handle; ``append`` returns the frame's
    file offset and keeps the record's index entry (no payload), which
    ``seal`` hands over with the :class:`SegmentInfo` so the index can
    point straight at every frame without re-reading the file.
    ``fsync=True`` makes every append durable individually (slow, used
    by tests that model crash points); otherwise data is flushed on
    seal/close.
    """

    def __init__(
        self,
        path: str,
        core: int = 0,
        compress: bool = False,
        fsync: bool = False,
    ):
        self.path = path
        self.core = core
        self.compress = compress
        self.fsync = fsync
        self.record_count = 0
        self.payload_bytes = 0
        self.compressed_saved = 0
        self.first_ts = 0.0
        self.last_ts = 0.0
        self._records: List[RecordMeta] = []
        self._file: Optional[BinaryIO] = open(path, "wb")
        self._file.write(_HEADER.pack(SEGMENT_MAGIC, core, 0))
        self._offset = _HEADER.size

    @property
    def disk_bytes(self) -> int:
        """Bytes written to the file so far (header + frames)."""
        return self._offset

    @property
    def closed(self) -> bool:
        """True once the writer was sealed or closed."""
        return self._file is None

    def append(self, record: StreamRecord) -> int:
        """Write one record frame; return its file offset."""
        if self._file is None:
            raise ValueError(f"segment {self.path} is closed")
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
        offset = self._offset
        frame = _FRAME.pack(len(body), zlib.crc32(body), flags) + body
        self._file.write(frame)
        if self.fsync:
            self._file.flush()
            os.fsync(self._file.fileno())
        self._offset += len(frame)
        if self.record_count == 0:
            self.first_ts = record.timestamp
        self.last_ts = max(self.last_ts, record.timestamp)
        self.record_count += 1
        self.payload_bytes += len(record.data)
        self._records.append(RecordMeta.of(record, offset))
        return offset

    def seal(self) -> SegmentInfo:
        """Write the footer, fsync, close; return the segment's info."""
        if self._file is None:
            raise ValueError(f"segment {self.path} is closed")
        fbody = _FOOTER_BODY.pack(
            self.record_count, self.first_ts, self.last_ts, self.payload_bytes
        )
        self._file.write(
            _FOOTER_HEAD.pack(_FOOTER_SENTINEL, zlib.crc32(fbody)) + fbody + FOOTER_MAGIC
        )
        self._offset += _FOOTER_SIZE
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._file = None
        return SegmentInfo(
            path=self.path,
            core=self.core,
            sealed=True,
            record_count=self.record_count,
            payload_bytes=self.payload_bytes,
            disk_bytes=self._offset,
            first_ts=self.first_ts,
            last_ts=self.last_ts,
            records=self._records,
        )

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
    records, info = _scan(path)
    for meta, record in zip(info.records, records):
        yield meta.file_offset, record


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


def _read_frame(
    fd: int, position: int, size: int, length: int = 0
) -> Optional[Tuple[memoryview, int]]:
    """The checked body framed at ``position`` and the frame length, or None.

    ``length`` is the payload length the caller expects there, so one
    ``pread`` of the uncompressed frame size covers the frame (a
    compressed body is only ever kept when it is shorter); a longer
    frame is read again at its own length.  None means there is no
    intact record there: the frame header or the body runs past the end
    of the ``size``-byte file (truncation), the length field is the
    footer sentinel, or the body fails its CRC (corruption).  Every
    reader of segment files parses frames here, so no body is
    decompressed or decoded without its CRC having been checked on that
    read.  The body is a view of the read (or of its inflated copy).
    """
    frame = os.pread(fd, _FRAME.size + _BODY.size + length, position)
    if len(frame) < _FRAME.size:
        return None
    body_len, crc, flags = _FRAME.unpack_from(frame)
    end = _FRAME.size + body_len
    if body_len == _FOOTER_SENTINEL or position + end > size:
        return None
    if end > len(frame):
        frame = os.pread(fd, end, position)
        if len(frame) < end:
            return None
    body = memoryview(frame)[_FRAME.size : end]
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


def _scan(path: str) -> Tuple[List[StreamRecord], SegmentInfo]:
    """Scan one segment; return its records and a SegmentInfo."""
    info = SegmentInfo(path=path)
    records: List[StreamRecord] = []
    with open(path, "rb", buffering=0) as handle:
        fd = handle.fileno()
        size = os.fstat(fd).st_size
        core = _read_header(fd, path)
        if core is None:
            info.torn_bytes = size
            return records, info
        info.core = core
        position = _HEADER.size
        while True:
            frame = _read_frame(fd, position, size)
            if frame is None:
                break
            body, frame_bytes = frame
            record = StreamRecord.decode(body)
            records.append(record)
            info.records.append(RecordMeta.of(record, position))
            info.payload_bytes += len(record.data)
            if info.record_count == 0:
                info.first_ts = record.timestamp
            info.last_ts = max(info.last_ts, record.timestamp)
            info.record_count += 1
            position += frame_bytes
        footer = _read_footer(fd, position)
        if footer is not None and footer[0] == info.record_count:
            # A footer whose count disagrees with the frames before it
            # is not trusted: the segment counts as torn.
            info.sealed = True
            _count, info.first_ts, info.last_ts, _payload = footer
        else:
            info.torn_bytes = size - position
    info.disk_bytes = size
    return records, info


def read_payloads(
    path: str, entries: Iterable[RecordMeta]
) -> List[Tuple[tuple, memoryview]]:
    """Read the frames the index ``entries`` name (ascending) and nothing else.

    One bare ``os.open`` (no file object) closed before returning, the
    header magic checked, the file size taken by ``fstat``, one
    ``pread`` per entry sized from its payload length; every frame
    passes the checks a scan applies (:func:`_read_frame`: length
    inside the file, not the footer, CRC) before it is used.  Like a
    scan, the read stops at the first frame that fails them, so the
    result is the intact prefix of what was asked for.  Per frame it
    returns the body's fixed fields as plain values (five-tuple,
    direction, timestamp, stream offset, priority) and a view of its
    payload: no record object, no copy.
    """
    frames: List[Tuple[tuple, memoryview]] = []
    fd = os.open(path, _O_READ)
    try:
        size = os.fstat(fd).st_size
        if _read_header(fd, path) is None:
            return frames
        for meta in entries:
            frame = _read_frame(fd, meta.file_offset, size, meta.length)
            if frame is None:
                break
            body = frame[0]
            frames.append((_BODY.unpack_from(body), body[_BODY.size :]))
    finally:
        os.close(fd)
    return frames


def read_segment(path: str) -> Tuple[List[StreamRecord], SegmentInfo]:
    """Recover a segment: all intact records plus what the scan learned.

    Works on sealed and torn segments alike; ``info.sealed`` says which
    it was and ``info.torn_bytes`` how much tail (if any) was discarded.
    """
    return _scan(path)
