"""Classic libpcap file format (magic 0xa1b2c3d4) reader and writer.

Implemented from the format specification so generated traces can be
exchanged with tcpdump/wireshark, and external pcaps can feed the
simulator.  Both byte orders and both timestamp resolutions
(micro/nanosecond, magic 0xa1b23c4d) are supported on read; writes use
the native microsecond little-endian form.
"""

from __future__ import annotations

import os
import struct
from typing import BinaryIO, Iterable, Iterator, Union

from .packet import Packet, frame_fields

__all__ = ["PcapWriter", "PcapReader", "write_pcap", "read_pcap", "check_pcap", "LINKTYPE_ETHERNET"]

LINKTYPE_ETHERNET = 1

_MAGIC_USEC = 0xA1B2C3D4
_MAGIC_NSEC = 0xA1B23C4D
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
#: Bytes the reader asks of its file at a time (a larger record is read whole).
READ_BLOCK = 1 << 18


def _pcap_format(header: bytes) -> "tuple[struct.Struct, float, int, int]":
    """``(record header, timestamp divisor, snaplen, linktype)`` named by
    a global header; ValueError for a file this module cannot read."""
    if len(header) < _GLOBAL_HEADER.size:
        raise ValueError("truncated pcap global header")
    (magic_le,) = struct.unpack_from("<I", header, 0)
    (magic_be,) = struct.unpack_from(">I", header, 0)
    for endian, magic in (("<", magic_le), (">", magic_be)):
        if magic in (_MAGIC_USEC, _MAGIC_NSEC):
            break
    else:
        raise ValueError(f"not a pcap file (magic 0x{magic_le:08x})")
    fields = struct.unpack_from(endian + "IHHiIII", header)
    snaplen, linktype = fields[5], fields[6]
    if linktype != LINKTYPE_ETHERNET:
        raise ValueError(f"unsupported linktype: {linktype}")
    divisor = 1e9 if magic == _MAGIC_NSEC else 1e6
    return struct.Struct(endian + "IIII"), divisor, snaplen, linktype


def _open(target: Union[str, BinaryIO], mode: str) -> "tuple[BinaryIO, bool]":
    """``(file, ours)``: a path is opened here (and closed by us); an
    open binary file is used as it is and stays the caller's to close."""
    if isinstance(target, (str, os.PathLike)):
        return open(target, mode), True
    return target, False


class PcapWriter:
    """Streams packets into a pcap file (a path, or an open binary file).

    Use as a context manager::

        with PcapWriter(path) as writer:
            for packet in trace:
                writer.write(packet)
    """

    def __init__(self, path: Union[str, BinaryIO], snaplen: int = 65535):
        self._file, self._ours = _open(path, "wb")
        self._snaplen = snaplen
        self._file.write(
            _GLOBAL_HEADER.pack(_MAGIC_USEC, 2, 4, 0, 0, snaplen, LINKTYPE_ETHERNET)
        )

    def write(self, packet: Packet) -> None:
        """Append one packet; frames longer than snaplen are truncated."""
        frame = packet.to_bytes()
        captured = frame[: self._snaplen]
        seconds = int(packet.timestamp)
        microseconds = int(round((packet.timestamp - seconds) * 1_000_000))
        if microseconds >= 1_000_000:
            seconds += 1
            microseconds -= 1_000_000
        self._file.write(
            _RECORD_HEADER.pack(seconds, microseconds, len(captured), len(frame))
        )
        self._file.write(captured)

    def close(self) -> None:
        """Close the underlying file (a caller's file is left open)."""
        if self._ours:
            self._file.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class PcapReader:
    """Iterates packets out of a pcap file (a path, or an open binary
    file), holding one :data:`READ_BLOCK` of it at a time.  The read-ahead
    is the reader's: an iteration left early resumes at the next record,
    and a caller's open file has been read up to a block past it."""

    def __init__(self, path: Union[str, BinaryIO]):
        self._file, self._ours = _open(path, "rb")
        try:
            self._record, self._divisor, self.snaplen, self.linktype = _pcap_format(
                self._file.read(_GLOBAL_HEADER.size)
            )
        except ValueError:
            self.close()
            raise
        self._block = b""
        self._offset = 0  # of the next record in ``_block``

    def __iter__(self) -> Iterator[Packet]:
        """Yield the file's packets; a record cut short ends the walk.
        Each record is unpacked and parsed where it lies in the block read."""
        divisor = self._divisor
        unpack = self._record.unpack_from
        header_size = self._record.size
        read = self._file.read
        parse = Packet.parse
        block = self._block
        offset = self._offset
        while True:
            start = end = offset + header_size  # of the frame, once its length is known
            if start <= len(block):
                seconds, fraction, caplen, wire_len = unpack(block, offset)
                end = start + caplen
                if end <= len(block):
                    self._offset = offset = end  # before parse: a bad frame is consumed
                    yield parse(block, seconds + fraction / divisor, wire_len, start, end)
                    continue
            # The record at ``offset`` runs past the block: carry its head over.
            more = read(max(READ_BLOCK, end - len(block)))
            if not more:
                return
            self._block = block = block[offset:] + more
            self._offset = offset = 0

    def close(self) -> None:
        """Close the underlying file (a caller's file is left open)."""
        if self._ours:
            self._file.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_pcap(
    path: Union[str, BinaryIO], packets: Iterable[Packet], snaplen: int = 65535
) -> int:
    """Write ``packets`` to ``path`` (or an open file); return the number written."""
    count = 0
    with PcapWriter(path, snaplen=snaplen) as writer:
        for packet in packets:
            writer.write(packet)
            count += 1
    return count


def read_pcap(path: Union[str, BinaryIO]) -> "list[Packet]":
    """Read all packets from ``path`` (or an open file) into a list."""
    with PcapReader(path) as reader:
        return list(reader)


def check_pcap(data) -> "list[tuple[float, int, tuple]]":
    """Check every frame of the in-memory pcap ``data`` (any bytes-like);
    return its records in file order, ``(timestamp, wire_len, fields)``
    with :func:`~repro.netstack.packet.frame_fields`' fields.  As in
    :class:`PcapReader`, a record cut short ends the walk."""
    record, divisor, _, _ = _pcap_format(data[: _GLOBAL_HEADER.size])
    unpack = record.unpack_from
    header_size = record.size
    size = len(data)
    records = []
    append = records.append
    start = _GLOBAL_HEADER.size + header_size  # of the next frame
    while start <= size:
        seconds, fraction, caplen, wire_len = unpack(data, start - header_size)
        end = start + caplen
        if end > size:
            break
        append((seconds + fraction / divisor, wire_len or caplen, frame_fields(data, start, end)))
        start = end + header_size
    return records
