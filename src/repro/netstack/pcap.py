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
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Union

from .packet import Packet

__all__ = ["PcapWriter", "PcapReader", "write_pcap", "read_pcap", "LINKTYPE_ETHERNET"]

LINKTYPE_ETHERNET = 1

_MAGIC_USEC = 0xA1B2C3D4
_MAGIC_NSEC = 0xA1B23C4D
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
#: Bytes the reader asks of its file at a time (a larger record is read whole).
READ_BLOCK = 1 << 18


@dataclass
class _Format:
    endian: str
    nanosecond: bool


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
        header = self._file.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            self.close()
            raise ValueError("truncated pcap global header")
        self._format = self._detect_format(header)
        fields = struct.unpack(self._format.endian + "IHHiIII", header)
        self.snaplen = fields[5]
        self.linktype = fields[6]
        if self.linktype != LINKTYPE_ETHERNET:
            self.close()
            raise ValueError(f"unsupported linktype: {self.linktype}")
        self._record = struct.Struct(self._format.endian + "IIII")
        self._block = b""
        self._offset = 0  # of the next record in ``_block``

    @staticmethod
    def _detect_format(header: bytes) -> _Format:
        (magic_le,) = struct.unpack_from("<I", header, 0)
        (magic_be,) = struct.unpack_from(">I", header, 0)
        if magic_le == _MAGIC_USEC:
            return _Format("<", False)
        if magic_le == _MAGIC_NSEC:
            return _Format("<", True)
        if magic_be == _MAGIC_USEC:
            return _Format(">", False)
        if magic_be == _MAGIC_NSEC:
            return _Format(">", True)
        raise ValueError(f"not a pcap file (magic 0x{magic_le:08x})")

    def __iter__(self) -> Iterator[Packet]:
        """Yield the file's packets; a record cut short ends the walk.
        Each record is unpacked and parsed where it lies in the block read."""
        divisor = 1e9 if self._format.nanosecond else 1e6
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
