"""UDP header model."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .checksum import internet_checksum, pseudo_header
from .ip import IPProtocol

__all__ = ["UDPHeader", "UDP_HEADER_LEN"]

UDP_HEADER_LEN = 8
_HEADER = struct.Struct("!HHHH")


@dataclass
class UDPHeader:
    """A UDP header; ``length`` covers header plus payload."""

    src_port: int = 0
    dst_port: int = 0
    length: int = UDP_HEADER_LEN
    checksum: "int | None" = None

    @property
    def header_len(self) -> int:
        return UDP_HEADER_LEN

    @property
    def payload_len(self) -> int:
        return self.length - UDP_HEADER_LEN

    def to_bytes(self, src_ip: int = 0, dst_ip: int = 0, payload: bytes = b"") -> bytes:
        """Serialize, computing the checksum over the IPv4 pseudo-header."""
        header = struct.pack("!HHHH", self.src_port, self.dst_port, self.length, 0)
        if self.checksum is None:
            pseudo = pseudo_header(src_ip, dst_ip, IPProtocol.UDP, self.length)
            checksum = internet_checksum(pseudo + header + payload)
            # RFC 768: a computed checksum of zero is sent as all ones.
            if checksum == 0:
                checksum = 0xFFFF
        else:
            checksum = self.checksum
        return header[:6] + struct.pack("!H", checksum)

    @classmethod
    def parse(cls, data, offset: int = 0, end: "int | None" = None) -> "UDPHeader":
        """Parse the 8 bytes at ``offset`` of ``data`` (any bytes-like;
        the datagram stops at ``end``, default its length) as a UDP header."""
        return cls(*cls.unpack(data, offset, end))

    @staticmethod
    def unpack(data, offset: int = 0, end: "int | None" = None) -> tuple:
        """Check the header; return its constructor arguments, in order."""
        if (len(data) if end is None else end) - offset < UDP_HEADER_LEN:
            raise ValueError("truncated UDP header")
        src_port, dst_port, length, checksum = _HEADER.unpack_from(data, offset)
        if length < UDP_HEADER_LEN:
            raise ValueError(f"invalid UDP length: {length}")
        return src_port, dst_port, length, checksum

    def __str__(self) -> str:
        return f"udp {self.src_port} > {self.dst_port} len={self.length}"
