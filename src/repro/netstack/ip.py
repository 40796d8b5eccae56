"""IPv4 header model, including fragmentation fields.

Scap's strict reassembly mode must normalize IP fragmentation, so the
header keeps the identification / flags / fragment-offset trio and the
packet model supports fragment emission and reassembly (see
:mod:`repro.netstack.fragments`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .addresses import int_to_ip
from .checksum import internet_checksum

__all__ = ["IPProtocol", "IPv4Header", "IPV4_MIN_HEADER_LEN"]

IPV4_MIN_HEADER_LEN = 20

_FLAG_DF = 0x2
_FLAG_MF = 0x1
_HEADER = struct.Struct("!BBHHHBBHII")


class IPProtocol:
    """Well-known IP protocol numbers."""

    ICMP = 1
    TCP = 6
    UDP = 17


@dataclass
class IPv4Header:
    """An IPv4 header without options (IHL fixed at 5).

    ``total_length`` covers header plus payload, as on the wire.  The
    checksum field is computed on serialization when left at ``None`` and
    verified on parse.
    """

    src_ip: int = 0
    dst_ip: int = 0
    protocol: int = IPProtocol.TCP
    total_length: int = IPV4_MIN_HEADER_LEN
    identification: int = 0
    dont_fragment: bool = False
    more_fragments: bool = False
    fragment_offset: int = 0  # in 8-byte units, as on the wire
    ttl: int = 64
    tos: int = 0
    checksum: "int | None" = None

    @property
    def header_len(self) -> int:
        return IPV4_MIN_HEADER_LEN

    @property
    def payload_len(self) -> int:
        return self.total_length - IPV4_MIN_HEADER_LEN

    @property
    def is_fragment(self) -> bool:
        """True if this packet is any fragment other than a whole datagram."""
        return self.more_fragments or self.fragment_offset != 0

    def _flags_fragment_word(self) -> int:
        flags = 0
        if self.dont_fragment:
            flags |= _FLAG_DF
        if self.more_fragments:
            flags |= _FLAG_MF
        return (flags << 13) | (self.fragment_offset & 0x1FFF)

    def to_bytes(self) -> bytes:
        """Serialize to the 20-byte wire format, computing the checksum."""
        header = struct.pack(
            "!BBHHHBBHII",
            (4 << 4) | 5,
            self.tos,
            self.total_length,
            self.identification,
            self._flags_fragment_word(),
            self.ttl,
            self.protocol,
            0,
            self.src_ip,
            self.dst_ip,
        )
        checksum = internet_checksum(header) if self.checksum is None else self.checksum
        return header[:10] + struct.pack("!H", checksum) + header[12:]

    @classmethod
    def parse(cls, data, offset: int = 0, end: "int | None" = None) -> "IPv4Header":
        """Parse the 20 bytes at ``offset`` of ``data`` (any bytes-like;
        the packet stops at ``end``, default its length) as an IPv4 header."""
        return cls(*cls.unpack(data, offset, end))

    @staticmethod
    def unpack(data, offset: int = 0, end: "int | None" = None) -> tuple:
        """Check the header; return its constructor arguments, in order."""
        if (len(data) if end is None else end) - offset < IPV4_MIN_HEADER_LEN:
            raise ValueError("truncated IPv4 header")
        (
            version_ihl,
            tos,
            total_length,
            identification,
            flags_frag,
            ttl,
            protocol,
            checksum,
            src_ip,
            dst_ip,
        ) = _HEADER.unpack_from(data, offset)
        version = version_ihl >> 4
        ihl = version_ihl & 0xF
        if version != 4:
            raise ValueError(f"not an IPv4 packet (version={version})")
        if ihl != 5:
            raise ValueError("IPv4 options are not supported")
        flags = flags_frag >> 13
        return (
            src_ip, dst_ip, protocol, total_length, identification,
            (flags & _FLAG_DF) != 0, (flags & _FLAG_MF) != 0, flags_frag & 0x1FFF,
            ttl, tos, checksum,
        )

    def verify_checksum(self) -> bool:
        """Return True if the stored checksum matches the header contents."""
        if self.checksum is None:
            return False
        recomputed = IPv4Header(
            src_ip=self.src_ip,
            dst_ip=self.dst_ip,
            protocol=self.protocol,
            total_length=self.total_length,
            identification=self.identification,
            dont_fragment=self.dont_fragment,
            more_fragments=self.more_fragments,
            fragment_offset=self.fragment_offset,
            ttl=self.ttl,
            tos=self.tos,
        ).to_bytes()
        (expected,) = struct.unpack_from("!H", recomputed, 10)
        return expected == self.checksum

    def __str__(self) -> str:
        frag = f" frag@{self.fragment_offset * 8}+MF" if self.is_fragment else ""
        return (
            f"ip {int_to_ip(self.src_ip)} > {int_to_ip(self.dst_ip)} "
            f"proto={self.protocol} len={self.total_length}{frag}"
        )
