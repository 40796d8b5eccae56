"""The packet model used throughout the simulator.

A :class:`Packet` is a parsed representation — Ethernet + IPv4 +
TCP/UDP headers plus the transport payload — together with capture
metadata (timestamp, wire length).  Keeping packets parsed avoids
re-parsing in every pipeline stage; ``to_bytes``/``parse`` provide the
wire form for pcap I/O and for tests that must exercise real parsing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .ethernet import ETHERNET_HEADER_LEN, EtherType, EthernetHeader
from .flows import FiveTuple
from .ip import IPV4_MIN_HEADER_LEN, IPProtocol, IPv4Header
from .tcp import TCPFlags, TCPHeader
from .udp import UDP_HEADER_LEN, UDPHeader

__all__ = ["Packet", "frame_fields", "make_tcp_packet", "make_udp_packet"]

#: The four bytes after an 802.1Q ethertype: TCI, encapsulated ethertype.
_VLAN_TAG = struct.Struct("!HH")
_ETHERTYPE_VLAN, _ETHERTYPE_IPV4 = EtherType.VLAN, EtherType.IPV4
_PROTOCOL_TCP, _PROTOCOL_UDP = IPProtocol.TCP, IPProtocol.UDP


@dataclass
class Packet:
    """A captured packet: headers, payload, and capture metadata.

    ``timestamp`` is in virtual seconds.  ``wire_len`` is the on-wire
    frame length used for traffic-rate arithmetic; it defaults to the
    serialized length but replayers may override it (e.g. for snaplen
    experiments where only part of the frame was captured).

    ``five_tuple`` — the directional flow key, or None for a non-IP
    frame — is derived from the headers once, at construction, and
    travels with the packet.  Headers are never assigned afterwards: a
    packet with other headers is a new one (:func:`dataclasses.replace`),
    which derives its own key.
    """

    eth: EthernetHeader
    ip: "IPv4Header | None" = None
    tcp: "TCPHeader | None" = None
    udp: "UDPHeader | None" = None
    payload: bytes = b""
    timestamp: float = 0.0
    wire_len: int = 0
    #: 802.1Q VLAN id when the frame carried a tag (None otherwise).
    vlan_id: "int | None" = None
    #: Set when the frame's checksum is bad on the wire; the NIC drops
    #: such frames before RSS (counted in ``NICStats.fcs_errors``).
    fcs_corrupt: bool = False
    five_tuple: "FiveTuple | None" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.wire_len == 0:
            self.wire_len = self.header_len + len(self.payload)
        ip = self.ip
        if ip is None:
            self.five_tuple = None
            return
        ports = self.tcp if self.tcp is not None else self.udp
        sport, dport = (0, 0) if ports is None else (ports.src_port, ports.dst_port)
        # tuple.__new__: the same FiveTuple, without namedtuple's __new__.
        self.five_tuple = tuple.__new__(
            FiveTuple, (ip.src_ip, sport, ip.dst_ip, dport, ip.protocol)
        )

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def header_len(self) -> int:
        """Total length of all headers present."""
        length = ETHERNET_HEADER_LEN
        if self.vlan_id is not None:
            length += 4
        if self.ip is not None:
            length += IPV4_MIN_HEADER_LEN
        if self.tcp is not None:
            length += self.tcp.header_len
        elif self.udp is not None:
            length += UDP_HEADER_LEN
        return length

    @property
    def is_ip(self) -> bool:
        return self.ip is not None

    @property
    def is_tcp(self) -> bool:
        return self.tcp is not None

    @property
    def is_udp(self) -> bool:
        return self.udp is not None

    @property
    def src_port(self) -> int:
        if self.tcp is not None:
            return self.tcp.src_port
        if self.udp is not None:
            return self.udp.src_port
        return 0

    @property
    def dst_port(self) -> int:
        if self.tcp is not None:
            return self.tcp.dst_port
        if self.udp is not None:
            return self.udp.dst_port
        return 0

    @property
    def tcp_flags(self) -> int:
        return self.tcp.flags if self.tcp is not None else 0

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the full wire frame (headers recompute checksums)."""
        if self.vlan_id is not None:
            # 802.1Q: the Ethernet type becomes 0x8100 followed by the
            # TCI and the encapsulated ethertype.
            inner_type = EtherType.IPV4 if self.ip is not None else self.eth.ethertype
            eth = EthernetHeader(self.eth.dst_mac, self.eth.src_mac, EtherType.VLAN)
            parts = [
                eth.to_bytes(),
                _VLAN_TAG.pack(self.vlan_id & 0x0FFF, inner_type),
            ]
        else:
            parts = [self.eth.to_bytes()]
        if self.ip is not None:
            parts.append(self.ip.to_bytes())
            if self.tcp is not None:
                parts.append(self.tcp.to_bytes(self.ip.src_ip, self.ip.dst_ip, self.payload))
            elif self.udp is not None:
                parts.append(self.udp.to_bytes(self.ip.src_ip, self.ip.dst_ip, self.payload))
        parts.append(self.payload)
        return b"".join(parts)

    @classmethod
    def parse(
        cls, data, timestamp: float = 0.0, wire_len: int = 0, offset: int = 0,
        end: "int | None" = None,
    ) -> "Packet":
        """Parse the wire frame ``data[offset:end]`` (any bytes-like;
        default all of it), checked by :func:`frame_fields`; the only
        bytes copied out are the ones the packet keeps."""
        if end is None:
            end = len(data)
        return cls.from_fields(
            data, frame_fields(data, offset, end), timestamp, wire_len or end - offset
        )

    @classmethod
    def from_fields(cls, data, fields: tuple, timestamp: float, wire_len: int) -> "Packet":
        """Build the packet :func:`frame_fields` checked in ``data``."""
        eth, vlan_id, ip, tcp, udp, start, end = fields
        return cls(
            eth, ip and IPv4Header(*ip), tcp and TCPHeader(*tcp), udp and UDPHeader(*udp),
            bytes(data[start:end]), timestamp, wire_len, vlan_id,
        )

    def __str__(self) -> str:
        if self.tcp is not None and self.ip is not None:
            return f"[{self.timestamp:.6f}] {self.ip} {self.tcp} len={len(self.payload)}"
        if self.udp is not None and self.ip is not None:
            return f"[{self.timestamp:.6f}] {self.ip} {self.udp} len={len(self.payload)}"
        if self.ip is not None:
            return f"[{self.timestamp:.6f}] {self.ip} len={len(self.payload)}"
        return f"[{self.timestamp:.6f}] {self.eth} len={len(self.payload)}"


def frame_fields(data, offset: int = 0, end: "int | None" = None) -> tuple:
    """Run every check on the frame ``data[offset:end]`` (ValueError if
    refused); return ``(eth, vlan_id, ip, tcp, udp, start, end)``: the
    Ethernet header, the 802.1Q id, the IPv4/TCP/UDP headers' constructor
    arguments (None when absent; none is built) and the payload bounds.
    A fragment with nonzero offset carries no transport header."""
    if end is None:
        end = len(data)
    eth = EthernetHeader.parse(data, offset, end)
    offset += ETHERNET_HEADER_LEN
    vlan_id = None
    ethertype = eth.ethertype
    if ethertype == _ETHERTYPE_VLAN:
        if end < offset + 4:
            raise ValueError("truncated 802.1Q tag")
        tci, ethertype = _VLAN_TAG.unpack_from(data, offset)
        vlan_id = tci & 0x0FFF
        offset += 4
        eth = EthernetHeader(eth.dst_mac, eth.src_mac, ethertype)
    if ethertype != _ETHERTYPE_IPV4:
        return eth, vlan_id, None, None, None, offset, end
    ip = IPv4Header.unpack(data, offset, end)
    # ip[2], ip[3], ip[7]: protocol, total_length, fragment_offset.
    # Ethernet padding past the datagram is not payload.
    if offset + ip[3] < end:
        end = offset + ip[3]
    offset += IPV4_MIN_HEADER_LEN
    if ip[7] == 0:
        if ip[2] == _PROTOCOL_TCP:
            tcp, data_offset = TCPHeader.unpack(data, offset, end)
            return eth, vlan_id, ip, tcp, None, offset + data_offset, end
        if ip[2] == _PROTOCOL_UDP:
            udp = UDPHeader.unpack(data, offset, end)
            return eth, vlan_id, ip, None, udp, offset + UDP_HEADER_LEN, end
    return eth, vlan_id, ip, None, None, offset, end


def make_tcp_packet(
    src_ip: int,
    src_port: int,
    dst_ip: int,
    dst_port: int,
    seq: int = 0,
    ack: int = 0,
    flags: int = TCPFlags.ACK,
    payload: bytes = b"",
    timestamp: float = 0.0,
    window: int = 65535,
    options: "list[tuple[int, bytes]] | None" = None,
) -> Packet:
    """Convenience constructor for a TCP/IPv4/Ethernet packet."""
    tcp = TCPHeader(
        src_port=src_port, dst_port=dst_port, seq=seq, ack=ack, flags=flags,
        window=window, options=options,
    )
    total = IPV4_MIN_HEADER_LEN + tcp.header_len + len(payload)
    ip = IPv4Header(src_ip=src_ip, dst_ip=dst_ip, protocol=IPProtocol.TCP, total_length=total)
    return Packet(eth=EthernetHeader(), ip=ip, tcp=tcp, payload=payload, timestamp=timestamp)


def make_udp_packet(
    src_ip: int,
    src_port: int,
    dst_ip: int,
    dst_port: int,
    payload: bytes = b"",
    timestamp: float = 0.0,
) -> Packet:
    """Convenience constructor for a UDP/IPv4/Ethernet packet."""
    udp = UDPHeader(
        src_port=src_port, dst_port=dst_port, length=UDP_HEADER_LEN + len(payload)
    )
    total = IPV4_MIN_HEADER_LEN + UDP_HEADER_LEN + len(payload)
    ip = IPv4Header(src_ip=src_ip, dst_ip=dst_ip, protocol=IPProtocol.UDP, total_length=total)
    return Packet(eth=EthernetHeader(), ip=ip, udp=udp, payload=payload, timestamp=timestamp)
