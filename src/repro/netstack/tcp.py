"""TCP header model with flags and 32-bit sequence-space arithmetic.

Sequence numbers wrap at 2**32; every comparison in the reassembly
engines goes through :func:`seq_lt` / :func:`seq_diff` so wrap-around
streams are handled exactly like mid-space ones.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .checksum import internet_checksum, pseudo_header
from .ip import IPProtocol

__all__ = [
    "TCPFlags",
    "TCPOption",
    "TCPHeader",
    "TCP_MIN_HEADER_LEN",
    "SEQ_MOD",
    "seq_add",
    "seq_diff",
    "seq_lt",
    "seq_lte",
]

TCP_MIN_HEADER_LEN = 20
SEQ_MOD = 2**32
_FIXED = struct.Struct("!HHIIBBHHH")


class TCPFlags:
    """TCP flag bit masks."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20

    _NAMES = [(FIN, "F"), (SYN, "S"), (RST, "R"), (PSH, "P"), (ACK, "A"), (URG, "U")]

    @classmethod
    def to_str(cls, flags: int) -> str:
        return "".join(name for bit, name in cls._NAMES if flags & bit) or "."


def seq_add(seq: int, delta: int) -> int:
    """Advance ``seq`` by ``delta`` bytes, wrapping modulo 2**32."""
    return (seq + delta) % SEQ_MOD


def seq_diff(a: int, b: int) -> int:
    """Return the signed distance ``a - b`` in sequence space.

    The result lies in [-2**31, 2**31); positive means ``a`` is ahead.
    """
    return ((a - b + 2**31) % SEQ_MOD) - 2**31


def seq_lt(a: int, b: int) -> bool:
    """True if ``a`` precedes ``b`` in sequence space."""
    return seq_diff(a, b) < 0


def seq_lte(a: int, b: int) -> bool:
    """True if ``a`` precedes or equals ``b`` in sequence space."""
    return seq_diff(a, b) <= 0


class TCPOption:
    """Well-known TCP option kinds."""

    END = 0
    NOP = 1
    MSS = 2
    WINDOW_SCALE = 3
    SACK_PERMITTED = 4


@dataclass
class TCPHeader:
    """A TCP header, optionally carrying options.

    ``options`` is a list of ``(kind, payload)`` pairs; NOP/END padding
    is handled automatically on both sides.  Well-known kinds have
    convenience accessors (``mss``, ``window_scale``).
    """

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flags: int = TCPFlags.ACK
    window: int = 65535
    urgent: int = 0
    checksum: "int | None" = None
    options: "list[tuple[int, bytes]]" = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.options is None:
            self.options = []
        # Hot-path flag tests (TCPFlags' masks as literals), precomputed
        # once: headers are never mutated after construction (the fault
        # planes build fresh headers); the kernel checks them per packet.
        flags = self.flags
        self.syn = (flags & 0x02) != 0
        self.fin = (flags & 0x01) != 0
        self.rst = (flags & 0x04) != 0
        self.ack_flag = (flags & 0x10) != 0

    @property
    def header_len(self) -> int:
        if not self.options:
            return TCP_MIN_HEADER_LEN
        raw = self._options_bytes()
        return TCP_MIN_HEADER_LEN + len(raw)

    def _options_bytes(self) -> bytes:
        out = bytearray()
        for kind, payload in self.options:
            if kind in (TCPOption.END, TCPOption.NOP):
                out.append(kind)
            else:
                out.append(kind)
                out.append(2 + len(payload))
                out.extend(payload)
        while len(out) % 4:
            out.append(TCPOption.NOP)
        return bytes(out)

    @property
    def mss(self) -> "int | None":
        """The MSS option value, if present."""
        for kind, payload in self.options:
            if kind == TCPOption.MSS and len(payload) == 2:
                return int.from_bytes(payload, "big")
        return None

    @property
    def window_scale(self) -> "int | None":
        """The window-scale option value, if present."""
        for kind, payload in self.options:
            if kind == TCPOption.WINDOW_SCALE and len(payload) == 1:
                return payload[0]
        return None

    @property
    def psh(self) -> bool:
        return bool(self.flags & TCPFlags.PSH)

    def to_bytes(self, src_ip: int = 0, dst_ip: int = 0, payload: bytes = b"") -> bytes:
        """Serialize, computing the checksum over the IPv4 pseudo-header.

        When the checksum field has been set explicitly it is emitted
        verbatim, which lets tests craft corrupted segments.
        """
        option_bytes = self._options_bytes() if self.options else b""
        data_offset_words = (TCP_MIN_HEADER_LEN + len(option_bytes)) // 4
        header = struct.pack(
            "!HHIIBBHHH",
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            data_offset_words << 4,
            self.flags,
            self.window,
            0,
            self.urgent,
        ) + option_bytes
        if self.checksum is None:
            pseudo = pseudo_header(src_ip, dst_ip, IPProtocol.TCP, len(header) + len(payload))
            checksum = internet_checksum(pseudo + header + payload)
        else:
            checksum = self.checksum
        return header[:16] + struct.pack("!H", checksum) + header[18:]

    @classmethod
    def parse(cls, data, offset: int = 0, end: "int | None" = None) -> "tuple[TCPHeader, int]":
        """Parse the TCP header at ``offset`` of ``data`` (any
        bytes-like; the segment stops at ``end``, default its length);
        return ``(header, data_offset_bytes)``.

        Options are decoded into ``(kind, payload)`` pairs (padding
        NOP/END bytes dropped); malformed option lengths raise
        ValueError.
        """
        fields, data_offset = cls.unpack(data, offset, end)
        return cls(*fields), data_offset

    @staticmethod
    def unpack(data, offset: int = 0, end: "int | None" = None) -> "tuple[tuple, int]":
        """Check the header; return ``(its constructor arguments in order,
        data_offset_bytes)``, with ``None`` for an empty option area."""
        segment_len = (len(data) if end is None else end) - offset
        if segment_len < TCP_MIN_HEADER_LEN:
            raise ValueError("truncated TCP header")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_reserved,
            flags,
            window,
            checksum,
            urgent,
        ) = _FIXED.unpack_from(data, offset)
        data_offset = (offset_reserved >> 4) * 4
        if data_offset < TCP_MIN_HEADER_LEN or data_offset > segment_len:
            raise ValueError(f"invalid TCP data offset: {data_offset}")
        cursor = offset + TCP_MIN_HEADER_LEN
        options_end = offset + data_offset
        options: "list[tuple[int, bytes]] | None" = [] if cursor < options_end else None
        while cursor < options_end:
            kind = data[cursor]
            if kind == TCPOption.END:
                break
            if kind == TCPOption.NOP:
                cursor += 1
                continue
            if cursor + 1 >= options_end:
                raise ValueError("truncated TCP option")
            length = data[cursor + 1]
            if length < 2 or cursor + length > options_end:
                raise ValueError(f"invalid TCP option length: {length}")
            options.append((kind, bytes(data[cursor + 2 : cursor + length])))
            cursor += length
        return (src_port, dst_port, seq, ack, flags, window, urgent, checksum, options), data_offset

    def __str__(self) -> str:
        return (
            f"tcp {self.src_port} > {self.dst_port} "
            f"[{TCPFlags.to_str(self.flags)}] seq={self.seq} ack={self.ack}"
        )
