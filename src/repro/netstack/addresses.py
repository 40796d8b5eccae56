"""Address helpers: IPv4 addresses as integers, MAC addresses as bytes.

The simulator stores IPv4 addresses as plain ``int`` for speed (hashing a
28-bit five-tuple key is far cheaper than hashing strings), and converts
to dotted-quad strings only at display boundaries.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "ip_to_int",
    "int_to_ip",
    "mac_to_bytes",
    "bytes_to_mac",
    "BROADCAST_MAC",
]

BROADCAST_MAC = b"\xff\xff\xff\xff\xff\xff"


def ip_to_int(address: str) -> int:
    """Convert a dotted-quad IPv4 address to its 32-bit integer form."""
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"invalid IPv4 octet in {address!r}")
        value = (value << 8) | octet
    return value


@lru_cache(maxsize=4096)
def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to a dotted-quad IPv4 address string."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 address out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def mac_to_bytes(address: str) -> bytes:
    """Convert ``aa:bb:cc:dd:ee:ff`` notation to 6 raw bytes."""
    parts = address.split(":")
    if len(parts) != 6:
        raise ValueError(f"invalid MAC address: {address!r}")
    try:
        raw = bytes(int(part, 16) for part in parts)
    except ValueError as exc:
        raise ValueError(f"invalid MAC address: {address!r}") from exc
    return raw


def bytes_to_mac(raw: bytes) -> str:
    """Convert 6 raw bytes to ``aa:bb:cc:dd:ee:ff`` notation."""
    if len(raw) != 6:
        raise ValueError("MAC addresses are exactly 6 bytes")
    return ":".join(f"{byte:02x}" for byte in raw)
