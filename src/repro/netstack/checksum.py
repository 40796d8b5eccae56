"""Internet checksum (RFC 1071) helpers.

The ones'-complement checksum is used by the IPv4 header and, combined
with a pseudo-header, by TCP and UDP.  Folding 16-bit words with
end-around carry is addition modulo ``0xFFFF`` (because 2**16 is 1
modulo ``0xFFFF``), so the whole buffer is read as one big-endian
integer and reduced once, at C speed, instead of word by word.
"""

from __future__ import annotations

import struct

__all__ = ["ones_complement_sum", "internet_checksum", "pseudo_header"]


def ones_complement_sum(data: bytes, initial: int = 0) -> int:
    """Return the 16-bit ones'-complement sum of ``data``.

    ``initial`` allows chaining partial sums (e.g. pseudo-header first,
    then the transport segment).  Odd-length input is padded with a zero
    byte, as RFC 1071 specifies.  The result equals the RFC 1071 word
    loop's: the remainder modulo ``0xFFFF``, except that a nonzero sum
    that is a multiple of ``0xFFFF`` folds to ``0xFFFF``, not 0.
    """
    if len(data) % 2:
        data += b"\x00"
    total = int.from_bytes(data, "big") + initial
    if not total:
        return 0
    return total % 0xFFFF or 0xFFFF


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """Return the internet checksum (complement of the folded sum)."""
    return (~ones_complement_sum(data, initial)) & 0xFFFF


def pseudo_header(src_ip: int, dst_ip: int, protocol: int, length: int) -> bytes:
    """Build the IPv4 pseudo-header used by TCP/UDP checksums."""
    return struct.pack("!IIBBH", src_ip, dst_ip, 0, protocol, length)
