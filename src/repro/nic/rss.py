"""Receive-Side Scaling: the Toeplitz hash and queue selection.

The NIC spreads incoming packets over hardware RX queues by hashing the
packet 5-tuple fields with the Toeplitz function.  With the standard
Microsoft key the two directions of one TCP connection usually hash to
*different* queues; Woo and Park showed that a key built from one
repeating 16-bit pattern makes the hash symmetric, so Scap configures
the NIC with such a key and both directions land on the same core
(§4.2 of the paper).

What is computed where:

* **Per key, per process** — the Toeplitz function is linear over XOR,
  so the hash of an input is the XOR of the hashes of its bytes taken
  alone.  For each of the 12 input byte positions of the IPv4 4-tuple a
  256-entry table holds, for every byte value, the XOR of the 32-bit
  key windows of that value's set bits (:func:`_byte_tables`); a hash
  is one lookup and one XOR per input byte.  Hardware does this in
  silicon; building the tables is the one-off cost that stands in for
  it, so they are cached by key and shared by every :class:`RSSHasher`
  of the process (the daemon builds a NIC per submitted capture).
* **Per hasher (one per simulated NIC)** — exactly one memo,
  :attr:`RSSHasher.queues`, from directional five-tuple to RX queue.
  Real hardware hashes every packet; the hash is a pure function of the
  tuple, the key and the queue count, none of which change while a NIC
  lives, so remembering the queue is behaviour-preserving.  The offload
  engine indexes the memo directly: a tuple this NIC has seen costs one
  C-level dict lookup, and Python code runs once per directional tuple.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Tuple

from ..netstack.flows import FiveTuple
from ..netstack.ip import IPProtocol

__all__ = [
    "toeplitz_hash",
    "MICROSOFT_RSS_KEY",
    "SYMMETRIC_RSS_KEY",
    "RSSHasher",
]

# The de-facto standard verification key from the Microsoft RSS spec.
MICROSOFT_RSS_KEY = bytes(
    [
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    ]
)

# Repeating 0x6d5a pattern: hash(src,dst) == hash(dst,src) for the
# 4-tuple input layout, per Woo & Park (2012).
SYMMETRIC_RSS_KEY = bytes([0x6D, 0x5A] * 20)


#: Input bytes of the largest hash input we build tables for: the IPv4
#: 4-tuple (two addresses, two ports).
_INPUT_BYTES = 12
_PACK_TUPLE = struct.Struct("!IIHH").pack
_PACK_PAIR = struct.Struct("!II").pack


@lru_cache(maxsize=16)
def _byte_tables(key: bytes) -> Tuple[Tuple[int, ...], ...]:
    """Per input byte position, byte value -> XOR of its bits' key windows.

    Bit ``j`` (MSB first) of the byte at ``position`` selects the 32-bit
    window of ``key`` that starts at key bit ``8 * position + j``.  A key
    of ``n`` bytes has windows for ``n - 4`` input bytes; positions past
    :data:`_INPUT_BYTES` are never asked for and not built.
    """
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    tables = []
    for position in range(min(len(key) - 4, _INPUT_BYTES)):
        top = key_bits - 32 - 8 * position  # shift of the window of bit 0
        table = [0] * 256
        for value in range(1, 256):
            low = value & -value  # lowest set bit; the rest is already filled in
            window = (key_int >> (top - 8 + low.bit_length())) & 0xFFFFFFFF
            table[value] = table[value ^ low] ^ window
        tables.append(tuple(table))
    return tuple(tables)


def toeplitz_hash(key: bytes, data: bytes) -> int:
    """The Toeplitz hash as specified for RSS.

    For each set bit of ``data`` (MSB first), XOR in the 32-bit window
    of ``key`` starting at that bit position.  ``data`` may be up to 12
    bytes (the IPv4 4-tuple); ``key`` must be at least 4 bytes longer
    than ``data``.
    """
    tables = _byte_tables(key)
    if len(data) > len(tables):
        raise ValueError("RSS key too short for input")
    result = 0  # the XOR of data's per-position table entries
    for table, byte in zip(tables, data):
        result ^= table[byte]
    return result


class _QueueMemo(dict):
    """Directional five-tuple -> RX queue; a miss asks the hasher, once."""

    __slots__ = ("_hasher",)

    def __init__(self, hasher: "RSSHasher"):
        self._hasher = hasher

    def __missing__(self, five_tuple: FiveTuple) -> int:
        hasher = self._hasher
        queue = self[five_tuple] = hasher.hash_value(five_tuple) % hasher.queue_count
        return queue


class RSSHasher:
    """Maps packets to RX queues via the Toeplitz hash of the 4-tuple.

    TCP and UDP use the (src ip, dst ip, src port, dst port) input; other
    IP protocols hash only the address pair.  ``queues`` memoises the
    queue per directional five-tuple (see the module docstring); the key
    must cover the 12-byte input, i.e. be at least 16 bytes long.
    """

    def __init__(self, queue_count: int, key: bytes = SYMMETRIC_RSS_KEY):
        if queue_count < 1:
            raise ValueError("need at least one RSS queue")
        self.queue_count = queue_count
        self.key = key
        self._tables = _byte_tables(key)
        if len(self._tables) < _INPUT_BYTES:
            raise ValueError("RSS key too short for input")
        #: ``queues[five_tuple]`` is :meth:`queue_for` without the call.
        self.queues = _QueueMemo(self)

    def hash_value(self, five_tuple: FiveTuple) -> int:
        """The 32-bit Toeplitz hash for ``five_tuple``."""
        if five_tuple.protocol in (IPProtocol.TCP, IPProtocol.UDP):
            data = _PACK_TUPLE(
                five_tuple.src_ip,
                five_tuple.dst_ip,
                five_tuple.src_port,
                five_tuple.dst_port,
            )
        else:
            data = _PACK_PAIR(five_tuple.src_ip, five_tuple.dst_ip)
        # toeplitz_hash's fold, inlined; pinned by test_inlined_model.py.
        result = 0
        for table, byte in zip(self._tables, data):
            result ^= table[byte]
        return result

    def queue_for(self, five_tuple: FiveTuple) -> int:
        """The RX queue index for ``five_tuple`` (memoised)."""
        return self.queues[five_tuple]
