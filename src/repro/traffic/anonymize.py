"""Prefix-preserving IP anonymization for shareable traces.

Campus traces like the paper's cannot be published raw.  The standard
remedy is Crypto-PAn-style *prefix-preserving* anonymization: two
addresses sharing a k-bit prefix map to addresses sharing exactly a
k-bit prefix, so subnet structure (and therefore most analyses)
survives while identities do not.

This is the classic one-bit-at-a-time construction: for each bit
position ``i``, the output bit is the input bit XOR a pseudorandom
function of the ``i``-bit input prefix.  The PRF here is keyed
BLAKE2s — deterministic for a given key, infeasible to invert without
it.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Dict, Iterable, List

from ..netstack.packet import Packet

__all__ = ["PrefixPreservingAnonymizer", "anonymize_trace"]


class PrefixPreservingAnonymizer:
    """Keyed prefix-preserving permutation of IPv4 addresses."""

    def __init__(self, key: bytes = b"scap-repro-default-key"):
        if not key:
            raise ValueError("key must be non-empty")
        self._key = key
        self._cache: Dict[int, int] = {}

    def _prf_bit(self, prefix: int, width: int) -> int:
        """One pseudorandom bit from the ``width``-bit ``prefix``."""
        digest = hashlib.blake2s(
            width.to_bytes(1, "big") + prefix.to_bytes(5, "big"),
            key=self._key,
            digest_size=1,
        ).digest()
        return digest[0] & 1

    def anonymize(self, address: int) -> int:
        """Map one 32-bit address, preserving prefix relationships."""
        cached = self._cache.get(address)
        if cached is not None:
            return cached
        result = 0
        prefix = 0
        for position in range(32):
            bit = (address >> (31 - position)) & 1
            flip = self._prf_bit(prefix, position)
            result = (result << 1) | (bit ^ flip)
            prefix = (prefix << 1) | bit
        self._cache[address] = result
        return result

    def anonymize_packet(self, packet: Packet) -> Packet:
        """A copy of ``packet`` with its addresses anonymized.

        The input is left untouched; the copy derives its five-tuple
        from the anonymized header.  A non-IP frame is returned as is.
        """
        ip = packet.ip
        if ip is None:
            return packet
        anonymized = replace(
            ip,
            src_ip=self.anonymize(ip.src_ip),
            dst_ip=self.anonymize(ip.dst_ip),
            checksum=None,  # recomputed on serialization
        )
        return replace(packet, ip=anonymized)


def anonymize_trace(
    packets: Iterable[Packet], key: bytes = b"scap-repro-default-key"
) -> List[Packet]:
    """Anonymized copies of every packet, in order; the input is untouched."""
    anonymizer = PrefixPreservingAnonymizer(key)
    return [anonymizer.anonymize_packet(packet) for packet in packets]
