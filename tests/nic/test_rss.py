"""Tests for RSS / Toeplitz hashing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netstack import FiveTuple, IPProtocol, ip_to_int
from repro.core import ScapRuntime
from repro.nic import (
    MICROSOFT_RSS_KEY,
    SYMMETRIC_RSS_KEY,
    RSSHasher,
    SimulatedNIC,
    toeplitz_hash,
)


# Official verification vectors from the Microsoft RSS specification
# (IPv4 with TCP ports, 40-byte default key).
_MSDN_VECTORS = [
    # (dst ip, src ip, dst port, src port, expected hash)
    ("161.142.100.80", "66.9.149.187", 1766, 2794, 0x51CCC178),
    ("65.69.140.83", "199.92.111.2", 4739, 14230, 0xC626B0EA),
    ("12.22.207.184", "24.19.198.95", 38024, 12898, 0x5C2B394A),
    ("209.142.163.6", "38.27.205.30", 2217, 48228, 0xAFC7327F),
    ("202.188.127.2", "153.39.163.191", 1303, 44251, 0x10E828A2),
]


@pytest.mark.parametrize("dst_ip,src_ip,dst_port,src_port,expected", _MSDN_VECTORS)
def test_microsoft_verification_vectors(dst_ip, src_ip, dst_port, src_port, expected):
    data = (
        ip_to_int(src_ip).to_bytes(4, "big")
        + ip_to_int(dst_ip).to_bytes(4, "big")
        + src_port.to_bytes(2, "big")
        + dst_port.to_bytes(2, "big")
    )
    assert toeplitz_hash(MICROSOFT_RSS_KEY, data) == expected


def test_key_too_short():
    with pytest.raises(ValueError):
        toeplitz_hash(b"\x01" * 8, b"\x00" * 12)


def _tuples(protocols=st.just(IPProtocol.TCP)):
    return st.builds(
        FiveTuple,
        st.integers(0, 2**32 - 1),
        st.integers(0, 65535),
        st.integers(0, 2**32 - 1),
        st.integers(0, 65535),
        protocols,
    )


def _bit_serial_toeplitz(key: bytes, data: bytes) -> int:
    """The definition, bit by bit: the reference the tables must equal."""
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    result = 0
    bit_index = 0
    for byte in data:
        for bit in range(7, -1, -1):
            if byte & (1 << bit):
                shift = key_bits - 32 - bit_index
                result ^= (key_int >> shift) & 0xFFFFFFFF
            bit_index += 1
    return result


@given(
    st.binary(min_size=16, max_size=52),
    st.sampled_from([8, 12]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
)
def test_table_driven_hash_equals_bit_serial_definition(key, data):
    assert toeplitz_hash(key, data) == _bit_serial_toeplitz(key, data)


@pytest.mark.parametrize("key", [SYMMETRIC_RSS_KEY, MICROSOFT_RSS_KEY], ids=["symmetric", "msdn"])
@given(_tuples(st.sampled_from([IPProtocol.TCP, IPProtocol.UDP, IPProtocol.ICMP])))
def test_queue_for_is_the_reference_hash_modulo_queues(key, ft):
    """TCP/UDP hash the 4-tuple, every other protocol the address pair."""
    packed = ft.src_ip.to_bytes(4, "big") + ft.dst_ip.to_bytes(4, "big")
    if ft.protocol != IPProtocol.ICMP:
        packed += ft.src_port.to_bytes(2, "big") + ft.dst_port.to_bytes(2, "big")
    hasher = RSSHasher(8, key)
    expected = _bit_serial_toeplitz(key, packed)
    assert hasher.hash_value(ft) == expected
    assert hasher.queue_for(ft) == hasher.queues[ft] == expected % 8


def test_tables_are_per_key_not_per_hasher():
    """Built once per key per process: the daemon makes a NIC per capture."""
    a, b = RSSHasher(4, SYMMETRIC_RSS_KEY), RSSHasher(8, SYMMETRIC_RSS_KEY)
    other = RSSHasher(4, MICROSOFT_RSS_KEY)
    assert a._tables is b._tables
    assert a._tables is not other._tables
    assert a.queues is not b.queues  # the queue memo is per hasher


def test_short_key_fails_at_construction():
    """A key that cannot cover the 12-byte 4-tuple never hashed TCP/UDP;
    it used to construct, hash ICMP, and raise inside ``classify``."""
    short = b"\x6d\x5a" * 6
    with pytest.raises(ValueError, match="RSS key too short"):
        RSSHasher(4, key=short)
    with pytest.raises(ValueError, match="RSS key too short"):
        SimulatedNIC(queue_count=4, rss_key=short)
    with pytest.raises(ValueError, match="RSS key too short"):
        ScapRuntime(rss_key=short)
    # A key of 12 bytes still hashes the 8-byte address pair directly.
    assert toeplitz_hash(short, b"\x01" * 8) == _bit_serial_toeplitz(short, b"\x01" * 8)


@given(_tuples())
def test_symmetric_key_maps_both_directions_together(ft):
    """Woo & Park: the repeating-pattern key is direction-symmetric."""
    hasher = RSSHasher(8, SYMMETRIC_RSS_KEY)
    assert hasher.queue_for(ft) == hasher.queue_for(ft.reversed())


def test_microsoft_key_usually_splits_directions():
    hasher = RSSHasher(8, MICROSOFT_RSS_KEY)
    split = 0
    for i in range(64):
        ft = FiveTuple(0x0A000000 + i, 1000 + i, 0xC0000000 + i, 80, IPProtocol.TCP)
        if hasher.queue_for(ft) != hasher.queue_for(ft.reversed()):
            split += 1
    assert split > 32  # the standard key is not symmetric


def test_queue_spread():
    hasher = RSSHasher(8, SYMMETRIC_RSS_KEY)
    counts = [0] * 8
    for i in range(400):
        ft = FiveTuple(0x0A000000 + i * 7, 1024 + i, 0xC0000000 + i * 13, 80, 6)
        counts[hasher.queue_for(ft)] += 1
    assert min(counts) > 10, counts  # all queues used


def test_hash_is_memoised():
    """One memo per hasher, and it holds the queue."""
    hasher = RSSHasher(4)
    ft = FiveTuple(1, 2, 3, 4, IPProtocol.TCP)
    first = hasher.hash_value(ft)
    assert hasher.hash_value(ft) == first
    assert ft not in hasher.queues  # hash_value is the pure function
    assert hasher.queue_for(ft) == first % 4
    assert hasher.queues == {ft: first % 4}


def test_non_tcp_udp_hashes_addresses_only():
    hasher = RSSHasher(8)
    a = FiveTuple(1, 1111, 2, 2222, IPProtocol.ICMP)
    b = FiveTuple(1, 3333, 2, 4444, IPProtocol.ICMP)
    assert hasher.hash_value(a) == hasher.hash_value(b)


def test_rejects_zero_queues():
    with pytest.raises(ValueError):
        RSSHasher(0)
