"""Tests for Ethernet / IPv4 / TCP / UDP header models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netstack.ethernet import ETHERNET_HEADER_LEN, EtherType, EthernetHeader
from repro.netstack.ip import IPProtocol, IPv4Header
from repro.netstack.tcp import TCPFlags, TCPHeader
from repro.netstack.udp import UDPHeader


class TestEthernet:
    def test_round_trip(self):
        header = EthernetHeader(b"\x01" * 6, b"\x02" * 6, EtherType.IPV4)
        parsed = EthernetHeader.parse(header.to_bytes())
        assert parsed == header

    def test_serialized_length(self):
        assert len(EthernetHeader().to_bytes()) == ETHERNET_HEADER_LEN

    def test_truncated(self):
        with pytest.raises(ValueError):
            EthernetHeader.parse(b"\x00" * 10)

    def test_bad_mac_length(self):
        with pytest.raises(ValueError):
            EthernetHeader(dst_mac=b"\x00" * 5)

    def test_str_contains_type(self):
        assert "0x0800" in str(EthernetHeader())

    def test_parsed_headers_are_interned_in_a_bounded_table(self):
        from repro.netstack import ethernet

        frames = [i.to_bytes(6, "big") + bytes(6) + b"\x08\x00" for i in range(3000)]
        for frame in frames:  # more distinct headers than the table holds
            parsed = EthernetHeader.parse(bytearray(b"pad" + frame), 3)
            assert (parsed.dst_mac, parsed.src_mac, parsed.ethertype) == (frame[:6], bytes(6), 0x0800)
        assert ethernet._interned.cache_info().currsize <= 1024
        assert EthernetHeader.parse(frames[-1]) is EthernetHeader.parse(memoryview(frames[-1]))


class TestIPv4:
    def test_round_trip(self):
        header = IPv4Header(
            src_ip=0x0A000001, dst_ip=0x0A000002, protocol=IPProtocol.TCP,
            total_length=40, identification=7, ttl=33,
        )
        parsed = IPv4Header.parse(header.to_bytes())
        assert parsed.src_ip == header.src_ip
        assert parsed.dst_ip == header.dst_ip
        assert parsed.total_length == 40
        assert parsed.identification == 7
        assert parsed.ttl == 33
        assert parsed.verify_checksum()

    def test_fragment_fields_round_trip(self):
        header = IPv4Header(
            total_length=28, more_fragments=True, fragment_offset=185,
            identification=99,
        )
        parsed = IPv4Header.parse(header.to_bytes())
        assert parsed.more_fragments and parsed.fragment_offset == 185
        assert parsed.is_fragment

    def test_dont_fragment_round_trip(self):
        parsed = IPv4Header.parse(IPv4Header(dont_fragment=True).to_bytes())
        assert parsed.dont_fragment and not parsed.more_fragments

    def test_not_fragment_by_default(self):
        assert not IPv4Header().is_fragment

    def test_corrupt_checksum_detected(self):
        raw = bytearray(IPv4Header(src_ip=1, dst_ip=2).to_bytes())
        raw[14] ^= 0xFF  # flip a source-address byte
        assert not IPv4Header.parse(bytes(raw)).verify_checksum()

    def test_rejects_non_ipv4(self):
        raw = bytearray(IPv4Header().to_bytes())
        raw[0] = (6 << 4) | 5
        with pytest.raises(ValueError):
            IPv4Header.parse(bytes(raw))

    def test_rejects_options(self):
        raw = bytearray(IPv4Header().to_bytes())
        raw[0] = (4 << 4) | 6
        with pytest.raises(ValueError):
            IPv4Header.parse(bytes(raw))

    def test_truncated(self):
        with pytest.raises(ValueError):
            IPv4Header.parse(b"\x45\x00")


class TestTCP:
    def test_round_trip(self):
        header = TCPHeader(
            src_port=1234, dst_port=80, seq=0xDEADBEEF, ack=42,
            flags=TCPFlags.SYN | TCPFlags.ACK, window=1024, urgent=3,
        )
        parsed, offset = TCPHeader.parse(header.to_bytes(1, 2, b""))
        assert offset == 20
        assert parsed.src_port == 1234 and parsed.dst_port == 80
        assert parsed.seq == 0xDEADBEEF and parsed.ack == 42
        assert parsed.syn and parsed.ack_flag and not parsed.fin
        assert parsed.window == 1024 and parsed.urgent == 3

    def test_flag_properties(self):
        header = TCPHeader(flags=TCPFlags.FIN | TCPFlags.RST | TCPFlags.PSH)
        assert header.fin and header.rst and header.psh and not header.syn

    def test_flags_to_str(self):
        assert TCPFlags.to_str(TCPFlags.SYN | TCPFlags.ACK) == "SA"
        assert TCPFlags.to_str(0) == "."

    def test_options_skipped(self):
        """A header with options parses with the correct data offset."""
        base = bytearray(TCPHeader(src_port=5, dst_port=6).to_bytes())
        base[12] = 6 << 4  # data offset = 6 words (4 bytes of options)
        raw = bytes(base) + b"\x01\x01\x01\x00" + b"payload"
        parsed, offset = TCPHeader.parse(raw)
        assert offset == 24
        assert parsed.src_port == 5

    def test_invalid_offset(self):
        base = bytearray(TCPHeader().to_bytes())
        base[12] = 2 << 4
        with pytest.raises(ValueError):
            TCPHeader.parse(bytes(base))

    def test_truncated(self):
        with pytest.raises(ValueError):
            TCPHeader.parse(b"\x00" * 10)


class TestUDP:
    def test_round_trip(self):
        header = UDPHeader(src_port=53, dst_port=4000, length=30)
        parsed = UDPHeader.parse(header.to_bytes(1, 2, b"x" * 22))
        assert parsed.src_port == 53 and parsed.dst_port == 4000
        assert parsed.length == 30 and parsed.payload_len == 22

    def test_zero_checksum_becomes_ffff(self):
        """RFC 768: computed zero is transmitted as all-ones."""
        # Find any payload; the rule only matters when the sum is zero,
        # but the invariant "never emit 0" must hold for all.
        for tag in range(200):
            header = UDPHeader(src_port=tag, dst_port=tag, length=8)
            raw = header.to_bytes(0, 0, b"")
            assert raw[6:8] != b"\x00\x00"

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            UDPHeader.parse(b"\x00\x01\x00\x02\x00\x03\x00\x00")

    def test_truncated(self):
        with pytest.raises(ValueError):
            UDPHeader.parse(b"\x00" * 4)


@given(
    src=st.integers(0, 65535),
    dst=st.integers(0, 65535),
    seq=st.integers(0, 2**32 - 1),
    flags=st.integers(0, 63),
)
def test_tcp_round_trip_property(src, dst, seq, flags):
    header = TCPHeader(src_port=src, dst_port=dst, seq=seq, flags=flags)
    parsed, _ = TCPHeader.parse(header.to_bytes())
    assert (parsed.src_port, parsed.dst_port, parsed.seq, parsed.flags) == (
        src, dst, seq, flags,
    )
