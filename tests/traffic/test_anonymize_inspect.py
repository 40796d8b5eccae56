"""Tests for anonymization and trace inspection utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netstack import IPProtocol, make_tcp_packet
from repro.traffic import Trace, campus_mix
from repro.traffic.anonymize import PrefixPreservingAnonymizer, anonymize_trace
from repro.traffic.inspect import filter_trace, slice_time, summarize


def _common_prefix_len(a: int, b: int) -> int:
    for position in range(32):
        shift = 31 - position
        if (a >> shift) & 1 != (b >> shift) & 1:
            return position
    return 32


class TestAnonymizer:
    def test_deterministic_per_key(self):
        first = PrefixPreservingAnonymizer(b"k1")
        second = PrefixPreservingAnonymizer(b"k1")
        assert first.anonymize(0x0A010203) == second.anonymize(0x0A010203)

    def test_different_keys_differ(self):
        a = PrefixPreservingAnonymizer(b"k1").anonymize(0x0A010203)
        b = PrefixPreservingAnonymizer(b"k2").anonymize(0x0A010203)
        assert a != b

    def test_injective_on_sample(self):
        anonymizer = PrefixPreservingAnonymizer()
        inputs = [0x0A000000 + i for i in range(500)]
        outputs = {anonymizer.anonymize(address) for address in inputs}
        assert len(outputs) == len(inputs)

    def test_addresses_change(self):
        anonymizer = PrefixPreservingAnonymizer(b"key")
        changed = sum(
            1 for i in range(64) if anonymizer.anonymize(i * 7919) != i * 7919
        )
        assert changed > 60

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(0, 2**32 - 1),
        b=st.integers(0, 2**32 - 1),
    )
    def test_prefix_preservation_property(self, a, b):
        """The defining property: shared prefix length is preserved
        exactly (Crypto-PAn semantics)."""
        anonymizer = PrefixPreservingAnonymizer(b"prop")
        shared_in = _common_prefix_len(a, b)
        shared_out = _common_prefix_len(
            anonymizer.anonymize(a), anonymizer.anonymize(b)
        )
        assert shared_in == shared_out

    def test_packet_anonymization_reversible_structure(self):
        packet = make_tcp_packet(0x0A000001, 1234, 0xC0A80001, 80, payload=b"x")
        original_ports = (packet.src_port, packet.dst_port)
        (packet,) = anonymize_trace([packet], key=b"zz")
        assert packet.ip.src_ip != 0x0A000001
        assert (packet.src_port, packet.dst_port) == original_ports
        # The packet still serializes with a valid checksum.
        from repro.netstack import Packet

        assert Packet.parse(packet.to_bytes()).ip.verify_checksum()

    def test_trace_returns_copies_and_leaves_its_input_untouched(self):
        client, server = 0x0A000001, 0xC0A80001
        packets = [
            make_tcp_packet(client, 1234, server, 80, payload=b"x"),
            make_tcp_packet(server, 80, client, 1234, payload=b"y"),
        ]
        before = [(p.to_bytes(), p.five_tuple) for p in packets]
        anonymized = anonymize_trace(packets, key=b"zz")
        assert [(p.to_bytes(), p.five_tuple) for p in packets] == before
        # The copies' flow keys name the anonymized addresses.
        anonymizer = PrefixPreservingAnonymizer(b"zz")
        client, server = anonymizer.anonymize(client), anonymizer.anonymize(server)
        assert [p.five_tuple for p in anonymized] == [
            (client, 1234, server, 80, IPProtocol.TCP),
            (server, 80, client, 1234, IPProtocol.TCP),
        ]

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            PrefixPreservingAnonymizer(b"")


class TestInspect:
    @pytest.fixture(scope="class")
    def trace(self):
        return campus_mix(flow_count=50, seed=61)

    def test_summary_totals(self, trace):
        summary = summarize(trace)
        assert summary.packets == len(trace)
        assert summary.wire_bytes == trace.total_wire_bytes
        assert summary.flows == len({f.five_tuple.canonical() for f in trace.flows})
        assert summary.duration == pytest.approx(trace.duration)
        assert summary.average_rate_bps == pytest.approx(trace.native_rate_bps, rel=1e-6)

    def test_summary_protocol_mix(self, trace):
        summary = summarize(trace)
        assert summary.protocol_packets["tcp"] > summary.protocol_packets.get("udp", 0)
        assert sum(summary.size_histogram.values()) == summary.packets

    def test_format_renders(self, trace):
        text = summarize(trace).format()
        assert "packets:" in text and "top ports" in text

    def test_slice_time(self, trace):
        middle = trace.duration / 2
        first_half = slice_time(trace, 0.0, middle)
        second_half = slice_time(trace, middle, trace.duration + 1)
        assert len(first_half) + len(second_half) == len(trace)
        assert all(p.timestamp < middle for p in first_half)
        with pytest.raises(ValueError):
            slice_time(trace, 5.0, 1.0)

    def test_filter_trace(self, trace):
        web = filter_trace(trace, "tcp port 80")
        assert 0 < len(web) < len(trace)
        assert all(80 in (p.src_port, p.dst_port) for p in web)
        assert "tcp port 80" in web.name

    def test_empty_summary(self):
        summary = summarize(Trace([]))
        assert summary.packets == 0 and summary.average_rate_bps == 0.0
