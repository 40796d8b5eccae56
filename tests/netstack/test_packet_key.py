"""The flow key is right wherever a packet is born.

``Packet.five_tuple`` is derived once, when the packet is built, and
travels with it.  Every way the code makes a packet — the two
constructors, wire parsing (with and without an 802.1Q tag), IP
fragmentation and reassembly, the wire fault plane's copies and the
anonymizer — must carry the key its own headers name.  The expected key
is rebuilt here from the headers alone.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinject import FaultInjector, FaultPlan, WireFaults
from repro.netstack import (
    EthernetHeader,
    EtherType,
    FiveTuple,
    IPFragmentReassembler,
    IPProtocol,
    Packet,
    fragment_packet,
    make_tcp_packet,
    make_udp_packet,
)
from repro.traffic import Trace
from repro.traffic.anonymize import PrefixPreservingAnonymizer


def key_from_headers(packet: Packet) -> "FiveTuple | None":
    """The directional key the packet's headers name (None: not IP)."""
    ip = packet.ip
    if ip is None:
        return None
    if packet.tcp is not None:
        sport, dport = packet.tcp.src_port, packet.tcp.dst_port
    elif packet.udp is not None:
        sport, dport = packet.udp.src_port, packet.udp.dst_port
    else:
        sport = dport = 0
    return FiveTuple(ip.src_ip, sport, ip.dst_ip, dport, ip.protocol)


def assert_key_is_true(packet: Packet) -> None:
    assert packet.five_tuple == key_from_headers(packet)


_address = st.integers(0, 2**32 - 1)
_port = st.integers(0, 65535)


@st.composite
def built(draw):
    """``(packet, key)``: a TCP or UDP packet from its constructor and the
    key its arguments name."""
    src, sport, dst, dport = draw(_address), draw(_port), draw(_address), draw(_port)
    payload = draw(st.binary(max_size=600))
    if draw(st.booleans()):
        packet = make_tcp_packet(src, sport, dst, dport, seq=draw(st.integers(0, 2**32 - 1)),
                                 payload=payload)
        return packet, FiveTuple(src, sport, dst, dport, IPProtocol.TCP)
    packet = make_udp_packet(src, sport, dst, dport, payload=payload)
    return packet, FiveTuple(src, sport, dst, dport, IPProtocol.UDP)


@settings(max_examples=80, deadline=None)
@given(case=built(), vlan_id=st.integers(0, 4095))
def test_constructors_and_parse(case, vlan_id):
    packet, key = case
    assert packet.five_tuple == key
    assert_key_is_true(packet)
    tagged = dataclasses.replace(packet, vlan_id=vlan_id, wire_len=0)
    for frame in (packet.to_bytes(), tagged.to_bytes()):
        parsed = Packet.parse(frame)
        assert parsed.five_tuple == key
        assert_key_is_true(parsed)
    assert Packet.parse(tagged.to_bytes()).vlan_id == vlan_id


@settings(max_examples=80, deadline=None)
@given(case=built(), fragment_size=st.integers(24, 512))
def test_fragments_and_their_reassembly(case, fragment_size):
    packet, key = case
    pieces = fragment_packet(packet, fragment_size)
    for piece in pieces:
        assert_key_is_true(piece)
    if len(pieces) > 1:
        portless = FiveTuple(key.src_ip, 0, key.dst_ip, 0, key.protocol)
        assert all(piece.five_tuple == portless for piece in pieces)
        # On the wire the first fragment carries the transport header,
        # so a parser sees its ports; later ones carry none.
        parsed = [Packet.parse(piece.to_bytes()) for piece in pieces]
        for piece in parsed:
            assert_key_is_true(piece)
        assert parsed[0].five_tuple == key
        assert all(piece.five_tuple == portless for piece in parsed[1:])
    reassembler = IPFragmentReassembler()
    rebuilt = [reassembler.push(piece) for piece in pieces]
    assert all(whole is None for whole in rebuilt[:-1])
    assert rebuilt[-1].five_tuple == key
    assert_key_is_true(rebuilt[-1])


@pytest.mark.parametrize(
    "fault", ["fcs_corrupt_rate", "corrupt_rate", "truncate_rate", "duplicate_rate"]
)
@settings(max_examples=20, deadline=None)
@given(cases=st.lists(built(), min_size=1, max_size=6))
def test_wire_fault_copies(fault, cases):
    """Every fault that copies a packet (``dataclasses.replace``) hands
    on a copy whose key is the original's."""
    packets = [packet for packet, _ in cases]
    for index, packet in enumerate(packets):
        packet.timestamp = index * 1e-3
    plan = FaultPlan(seed=3, wire=WireFaults(**{fault: 1.0}))
    faulted = list(FaultInjector(plan).wrap_workload(Trace(packets)).replay(1e9))
    # In order, one out per packet in — two (copy, then original) when
    # duplicated.
    copies_per_packet = 2 if fault == "duplicate_rate" else 1
    sources = [case for case in cases for _ in range(copies_per_packet)]
    assert len(faulted) == len(sources)
    for packet, (source, key) in zip(faulted, sources):
        assert packet.five_tuple == key
        assert_key_is_true(packet)
    copied = [packet for packet, (source, _) in zip(faulted, sources) if packet is not source]
    payloads_only = fault in ("corrupt_rate", "truncate_rate")
    assert len(copied) == sum(1 for p in packets if p.payload or not payloads_only)


@settings(max_examples=60, deadline=None)
@given(case=built())
def test_anonymized_copy(case):
    packet, key = case
    anonymizer = PrefixPreservingAnonymizer(b"key-test")
    anonymized = anonymizer.anonymize_packet(packet)
    assert_key_is_true(anonymized)
    assert anonymized.five_tuple == FiveTuple(
        anonymizer.anonymize(key.src_ip), key.src_port,
        anonymizer.anonymize(key.dst_ip), key.dst_port, key.protocol,
    )
    assert packet.five_tuple == key  # the input is untouched


@settings(max_examples=30, deadline=None)
@given(
    ethertype=st.sampled_from([EtherType.ARP, EtherType.IPV6, 0x0000]),
    payload=st.binary(max_size=64),
    vlan_id=st.none() | st.integers(0, 4095),
)
def test_non_ip_frames_have_no_key(ethertype, payload, vlan_id):
    frame = Packet(eth=EthernetHeader(ethertype=ethertype), payload=payload, vlan_id=vlan_id)
    assert frame.five_tuple is None
    assert Packet.parse(frame.to_bytes()).five_tuple is None
    assert PrefixPreservingAnonymizer().anonymize_packet(frame).five_tuple is None
