"""A flow-level match answers "can a frame of this flow match?".

``matches_five_tuple`` must never refuse a flow one of whose frames
``matches`` accepts, whatever the expression — negated per-frame tests
(``less``, ``greater``, ``vlan``) included — and, where the expression
tests nothing per frame, the two must agree exactly.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters import BPFFilter
from repro.netstack import ip_to_int, make_tcp_packet, make_udp_packet

_ADDRESSES = ("10.1.2.3", "10.9.9.9", "192.168.1.7", "8.8.8.8")
_PORTS = (53, 80, 443, 5555)

_FLOW_PRIMITIVES = st.one_of(
    st.sampled_from(("tcp", "udp", "icmp", "ip", "net 10.0.0.0/8", "dst net 192.168.0.0/16")),
    st.builds(
        "{} host {}".format,
        st.sampled_from(("", "src", "dst")), st.sampled_from(_ADDRESSES),
    ),
    st.builds(
        "{} {} port {}".format,
        st.sampled_from(("", "tcp", "udp")), st.sampled_from(("", "src", "dst")),
        st.sampled_from(_PORTS),
    ),
    st.sampled_from(("portrange 50-90", "src portrange 400-6000")),
)
_FRAME_PRIMITIVES = st.one_of(
    st.builds("less {}".format, st.integers(60, 3000)),
    st.builds("greater {}".format, st.integers(60, 3000)),
    st.sampled_from(("vlan", "vlan 7", "vlan 100")),
)


def _expressions(primitives):
    return st.recursive(
        primitives,
        lambda parts: st.one_of(
            st.builds("({}) and ({})".format, parts, parts),
            st.builds("({}) or ({})".format, parts, parts),
            st.builds("not ({})".format, parts),
        ),
        max_leaves=6,
    )


_PACKETS = st.builds(
    lambda make, src, sport, dst, dport, wire_len, vlan: replace(
        make(ip_to_int(src), sport, ip_to_int(dst), dport), wire_len=wire_len, vlan_id=vlan
    ),
    st.sampled_from((make_tcp_packet, make_udp_packet)),
    st.sampled_from(_ADDRESSES), st.sampled_from(_PORTS),
    st.sampled_from(_ADDRESSES), st.sampled_from(_PORTS),
    st.integers(60, 3000),
    st.sampled_from((None, 7, 100)),
)


@settings(max_examples=400, deadline=None)
@given(expression=_expressions(st.one_of(_FLOW_PRIMITIVES, _FRAME_PRIMITIVES)), packet=_PACKETS)
def test_a_matching_frame_implies_its_flow_matches(expression, packet):
    bpf = BPFFilter(expression)
    if bpf.matches(packet):
        assert bpf.matches_five_tuple(packet.five_tuple)


@settings(max_examples=400, deadline=None)
@given(expression=_expressions(_FLOW_PRIMITIVES), packet=_PACKETS)
def test_without_per_frame_tests_frame_and_flow_agree(expression, packet):
    bpf = BPFFilter(expression)
    assert bpf.matches(packet) == bpf.matches_five_tuple(packet.five_tuple)


@pytest.mark.parametrize(
    "expression",
    ["not vlan", "not less 100", "tcp and not vlan", "not (greater 2000)", "not (vlan and tcp)"],
)
def test_negated_per_frame_tests_do_not_refuse_the_flow(expression):
    packet = make_tcp_packet(ip_to_int("10.1.2.3"), 5555, ip_to_int("192.168.1.7"), 80,
                             payload=b"x" * 500)
    assert packet.wire_len == 554 and packet.vlan_id is None
    bpf = BPFFilter(expression)
    assert bpf.matches(packet)
    assert bpf.matches_five_tuple(packet.five_tuple)


def test_a_decided_flow_test_outweighs_an_undecided_frame_test():
    tcp_flow = make_tcp_packet(1, 2, 3, 80).five_tuple
    assert not BPFFilter("udp and not vlan").matches_five_tuple(tcp_flow)
    assert BPFFilter("udp or not vlan").matches_five_tuple(tcp_flow)
    assert BPFFilter("tcp or vlan").matches_five_tuple(tcp_flow)
