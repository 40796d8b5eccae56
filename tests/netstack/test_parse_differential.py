"""Differential ingest test: parsing at offsets == slicing, then parsing.

``Packet.parse`` and ``PcapReader`` walk one buffer at offsets.  The
oracle below is the composition they replaced — slice the frame, hand
each slice to the header's ``parse`` from byte 0, read a file with two
``read()`` calls per record — kept here so the accept/reject set and
every error message are pinned by a second, independent route through
the same checks.  :class:`PcapSource` (check the whole file, build
packets batch by batch) is pinned to ``Trace(read_pcap(...))`` the same
way.
"""

from __future__ import annotations

import io
import itertools
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netstack import pcap as pcap_module
from repro.netstack.ethernet import ETHERNET_HEADER_LEN, EthernetHeader, EtherType
from repro.netstack.ip import IPProtocol, IPv4Header
from repro.netstack.packet import Packet
from repro.netstack.pcap import PcapReader, read_pcap, write_pcap
from repro.netstack.tcp import TCPHeader
from repro.netstack.udp import UDP_HEADER_LEN, UDPHeader
from repro.traffic import PcapSource, Trace, campus_mix


# ----------------------------------------------------------------------
# The oracle: slice, then parse each slice from its first byte
# ----------------------------------------------------------------------
def oracle_parse(data: bytes, timestamp: float = 0.0, wire_len: int = 0) -> Packet:
    eth = EthernetHeader.parse(data)
    offset = ETHERNET_HEADER_LEN
    vlan_id = None
    ethertype = eth.ethertype
    if ethertype == EtherType.VLAN:
        if len(data) < offset + 4:
            raise ValueError("truncated 802.1Q tag")
        tci, ethertype = struct.unpack_from("!HH", data, offset)
        vlan_id = tci & 0x0FFF
        offset += 4
        eth = EthernetHeader(eth.dst_mac, eth.src_mac, ethertype)
    common = dict(timestamp=timestamp, wire_len=wire_len or len(data), vlan_id=vlan_id)
    if ethertype != EtherType.IPV4:
        return Packet(eth=eth, payload=bytes(data[offset:]), **common)
    ip = IPv4Header.parse(data[offset:])
    end = min(len(data), offset + ip.total_length)
    offset += ip.header_len
    tcp = udp = None
    if ip.fragment_offset == 0 and ip.protocol == IPProtocol.TCP:
        tcp, data_offset = TCPHeader.parse(data[offset:end])
        offset += data_offset
    elif ip.fragment_offset == 0 and ip.protocol == IPProtocol.UDP:
        udp = UDPHeader.parse(data[offset:end])
        offset += UDP_HEADER_LEN
    return Packet(eth=eth, ip=ip, tcp=tcp, udp=udp, payload=bytes(data[offset:end]), **common)


def oracle_read(data: bytes) -> "list[Packet]":
    """Two ``read()`` calls per record, as the reader used to do."""
    handle = io.BytesIO(data)
    magic = handle.read(24)[:4]
    endian = "<" if magic in (b"\xd4\xc3\xb2\xa1", b"\x4d\x3c\xb2\xa1") else ">"
    divisor = 1e9 if magic in (b"\x4d\x3c\xb2\xa1", b"\xa1\xb2\x3c\x4d") else 1e6
    packets = []
    while True:
        record = handle.read(16)
        if len(record) < 16:
            return packets
        seconds, fraction, caplen, wire_len = struct.unpack(endian + "IIII", record)
        frame = handle.read(caplen)
        if len(frame) < caplen:
            return packets
        packets.append(oracle_parse(frame, seconds + fraction / divisor, wire_len))


def outcome(parse, *args, **kwargs):
    """``("ok", packet)`` or ``("error", message)``; anything but a
    ValueError is a bug on either side and propagates."""
    try:
        return "ok", parse(*args, **kwargs)
    except ValueError as exc:
        return "error", str(exc)


def assert_owned_bytes(packet: Packet) -> None:
    """Nothing in a parsed packet aliases the input buffer."""
    assert type(packet.payload) is bytes
    assert type(packet.eth.dst_mac) is bytes and type(packet.eth.src_mac) is bytes
    if packet.tcp is not None:
        assert all(type(value) is bytes for _, value in packet.tcp.options)


# ----------------------------------------------------------------------
# Frames: every branch of the parser, well-formed and not
# ----------------------------------------------------------------------
_MACS = st.sampled_from([bytes(range(6)), b"\xaa" * 6, b"\x02\x00\x00\x00\x00\x01"])

#: TCP option areas: none, MSS, window scale, NOP padding, END (the
#: rest is ignored), a bad length (0, 1, past the data offset) and an
#: option kind in the area's last byte.
_TCP_OPTIONS = st.sampled_from([
    b"",
    b"\x02\x04\x05\xb4",
    b"\x03\x03\x07\x01",
    b"\x01\x01\x01\x01",
    b"\x02\x04\x05\xb4\x01\x03\x03\x07",
    b"\x02\x04\x05\xb4\x00\x09\x09\x09",
    b"\x02\x00\x05\xb4",
    b"\x02\x01\x05\xb4",
    b"\x02\x09\x05\xb4",
    b"\x01\x01\x01\x02",
    b"\x08\x0a" + bytes(8) + b"\x01\x01",
])


#: What can be wrong (or merely unusual) with a frame; a generated frame
#: has at most two of these, so most frames get past most checks.
_DEFECTS = (
    "version", "ihl", "more_fragments", "fragment_offset", "dont_fragment",
    "total_short", "total_below_header", "total_long", "padding",
    "tcp_offset_past_segment", "tcp_offset_below_minimum", "udp_length_below_header",
)
_u16 = st.integers(0, 65535)
_u32 = st.integers(0, 2**32 - 1)


def _tcp_segment(draw, defects):
    options = draw(_TCP_OPTIONS)
    words = 5 + len(options) // 4
    if "tcp_offset_past_segment" in defects:
        words = 15
    if "tcp_offset_below_minimum" in defects:
        words = draw(st.sampled_from([0, 4]))
    fixed = struct.pack("!HHIIBBHHH", draw(_u16), draw(_u16), draw(_u32), draw(_u32),
                        words << 4, draw(st.integers(0, 63)), draw(_u16), draw(_u16), 0)
    return fixed + options + draw(st.binary(max_size=24))


def _udp_datagram(draw, defects):
    payload = draw(st.binary(max_size=24))
    length = 8 + len(payload)
    if "udp_length_below_header" in defects:
        length = draw(st.sampled_from([0, 7]))
    return struct.pack("!HHHH", draw(_u16), draw(_u16), length, draw(_u16)) + payload


def _ipv4_packet(draw, defects):
    protocol = draw(st.sampled_from([IPProtocol.TCP] * 3 + [IPProtocol.UDP] * 2 + [1]))
    if protocol == IPProtocol.TCP:
        body = _tcp_segment(draw, defects)
    elif protocol == IPProtocol.UDP:
        body = _udp_datagram(draw, defects)
    else:
        body = draw(st.binary(max_size=24))
    version_ihl = 0x45
    if "version" in defects:
        version_ihl = draw(st.sampled_from([0x65, 0x05]))
    if "ihl" in defects:
        version_ihl = (version_ihl & 0xF0) | draw(st.sampled_from([4, 6]))
    # Later fragments carry no transport header; DF and MF alone change nothing.
    flags_frag = 0
    if "dont_fragment" in defects:
        flags_frag |= 0x4000
    if "more_fragments" in defects:
        flags_frag |= 0x2000
    if "fragment_offset" in defects:
        flags_frag |= draw(st.integers(1, 0x1FFF))
    total_length = 20 + len(body)
    if "total_short" in defects:  # Ethernet padding, or a lie: the capture is longer
        total_length -= draw(st.integers(1, min(30, total_length - 20))) if body else 0
    if "total_below_header" in defects:
        total_length = draw(st.sampled_from([0, 8, 19]))
    if "total_long" in defects:  # a snaplen cut: the capture is shorter
        total_length = draw(st.sampled_from([total_length + 40, 65535]))
    header = struct.pack("!BBHHHBBHII", version_ihl, draw(st.integers(0, 255)), total_length,
                         draw(_u16), flags_frag, draw(st.integers(0, 255)), protocol,
                         draw(_u16), draw(_u32), draw(_u32))
    return header + body + (bytes(6) if "padding" in defects else b"")


@st.composite
def frames(draw):
    defects = draw(st.sets(st.sampled_from(_DEFECTS), max_size=2))
    inner_type = draw(st.sampled_from(
        [EtherType.IPV4] * 7 + [EtherType.ARP, EtherType.IPV6, 0x0000]
    ))
    if inner_type == EtherType.IPV4:
        body = _ipv4_packet(draw, defects)
    else:
        body = draw(st.binary(max_size=40))
    macs = draw(_MACS) + draw(_MACS)
    if draw(st.integers(0, 3)) == 0:
        tag = struct.pack("!HH", draw(_u16), inner_type)
        return macs + struct.pack("!H", EtherType.VLAN) + tag + body
    return macs + struct.pack("!H", inner_type) + body


@settings(max_examples=120, deadline=None)
@given(frame=frames(), timestamp=st.floats(0, 1e6), wire_len=st.sampled_from([0, 60, 1514]))
def test_parse_equals_slice_and_parse_at_every_truncation(frame, timestamp, wire_len):
    for cut in range(len(frame) + 1):
        data = frame[:cut]
        expected = outcome(oracle_parse, data, timestamp, wire_len)
        for form in (bytes, bytearray, memoryview):
            got = outcome(Packet.parse, form(data), timestamp, wire_len)
            assert got == expected, (form.__name__, cut, frame.hex())
            if got[0] == "ok":
                assert_owned_bytes(got[1])


@settings(max_examples=120, deadline=None)
@given(frame=frames(), before=st.binary(max_size=9), after=st.binary(max_size=9))
def test_parse_at_an_offset_sees_only_its_window(frame, before, after):
    """``offset``/``end`` bound the frame inside a larger buffer: the
    bytes around it change neither the packet nor the error."""
    buffer = before + frame + after
    expected = outcome(oracle_parse, frame)
    for form in (bytes, bytearray, memoryview):
        got = outcome(
            Packet.parse, form(buffer), offset=len(before), end=len(before) + len(frame)
        )
        assert got == expected, (form.__name__, frame.hex())


def _ip(total_length=40, version_ihl=0x45, flags_frag=0, protocol=IPProtocol.TCP):
    return struct.pack("!BBHHHBBHII", version_ihl, 0, total_length, 1, flags_frag, 64,
                       protocol, 0, 0x0A000001, 0x0A000002)


def _tcp(words=5, options=b""):
    return struct.pack("!HHIIBBHHH", 1, 2, 3, 4, words << 4, 0x10, 100, 0, 0) + options


_ETH = bytes(12) + b"\x08\x00"
_VLAN = bytes(12) + b"\x81\x00"

#: Every way a frame is refused, with the words it is refused in.
REJECTED = [
    (_ETH[:13], "truncated Ethernet header"),
    (_VLAN + b"\x00\x05\x08", "truncated 802.1Q tag"),
    (_ETH + _ip()[:19], "truncated IPv4 header"),
    (_VLAN + b"\x00\x05\x08\x00" + _ip()[:19], "truncated IPv4 header"),
    (_ETH + _ip(version_ihl=0x65), "not an IPv4 packet (version=6)"),
    (_ETH + _ip(version_ihl=0x46), "IPv4 options are not supported"),
    (_ETH + _ip() + _tcp()[:19], "truncated TCP header"),
    (_ETH + _ip(total_length=39) + _tcp(), "truncated TCP header"),
    (_ETH + _ip(total_length=8) + _tcp(), "truncated TCP header"),
    (_ETH + _ip() + _tcp(words=4), "invalid TCP data offset: 16"),
    (_ETH + _ip() + _tcp(words=6), "invalid TCP data offset: 24"),
    (_ETH + _ip(43) + _tcp(6, b"\x02\x04\x05\xb4") + b"pad", "invalid TCP data offset: 24"),
    (_ETH + _ip(44) + _tcp(6, b"\x02\x00\x05\xb4"), "invalid TCP option length: 0"),
    (_ETH + _ip(44) + _tcp(6, b"\x02\x09\x05\xb4"), "invalid TCP option length: 9"),
    (_ETH + _ip(44) + _tcp(6, b"\x01\x01\x01\x02"), "truncated TCP option"),
    (_ETH + _ip(27, protocol=IPProtocol.UDP) + bytes(7), "truncated UDP header"),
    (_ETH + _ip(28, protocol=IPProtocol.UDP) + b"\x00\x01\x00\x02\x00\x07\x00\x00",
     "invalid UDP length: 7"),
]


@pytest.mark.parametrize("frame,message", REJECTED, ids=[message for _, message in REJECTED])
def test_every_refusal_keeps_its_message(frame, message):
    assert outcome(oracle_parse, frame) == ("error", message)
    for form in (bytes, bytearray, memoryview):
        assert outcome(Packet.parse, form(frame)) == ("error", message)


def test_total_length_shorter_than_the_capture_drops_the_padding():
    frame = _ETH + _ip(44) + _tcp() + b"data" + bytes(6)
    packet = Packet.parse(frame)
    assert packet.payload == b"data" and packet == oracle_parse(frame)


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
_FORMATS = [("<", 0xA1B2C3D4, 1e6), ("<", 0xA1B23C4D, 1e9), (">", 0xA1B2C3D4, 1e6),
            (">", 0xA1B23C4D, 1e9)]


def _file(frames_, endian="<", magic=0xA1B2C3D4):
    out = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)]
    for index, frame in enumerate(frames_):
        out.append(struct.pack(endian + "IIII", 10 + index, 250_000, len(frame), len(frame) + 4))
        out.append(frame)
    return b"".join(out)


def _some_frames():
    trace = campus_mix(flow_count=3, seed=5, max_flow_bytes=4_000)
    wire = [packet.to_bytes() for packet in trace.packets[:12]]
    return wire + [bytes(12) + b"\x08\x06" + b"arp", _VLAN + b"\x00\x07\x08\x00" + _ip(20, protocol=1)]


@pytest.mark.parametrize("endian,magic,divisor", _FORMATS)
def test_all_four_magics(endian, magic, divisor):
    data = _file(_some_frames(), endian, magic)
    packets = read_pcap(io.BytesIO(data))
    assert packets == oracle_read(data)
    assert len(packets) == 14
    assert packets[3].timestamp == 13 + 250_000 / divisor
    assert packets[3].wire_len == len(_some_frames()[3]) + 4


def test_a_file_cut_anywhere_yields_the_same_prefix():
    wire = _some_frames()[:4]
    data = _file(wire)
    whole = oracle_read(data)
    boundaries = [24]
    for frame in wire:
        boundaries.append(boundaries[-1] + 16 + len(frame))
    for cut in range(24, len(data) + 1):  # mid record header and mid frame alike
        complete = sum(1 for boundary in boundaries[1:] if boundary <= cut)
        assert read_pcap(io.BytesIO(data[:cut])) == whole[:complete], cut


@pytest.mark.parametrize("block", [1, 7, 16, 17, 61, 256])
def test_records_straddling_a_read_block(block, monkeypatch):
    """Shrunk blocks put record headers and frames across every boundary."""
    monkeypatch.setattr(pcap_module, "READ_BLOCK", block)
    data = _file(_some_frames())
    assert read_pcap(io.BytesIO(data)) == oracle_read(data)
    assert read_pcap(io.BytesIO(data[:-3])) == oracle_read(data[:-3])


def test_a_bad_frame_raises_from_the_reader_as_before():
    data = _file([_some_frames()[0], _ETH + _ip(version_ihl=0x65)])
    reader = iter(PcapReader(io.BytesIO(data)))
    assert next(reader) == oracle_read(data[: 24 + 16 + len(_some_frames()[0])])[0]
    with pytest.raises(ValueError, match="not an IPv4 packet"):
        next(reader)


@pytest.mark.parametrize("block", [7, 61, 1 << 18])
def test_an_iteration_left_early_resumes_at_the_next_record(block, monkeypatch):
    """The read-ahead is the reader's, not one ``iter()`` call's."""
    monkeypatch.setattr(pcap_module, "READ_BLOCK", block)
    bad = _ETH + _ip(version_ihl=0x65)
    data = _file(_some_frames())
    whole = oracle_read(data)
    reader = PcapReader(io.BytesIO(data))
    first = next(iter(reader))
    some = list(itertools.islice(reader, 5))
    assert [first] + some + list(reader) == whole
    assert list(reader) == []
    # A frame that does not parse is consumed: the walk goes on behind it.
    reader = PcapReader(io.BytesIO(_file([bad] + _some_frames())))
    with pytest.raises(ValueError, match="not an IPv4 packet"):
        next(iter(reader))
    assert [(p.ip, p.payload) for p in reader] == [(p.ip, p.payload) for p in whole]


def test_generated_campus_trace_round_trips_to_the_oracle(tmp_path):
    trace = campus_mix(flow_count=40, seed=11, max_flow_bytes=60_000)
    path = tmp_path / "campus.pcap"
    assert write_pcap(str(path), trace.packets) == len(trace.packets)
    expected = oracle_read(path.read_bytes())
    assert read_pcap(str(path)) == expected  # a path: block-wise from the file
    assert read_pcap(io.BytesIO(path.read_bytes())) == expected
    assert len(expected) == len(trace.packets)
    assert [p.payload for p in expected] == [p.payload for p in trace.packets]


# ----------------------------------------------------------------------
# The source: checked whole, built batch by batch == Trace(read_pcap())
# ----------------------------------------------------------------------
def _pool():
    """Well-formed frames of every kind the parser tells apart."""
    udp = _ip(28, protocol=IPProtocol.UDP) + b"\x00\x35\x00\x35\x00\x08\x00\x00"
    return _some_frames() + [
        _ETH + _ip(48) + _tcp(6, b"\x02\x04\x05\xb4") + b"data",  # TCP options
        _ETH + udp,
        _VLAN + b"\x00\x09\x08\x00" + udp,
        _ETH + _ip(40, flags_frag=0x2000) + _tcp(),  # first fragment
        _ETH + _ip(28, flags_frag=0x0003) + bytes(8),  # later fragment: no transport
    ]


_POOL = _pool()


@st.composite
def pcap_files(draw):
    """A pcap of well-formed and generated frames in one of the four
    formats, with equal and out-of-order timestamps and, sometimes, a
    last record cut short."""
    endian, magic, _ = draw(st.sampled_from(_FORMATS))
    fraction_limit = 10**9 - 1 if magic == 0xA1B23C4D else 999_999
    # Two of three frames come from the well-formed pool, so most files
    # get past the checks; the generated ones carry the defects.
    frame_list = draw(st.lists(
        st.one_of(st.sampled_from(_POOL), st.sampled_from(_POOL), frames()), max_size=12
    ))
    out = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)]
    for frame in frame_list:
        seconds = draw(st.integers(0, 3))
        fraction = draw(st.sampled_from([0, 1, fraction_limit // 2, fraction_limit]))
        wire_len = draw(st.sampled_from([0, len(frame), len(frame) + 4]))
        out.append(struct.pack(endian + "IIII", seconds, fraction, len(frame), wire_len))
        out.append(frame)
    data = b"".join(out)
    if frame_list and draw(st.booleans()):
        data = data[: -draw(st.integers(1, 16 + len(frame_list[-1])))]
    return data


def _replayed(batches):
    """Every packet with the key and time it had when its batch came out."""
    return [
        [(packet, packet.five_tuple, packet.timestamp) for packet in batch]
        for batch in batches
    ]


@settings(max_examples=150, deadline=None)
@given(data=pcap_files())
def test_source_batches_equal_the_trace_of_read_pcap(data):
    expected = outcome(lambda: Trace(read_pcap(io.BytesIO(data))))
    for form in (bytes, bytearray):
        got = outcome(PcapSource, form(data))
        assert got[0] == expected[0], (form.__name__, got, expected)
        if got[0] == "error":
            assert got == expected
            continue
        trace, source = expected[1], got[1]
        assert len(source) == len(trace)
        assert source.total_wire_bytes == trace.total_wire_bytes
        assert source.native_rate_bps == trace.native_rate_bps
        assert source.duration == trace.duration
        for rate in (1e9, 3.7e6):
            for size in (1, 7, 64):
                assert _replayed(source.replay_batches(rate, size)) == _replayed(
                    trace.replay_batches(rate, size)
                ), (form.__name__, rate, size)
            assert _replayed([list(source.replay(rate))]) == _replayed([list(trace.replay(rate))])
        for batch in source.replay_batches(1e9, 7):
            for packet in batch:
                assert_owned_bytes(packet)
        source.close()
        assert list(source.replay_batches(1e9, 7)) == []


@pytest.mark.parametrize("data,message", [
    (_file([])[:23], "truncated pcap global header"),
    (b"\x00" * 24, "not a pcap file (magic 0x00000000)"),
    (struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101), "unsupported linktype: 101"),
])
def test_source_refuses_a_file_header_as_the_reader_does(data, message):
    assert outcome(lambda: read_pcap(io.BytesIO(data))) == ("error", message)
    assert outcome(PcapSource, data) == ("error", message)


def test_a_bad_frame_anywhere_refuses_the_source_before_any_packet():
    bad = _ETH + _ip(version_ihl=0x46)
    for frame_list in ([bad] + _POOL, _POOL + [bad], _POOL[:4] + [bad] + _POOL[4:]):
        assert outcome(PcapSource, _file(frame_list)) == (
            "error", "IPv4 options are not supported"
        )


def test_source_rejects_bad_rates_and_sizes_as_the_trace_does():
    data = _file(_POOL)
    trace, source = Trace(read_pcap(io.BytesIO(data))), PcapSource(data)
    for args in ((0.0, 7), (1e9, 0), (-1.0, 0)):
        assert outcome(lambda: next(source.replay_batches(*args))) == outcome(
            lambda: next(trace.replay_batches(*args))
        )
    assert outcome(lambda: next(source.replay(0.0))) == outcome(lambda: next(trace.replay(0.0)))
