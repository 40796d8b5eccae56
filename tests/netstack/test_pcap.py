"""Tests for pcap file reading and writing."""

import io
import struct

import pytest

from repro.netstack import make_tcp_packet, make_udp_packet, read_pcap, write_pcap
from repro.netstack.pcap import PcapReader


def _sample_packets():
    return [
        make_tcp_packet(1, 10, 2, 20, seq=5, payload=b"alpha", timestamp=0.5),
        make_udp_packet(3, 30, 4, 40, payload=b"beta", timestamp=1.25),
        make_tcp_packet(5, 50, 6, 60, payload=b"", timestamp=2.000001),
    ]


def _assert_round_trip(packets, loaded):
    assert len(loaded) == len(packets)
    for original, restored in zip(packets, loaded):
        assert restored.payload == original.payload
        assert restored.five_tuple == original.five_tuple
        assert abs(restored.timestamp - original.timestamp) < 1e-5


def test_write_read_round_trip(tmp_path):
    path = str(tmp_path / "sample.pcap")
    packets = _sample_packets()
    assert write_pcap(path, packets) == 3
    _assert_round_trip(packets, read_pcap(path))


def test_round_trip_through_an_open_file(tmp_path):
    """An open binary file works like a path and stays the caller's."""
    packets = _sample_packets()
    buffer = io.BytesIO()
    assert write_pcap(buffer, packets) == 3
    assert not buffer.closed
    path = tmp_path / "same.pcap"
    write_pcap(str(path), packets)
    assert buffer.getvalue() == path.read_bytes()
    buffer.seek(0)
    _assert_round_trip(packets, read_pcap(buffer))
    assert not buffer.closed


def test_snaplen_truncates(tmp_path):
    path = str(tmp_path / "snap.pcap")
    packet = make_tcp_packet(1, 2, 3, 4, payload=b"z" * 500)
    write_pcap(path, [packet], snaplen=96)
    with PcapReader(path) as reader:
        assert reader.snaplen == 96
        loaded = list(reader)
    assert loaded[0].wire_len == packet.wire_len  # original length preserved
    assert len(loaded[0].payload) < 500  # but data truncated


def test_reject_garbage_magic(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(b"\x00" * 24)
    with pytest.raises(ValueError):
        PcapReader(str(path))


def test_reject_truncated_header(tmp_path):
    path = tmp_path / "short.pcap"
    path.write_bytes(b"\xd4\xc3\xb2\xa1")
    with pytest.raises(ValueError):
        PcapReader(str(path))


def test_reject_unsupported_linktype(tmp_path):
    path = tmp_path / "linktype.pcap"
    header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)  # RAW
    path.write_bytes(header)
    with pytest.raises(ValueError):
        PcapReader(str(path))


def test_truncated_record_stops_cleanly(tmp_path):
    path = str(tmp_path / "cut.pcap")
    write_pcap(path, _sample_packets())
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-7])  # cut into the last record
    assert len(read_pcap(path)) == 2


def test_big_endian_read(tmp_path):
    """Files written by opposite-endian hosts still parse."""
    packet = make_tcp_packet(1, 2, 3, 4, payload=b"be")
    frame = packet.to_bytes()
    path = tmp_path / "be.pcap"
    with open(path, "wb") as handle:
        handle.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        handle.write(struct.pack(">IIII", 10, 500000, len(frame), len(frame)))
        handle.write(frame)
    loaded = read_pcap(str(path))
    assert loaded[0].payload == b"be"
    assert abs(loaded[0].timestamp - 10.5) < 1e-6


def test_nanosecond_read(tmp_path):
    packet = make_tcp_packet(1, 2, 3, 4, payload=b"ns")
    frame = packet.to_bytes()
    path = tmp_path / "ns.pcap"
    with open(path, "wb") as handle:
        handle.write(struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1))
        handle.write(struct.pack("<IIII", 1, 250_000_000, len(frame), len(frame)))
        handle.write(frame)
    loaded = read_pcap(str(path))
    assert abs(loaded[0].timestamp - 1.25) < 1e-9


def test_microsecond_rollover(tmp_path):
    """A timestamp rounding to 1_000_000 us must carry into seconds."""
    path = str(tmp_path / "round.pcap")
    packet = make_tcp_packet(1, 2, 3, 4, payload=b"r")
    packet.timestamp = 1.9999999
    write_pcap(path, [packet])
    loaded = read_pcap(path)
    assert abs(loaded[0].timestamp - 2.0) < 1e-5
