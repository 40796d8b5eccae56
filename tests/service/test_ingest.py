"""How the daemon ingests a submitted pcap.

A submission is checked whole before its capture starts: a malformed
frame anywhere — the middle or the very last record — refuses the
request with ``bad_request`` before any packet reaches the pipeline, so
no subscriber sees an event of it and the store records nothing.  Its
packets are then built batch by batch, and when the capture ends the
owner lets go of the upload and its record table.
"""

from __future__ import annotations

import gc
import io
import struct
import weakref

import pytest

from repro.netstack.flows import FiveTuple
from repro.netstack.ip import IPProtocol
from repro.netstack.pcap import write_pcap
from repro.service import (
    MAX_FRAME_BYTES,
    DaemonConfig,
    RemoteCallError,
    ScapClient,
    ScapDaemon,
)
from repro.service import owner as owner_module
from repro.service.protocol import FrameTooLarge
from repro.traffic import PcapSource, campus_mix
from repro.traffic.tcpsession import (
    CLIENT_TO_SERVER,
    SERVER_TO_CLIENT,
    SessionMessage,
    TCPSessionBuilder,
)

RATE = 1e9
_ETH = 14
_IP = 20


def _trace():
    return campus_mix(flow_count=6, seed=3, max_flow_bytes=20_000)


def _pcap(records):
    """A classic little-endian µs pcap of ``(timestamp, frame)`` records."""
    out = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)]
    for timestamp, frame in records:
        seconds = int(timestamp)
        micros = int(round((timestamp - seconds) * 1e6))
        out.append(struct.pack("<IIII", seconds, micros, len(frame), len(frame)))
        out.append(frame)
    return b"".join(out)


def _ip_options(frame: bytes) -> bytes:
    return frame[:_ETH] + b"\x46" + frame[_ETH + 1 :]


def _truncated_tcp_header(frame: bytes) -> bytes:
    return frame[: _ETH + _IP + 10]


def _tcp_data_offset_16(frame: bytes) -> bytes:
    at = _ETH + _IP + 12
    return frame[:at] + bytes([4 << 4]) + frame[at + 1 :]


DEFECTS = {
    "ip_options": (_ip_options, "IPv4 options are not supported"),
    "truncated_tcp_header": (_truncated_tcp_header, "truncated TCP header"),
    "tcp_data_offset_16": (_tcp_data_offset_16, "invalid TCP data offset: 16"),
}


def _records(trace):
    return [(packet.timestamp, packet.to_bytes()) for packet in trace.packets]


def _malformed(records, position: str, defect: str) -> bytes:
    """``records`` with the frame at ``position`` replaced by a broken TCP frame."""
    tcp_frames = [
        frame for _, frame in records
        if len(frame) > _ETH + _IP + 20 and frame[_ETH + 9] == IPProtocol.TCP
    ]
    index = len(records) // 2 if position == "middle" else len(records) - 1
    broken = list(records)
    broken[index] = (records[index][0], DEFECTS[defect][0](tcp_frames[0]))
    return _pcap(broken)


def _store_counters(client):
    store = client.stats()["store"]
    return store["record_count"], store["stored_bytes"]


def _start_daemon(tmp_path, **config):
    daemon = ScapDaemon(DaemonConfig(**config))
    path = str(tmp_path / "scapd.sock")
    daemon.add_unix_listener(path)
    daemon.start()
    return daemon, path


def _drain(sub, timeout=2.0):
    events = []
    while True:
        frame = sub.next_event(timeout=timeout)
        if frame is None:
            return events
        events.append(frame)


def test_a_malformed_submission_is_refused_whole(tmp_path):
    daemon, path = _start_daemon(tmp_path, store_dir=str(tmp_path / "store"))
    client = ScapClient(unix_path=path, name="ingest")
    watcher = ScapClient(unix_path=path, name="watcher")
    sub = watcher.subscribe(events=["created", "data", "closed"])
    records = _records(_trace())
    try:
        before = _store_counters(client)
        for position in ("middle", "last"):
            for defect, (_, message) in DEFECTS.items():
                with pytest.raises(RemoteCallError) as err:
                    client.submit_trace(_malformed(records, position, defect), rate_bps=RATE)
                assert err.value.code == "bad_request", (position, defect)
                assert message in err.value.message, (position, defect)
                assert _store_counters(client) == before, (position, defect)
        assert sub.next_event(timeout=0.5) is None

        summary = client.submit_trace(_pcap(records), rate_bps=RATE, name="good")
        assert summary["offered_packets"] == len(records)
        assert summary["streams_created"] > 0
        assert _store_counters(client)[0] > before[0]
        events = _drain(sub)
        assert events and {e.header["capture"] for e in events} == {summary["capture"]}
        assert sum(1 for e in events if e.header["event"] == "created") == summary[
            "streams_created"
        ]
    finally:
        client.close()
        watcher.close()
        daemon.shutdown()
    assert daemon.ledgers_balanced()


def test_the_owner_lets_go_of_each_upload_and_record_table(tmp_path, monkeypatch):
    """The socket of a capture sits in a reference cycle, so with the
    collector off every source the owner built is still alive after 20
    submits (a weak reference tells which): each must have dropped its
    upload and its record table when its capture ended."""
    sources = []

    class Recorded(PcapSource):
        def __init__(self, data, name="pcap"):
            super().__init__(data, name)
            sources.append(weakref.ref(self))

    monkeypatch.setattr(owner_module, "PcapSource", Recorded)
    records = _records(_trace())
    pcap = _pcap(records)
    daemon, path = _start_daemon(tmp_path)
    client = ScapClient(unix_path=path, name="memory")
    collecting = gc.isenabled()
    gc.disable()
    try:
        for index in range(20):
            summary = client.submit_trace(pcap, rate_bps=RATE, name=f"run-{index}")
            assert summary["offered_packets"] == len(records)
        alive = [ref() for ref in sources if ref() is not None]
        assert len(sources) == 20
        assert alive, "no reference cycle keeps a source alive: the check proves nothing"
        for source in alive:
            assert len(source._data) == 0 and source._records == [] and len(source) == 0
    finally:
        if collecting:
            gc.enable()
        client.close()
        daemon.shutdown()


def test_a_pcap_larger_than_the_default_frame_needs_only_a_larger_max_frame_bytes(tmp_path):
    """One 17 MiB response in 60 kB segments: a default daemon's client
    refuses it before sending anything, and a daemon started with room
    for it captures it whole."""
    body = bytes(range(256)) * (17 * 4096 + 16)
    packets = TCPSessionBuilder(
        FiveTuple(0x0A000001, 40000, 0x0A000002, 80, IPProtocol.TCP), mss=60_000
    ).build([SessionMessage(CLIENT_TO_SERVER, b"GET /"), SessionMessage(SERVER_TO_CLIENT, body)])
    buffer = io.BytesIO()
    write_pcap(buffer, packets)
    pcap = buffer.getvalue()
    assert len(pcap) > MAX_FRAME_BYTES

    daemon, path = _start_daemon(tmp_path)
    client = ScapClient(unix_path=path, name="default")
    try:
        assert client.hello["max_frame_bytes"] == MAX_FRAME_BYTES
        with pytest.raises(FrameTooLarge):
            client.submit_trace(pcap, rate_bps=RATE)
        assert client.ping()["pong"] is True
    finally:
        client.close()
        daemon.shutdown()

    room = 2 * MAX_FRAME_BYTES
    daemon = ScapDaemon(DaemonConfig(max_frame_bytes=room))
    path = str(tmp_path / "roomy.sock")
    daemon.add_unix_listener(path)
    daemon.start()
    client = ScapClient(unix_path=path, name="roomy")
    try:
        assert client.hello["max_frame_bytes"] == room
        summary = client.submit_trace(pcap, rate_bps=RATE)
        assert summary["offered_packets"] == len(packets)
        assert summary["streams_created"] == 1
        assert summary["delivered_bytes"] == len(body) + len(b"GET /")
    finally:
        client.close()
        daemon.shutdown()
    assert daemon.ledgers_balanced()
