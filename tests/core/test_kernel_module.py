"""Functional tests of the Scap kernel module.

Feed hand-crafted packet sequences straight into the module (no
queueing model) and verify flow tracking, reassembly integration,
events, cutoffs, FDIR management, and statistics estimation.
"""

import pytest

from repro.core import (
    SCAP_TCP_FAST,
    SCAP_TCP_STRICT,
    DataReason,
    EventType,
    ScapConfig,
    ScapKernelModule,
    ScapRuntime,
    StreamError,
    StreamStatus,
)
from repro.core.reassembly import TCPDirectionReassembler
from repro.kernelsim import DEFAULT_COST_MODEL
from repro.netstack import (
    FiveTuple,
    IPProtocol,
    TCPFlags,
    fragment_packet,
    make_tcp_packet,
    make_udp_packet,
)
from repro.nic import SimulatedNIC
from repro.sanitizers import SANITIZE_ENV
from repro.traffic import SessionMessage, TCPSessionBuilder, Trace
from tests.kernel_driver import feed_kernel


class Harness:
    """A kernel module wired to an event recorder."""

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("memory_size", 1 << 22)
        self.config = ScapConfig(**config_kwargs)
        self.nic = SimulatedNIC(queue_count=2)
        self.events = []
        self.kernel = ScapKernelModule(
            self.config, self.nic, DEFAULT_COST_MODEL,
            emit_event=lambda item: self.events.append(item[1]),
        )

    def feed(self, packets):
        for packet in packets:
            queue = self.nic.classify(packet)
            if queue is None:
                continue
            feed_kernel(self.kernel, packet, queue)

    def feed_session(self, payload=b"", five_tuple=None, **builder_kwargs):
        five_tuple = five_tuple or FiveTuple(1, 1000, 2, 80, IPProtocol.TCP)
        builder = TCPSessionBuilder(five_tuple, **builder_kwargs)
        packets = builder.build([SessionMessage(1, payload)] if payload else [])
        self.feed(packets)
        return five_tuple

    def data_bytes(self):
        return b"".join(
            e.chunk.data for e in self.events if e.event_type == EventType.STREAM_DATA
        )

    def by_type(self, event_type):
        return [e for e in self.events if e.event_type == event_type]


class TestLifecycle:
    def test_session_produces_events(self):
        h = Harness()
        h.feed_session(payload=b"response-bytes")
        assert len(h.by_type(EventType.STREAM_CREATED)) == 1
        assert len(h.by_type(EventType.STREAM_TERMINATED)) == 2
        assert h.data_bytes() == b"response-bytes"
        data_events = h.by_type(EventType.STREAM_DATA)
        assert data_events[-1].reason == DataReason.TERMINATION
        assert data_events[0].stream.status == StreamStatus.CLOSED

    def test_rst_closes_with_reset_status(self):
        h = Harness()
        h.feed_session(payload=b"x", reset_instead_of_fin=True)
        terminated = h.by_type(EventType.STREAM_TERMINATED)
        assert terminated and all(
            e.stream.status == StreamStatus.RESET for e in terminated
        )

    def test_chunking_by_size(self):
        h = Harness(chunk_size=64)
        h.feed_session(payload=b"z" * 200)
        data_events = h.by_type(EventType.STREAM_DATA)
        assert [e.chunk.length for e in data_events] == [64, 64, 64, 8]
        assert [e.reason for e in data_events] == [
            DataReason.CHUNK_FULL, DataReason.CHUNK_FULL,
            DataReason.CHUNK_FULL, DataReason.TERMINATION,
        ]

    def test_inactivity_timeout_terminates(self):
        h = Harness(inactivity_timeout=5.0)
        ft = FiveTuple(9, 900, 8, 80, IPProtocol.TCP)
        h.feed([make_tcp_packet(*ft[:4], flags=TCPFlags.SYN, timestamp=0.0)])
        # A packet from an unrelated flow far in the future drives time.
        h.feed([make_tcp_packet(7, 7, 7, 80, flags=TCPFlags.SYN, timestamp=60.0)])
        terminated = h.by_type(EventType.STREAM_TERMINATED)
        assert terminated
        assert terminated[0].stream.status == StreamStatus.TIMED_OUT

    def test_stats_track_bytes_and_packets(self):
        h = Harness()
        h.feed_session(payload=b"q" * 500)
        stream = h.by_type(EventType.STREAM_TERMINATED)[0].stream
        server_side = stream if stream.direction == 1 else stream.opposite
        assert server_side.stats.captured_bytes == 500
        assert server_side.stats.pkts > 0
        assert server_side.stats.end >= server_side.stats.start


    def test_termination_frees_direction_state_by_reference_count(self):
        """Pair and records reference each other; ``_terminate`` unlinks
        them so reassembly buffers do not wait for the cycle collector."""
        import gc
        import weakref

        h = Harness()
        ft = FiveTuple(9, 901, 8, 80, IPProtocol.TCP)
        gc.disable()
        try:
            h.feed([
                make_tcp_packet(*ft[:4], seq=0, flags=TCPFlags.SYN),
                make_tcp_packet(*ft[:4], seq=1, payload=b"data", timestamp=1e-3),
            ])
            reassembler = weakref.ref(h.kernel.flows.lookup(ft).reassembler)
            assert reassembler() is not None
            h.feed([make_tcp_packet(*ft[:4], seq=5, flags=TCPFlags.RST, timestamp=2e-3)])
            assert h.kernel.flows.lookup(ft) is None
            assert reassembler() is None
        finally:
            gc.enable()


class TestReassemblyIntegration:
    def test_fragmented_session_reassembles(self):
        h = Harness()
        ft = FiveTuple(3, 300, 4, 80, IPProtocol.TCP)
        builder = TCPSessionBuilder(ft)
        packets = builder.build([SessionMessage(1, b"F" * 900)])
        wire = []
        for packet in packets:
            if packet.payload:
                wire.extend(fragment_packet(packet, 256))
            else:
                wire.append(packet)
        h.feed(wire)
        assert h.data_bytes() == b"F" * 900
        assert h.kernel.counters.fragment_packets > 0

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_fragmented_session_through_the_runtime(self, batch_size):
        """Fragments through NIC + runtime: the reassembled datagram, not
        its first fragment (ports 0), names the flow, so the session
        delivers exactly what the unfragmented one does."""
        ft = FiveTuple(3, 300, 4, 80, IPProtocol.TCP)
        whole = TCPSessionBuilder(ft).build([
            SessionMessage(0, b"Q" * 700), SessionMessage(1, b"F" * 900),
        ])
        fragmented = [
            piece
            for packet in whole
            for piece in (fragment_packet(packet, 256) if packet.payload else [packet])
        ]
        assert len(fragmented) > len(whole)
        # Both traces take their native timeline before either replays.
        traces = Trace(whole), Trace(fragmented)

        def run(trace):
            runtime = ScapRuntime(
                ScapConfig(memory_size=1 << 22), core_count=2, batch_size=batch_size
            )
            delivered = []
            runtime.callbacks.on_data = lambda sd: delivered.append(
                (sd.five_tuple, bytes(sd.data))
            )
            runtime.run(trace, 1e9)
            return delivered, runtime.kernel.flows.created_total, runtime.kernel.counters

        expected, streams, _ = run(traces[0])
        delivered, fragmented_streams, counters = run(traces[1])
        assert delivered == expected
        assert fragmented_streams == streams == 1
        assert b"".join(data for key, data in delivered if key == ft) == b"Q" * 700
        assert counters.fragment_packets == sum(1 for p in fragmented if p.ip.is_fragment)

    @pytest.mark.parametrize("resend_first", [False, True])
    def test_late_syn_does_not_reanchor_a_delivering_direction(self, monkeypatch, resend_first):
        """SYN, 64 B, the same SYN again (duplicated or reordered behind
        the data), then the next 64 B: the SYN must not move the stream
        back to offset 0, so the app gets the 128 B once, in order —
        also when the first 64 B are retransmitted after the late SYN."""
        monkeypatch.setenv(SANITIZE_ENV, "1")
        client = (0x0A000001, 40000, 0x0A000002, 80)
        first, second = bytes(range(64)), bytes(range(64, 128))
        data = TCPFlags.ACK | TCPFlags.PSH
        packets = [
            make_tcp_packet(*client, seq=100, flags=TCPFlags.SYN, timestamp=0.000),
            make_tcp_packet(*client, seq=101, flags=data, payload=first, timestamp=0.001),
            make_tcp_packet(*client, seq=100, flags=TCPFlags.SYN, timestamp=0.002),
        ]
        if resend_first:
            packets.append(
                make_tcp_packet(*client, seq=101, flags=data, payload=first, timestamp=0.0025)
            )
        packets.append(
            make_tcp_packet(*client, seq=165, flags=data, payload=second, timestamp=0.003)
        )
        runtime = ScapRuntime(ScapConfig(memory_size=1 << 22), core_count=1)
        assert runtime.sanitizers is not None
        delivered = []
        runtime.callbacks.on_data = lambda sd: delivered.append(bytes(sd.data))
        reassembler = []
        on_segment = TCPDirectionReassembler.on_segment

        def watch(self, seq, payload, now=0.0):
            reassembler.append(self)
            return on_segment(self, seq, payload, now)

        monkeypatch.setattr(TCPDirectionReassembler, "on_segment", watch)
        runtime.run(Trace(packets), 1e9)
        assert b"".join(delivered) == first + second
        # Delivered in order as it arrived: nothing waited in the
        # out-of-order buffer, no hole was skipped.
        counters = reassembler[-1].counters
        assert (counters.out_of_order_segments, counters.holes_skipped) == (0, 0)
        assert counters.delivered_bytes == 128

    def test_strict_discards_non_established_data(self):
        h = Harness(reassembly_mode=SCAP_TCP_STRICT)
        # Data with no prior handshake.
        h.feed([make_tcp_packet(5, 500, 6, 80, seq=100, payload=b"orphan")])
        assert h.data_bytes() == b""
        assert h.kernel.counters.discarded_non_established == 1

    def test_fast_accepts_midstream_with_error_flag(self):
        h = Harness(reassembly_mode=SCAP_TCP_FAST)
        h.feed([make_tcp_packet(5, 500, 6, 80, seq=100, payload=b"orphan")])
        assert h.data_bytes() == b""  # pending in the chunk
        pair = h.kernel.flows.get(FiveTuple(5, 500, 6, 80, IPProtocol.TCP))
        stream = pair.descriptor(0)
        assert stream.has_error(StreamError.INCOMPLETE_HANDSHAKE)

    def test_udp_concatenation(self):
        h = Harness(chunk_size=8)
        ft = FiveTuple(10, 1000, 11, 53, IPProtocol.UDP)
        h.feed([
            make_udp_packet(*ft[:4], payload=b"aaaa", timestamp=0.0),
            make_udp_packet(*ft[:4], payload=b"bbbb", timestamp=0.1),
        ])
        data_events = h.by_type(EventType.STREAM_DATA)
        assert data_events and data_events[0].chunk.data == b"aaaabbbb"


class TestCutoffAndFdir:
    def test_cutoff_truncates_and_flags(self):
        h = Harness(use_fdir=False)
        h.config.cutoffs.set_default(100)
        h.feed_session(payload=b"C" * 1000)
        assert len(h.data_bytes()) == 100
        cut_events = [
            e for e in h.by_type(EventType.STREAM_DATA) if e.reason == DataReason.CUTOFF
        ]
        assert cut_events and cut_events[0].stream.cutoff_exceeded
        assert h.kernel.counters.discarded_cutoff_bytes > 0

    def test_fdir_filters_installed_on_cutoff(self):
        h = Harness(use_fdir=True)
        h.config.cutoffs.set_default(100)
        h.feed_session(payload=b"D" * 100_000)
        # Two ACK-flavour drop filters for the data direction.
        assert h.kernel.counters.fdir_installs >= 2
        # The NIC actually dropped most data packets in "hardware".
        assert h.nic.stats.dropped_at_nic > 10

    def test_fdir_filters_removed_on_termination(self):
        h = Harness(use_fdir=True)
        h.config.cutoffs.set_default(10)
        ft = h.feed_session(payload=b"E" * 5000)
        assert h.kernel.counters.fdir_removals >= 1
        assert not h.nic.fdir.filters_for_stream(ft)

    def test_zero_cutoff_installs_at_establishment(self):
        h = Harness(use_fdir=True)
        h.config.cutoffs.set_default(0)
        h.feed_session(payload=b"G" * 10_000)
        # No data should ever be stored.
        assert h.kernel.counters.stored_bytes == 0
        assert h.data_bytes() == b""
        assert h.nic.stats.dropped_at_nic > 0

    def test_flow_size_estimated_from_fin_seq(self):
        """Even with data dropped at the NIC, FIN sequence numbers
        recover the stream's byte count (§5.5)."""
        h = Harness(use_fdir=True)
        h.config.cutoffs.set_default(0)
        payload_len = 20_000
        h.feed_session(payload=b"H" * payload_len)
        stream = next(
            e.stream for e in h.by_type(EventType.STREAM_TERMINATED)
            if e.stream.direction == 1
        )
        assert stream.stats.bytes == payload_len

    def test_filter_timeout_reinstall_doubles(self):
        h = Harness(use_fdir=True, fdir_initial_timeout=0.001)
        h.config.cutoffs.set_default(10)
        ft = FiveTuple(21, 2100, 22, 80, IPProtocol.TCP)
        builder = TCPSessionBuilder(ft, packet_gap=0.05)  # slow flow
        packets = builder.build([SessionMessage(1, b"I" * 50_000)])
        h.feed(packets)
        # After several timeout+reinstall rounds the interval grew.
        assert h.kernel.counters.fdir_removals > 0
        assert h.kernel.counters.fdir_installs > 2


class TestBPFFiltering:
    def test_kernel_filter_discards_early(self):
        from repro.filters import BPFFilter

        h = Harness()
        h.config.bpf = BPFFilter("port 443")
        h.feed_session(payload=b"web")  # port 80: filtered out
        assert h.kernel.counters.filtered_out > 0
        assert h.data_bytes() == b""
        assert len(h.kernel.flows) == 0


class TestOtherProtocols:
    def test_icmp_delivered_per_packet(self):
        """Non-TCP/UDP IP protocols: each packet is its own delivery."""
        from repro.netstack import EthernetHeader, IPv4Header, Packet
        from repro.netstack.ip import IPProtocol

        h = Harness()
        packets = []
        for i in range(3):
            payload = bytes([i]) * 32
            ip = IPv4Header(
                src_ip=0x0A000001, dst_ip=0x0A000002, protocol=IPProtocol.ICMP,
                total_length=20 + len(payload),
            )
            packets.append(
                Packet(eth=EthernetHeader(), ip=ip, payload=payload,
                       timestamp=i * 1e-3)
            )
        h.feed(packets)
        data_events = h.by_type(EventType.STREAM_DATA)
        assert len(data_events) == 3
        assert [e.chunk.length for e in data_events] == [32, 32, 32]


class TestUdpPacketDelivery:
    def test_udp_flows_get_packet_records(self):
        """§5.7 packet delivery covers UDP streams too."""
        h = Harness(need_pkts=True)
        ft = FiveTuple(31, 3100, 32, 53, IPProtocol.UDP)
        h.feed([
            make_udp_packet(*ft[:4], payload=b"query", timestamp=0.0),
            make_udp_packet(*ft[:4], payload=b"more", timestamp=0.1),
        ])
        pair = h.kernel.flows.get(ft)
        records = pair.descriptor(0).packet_records
        assert [r.payload for r in records] == [b"query", b"more"]
        assert [r.stream_offset for r in records] == [0, 5]

    def test_records_carry_the_frames_wire_length(self):
        """Not ``len(payload) + 42``: that is only an untagged UDP frame."""
        import dataclasses

        from repro.netstack import EthernetHeader, IPv4Header, Packet

        h = Harness(need_pkts=True)
        ft = FiveTuple(33, 3300, 34, 53, IPProtocol.UDP)
        plain = make_udp_packet(*ft[:4], payload=b"query", timestamp=0.0)
        tagged = dataclasses.replace(
            make_udp_packet(*ft[:4], payload=b"tagged", timestamp=0.1),
            vlan_id=7, wire_len=0,
        )
        icmp = Packet(
            eth=EthernetHeader(),
            ip=IPv4Header(src_ip=35, dst_ip=36, protocol=IPProtocol.ICMP,
                          total_length=20 + 32),
            payload=b"e" * 32, timestamp=0.2,
        )
        h.feed([plain, tagged, icmp])
        udp_records = h.kernel.flows.get(ft).descriptor(0).packet_records
        assert [r.wire_len for r in udp_records] == [5 + 42, 6 + 46]
        assert [r.wire_len for r in udp_records] == [plain.wire_len, tagged.wire_len]
        icmp_records = h.kernel.flows.get(icmp.five_tuple).descriptor(0).packet_records
        assert [r.wire_len for r in icmp_records] == [icmp.wire_len] == [14 + 20 + 32]


class TestMultiPieceDelivery:
    """One late segment releases several pieces; each is admitted alone."""

    FT = FiveTuple(41, 4100, 42, 80, IPProtocol.TCP)

    def _late_first_segment(self, h, monkeypatch, pieces):
        """Handshake, then server data b, c, a (a is the stream's head).

        b and c coalesce into one out-of-order interval, so the real
        reassembler releases at most two pieces per call; with
        ``pieces=3`` the released interval is handed over as two pieces
        (b, c) — the shape a non-coalescing interval list would give.
        """
        from repro.core.reassembly import DeliveredData, TCPDirectionReassembler

        on_segment = TCPDirectionReassembler.on_segment

        def splitting_on_segment(self, seq, payload, now=0.0):
            delivered = on_segment(self, seq, payload, now=now)
            if pieces == 3 and len(delivered) == 2:
                head, rest = delivered
                delivered = [
                    head,
                    DeliveredData(rest.data[:1000]),
                    DeliveredData(rest.data[1000:]),
                ]
            return delivered

        monkeypatch.setattr(TCPDirectionReassembler, "on_segment", splitting_on_segment)
        client, server = self.FT[:4], (42, 80, 41, 4100)
        a, b, c = b"a" * 100, b"b" * 1000, b"c" * 100
        h.feed([
            make_tcp_packet(*client, seq=10, flags=TCPFlags.SYN, timestamp=0.0),
            make_tcp_packet(*server, seq=500, ack=11,
                            flags=TCPFlags.SYN | TCPFlags.ACK, timestamp=1e-4),
            make_tcp_packet(*client, seq=11, ack=501, flags=TCPFlags.ACK, timestamp=2e-4),
            make_tcp_packet(*server, seq=601, ack=11, payload=b, timestamp=3e-4),
            make_tcp_packet(*server, seq=1601, ack=11, payload=c, timestamp=4e-4),
            make_tcp_packet(*server, seq=501, ack=11, payload=a, timestamp=5e-4),
        ])
        return h.kernel.flows.get(self.FT).descriptor(1)

    def test_three_pieces_pool_runs_out_between_them(self, monkeypatch):
        # Room for a (100) and c (100) but never for b (1000).
        h = Harness(need_pkts=True, memory_size=300)
        stream = self._late_first_segment(h, monkeypatch, pieces=3)
        counters = h.kernel.counters
        assert counters.stored_bytes == 200
        assert counters.dropped_memory == 1
        assert counters.ppl_drops_by_priority == {0: 1}
        assert h.kernel.memory.allocation_failures == 1
        assert (stream.stats.dropped_pkts, stream.stats.dropped_bytes) == (1, 1000)
        assert stream.stats.captured_bytes == 200
        assert stream.stats.captured_pkts == 1
        # Only the packet whose bytes went to stream memory right away
        # has a record; b and c arrived out of order and have none.
        assert [(r.payload, r.stream_offset, r.seq) for r in stream.packet_records] == [
            (b"a" * 100, 0, 501)
        ]
        h.kernel.expire_and_drain(1.0)
        assert h.data_bytes() == b"a" * 100 + b"c" * 100

    def test_all_pieces_refused_leaves_no_record(self, monkeypatch):
        h = Harness(need_pkts=True, memory_size=50)
        stream = self._late_first_segment(h, monkeypatch, pieces=3)
        assert h.kernel.counters.dropped_memory == 3
        assert h.kernel.counters.stored_bytes == 0
        assert (stream.stats.dropped_pkts, stream.stats.dropped_bytes) == (3, 1200)
        assert stream.packet_records == []
        assert stream.stats.captured_pkts == 1  # the reassembler did deliver

    def test_two_pieces_cross_a_chunk_boundary(self, monkeypatch):
        """The unpatched two-piece drain: chunk events keep stream order."""
        h = Harness(need_pkts=True, chunk_size=512)
        stream = self._late_first_segment(h, monkeypatch, pieces=2)
        data_events = h.by_type(EventType.STREAM_DATA)
        assert [e.chunk.stream_offset for e in data_events] == [0, 512]
        assert [e.reason for e in data_events] == [DataReason.CHUNK_FULL] * 2
        assert h.kernel.counters.stored_bytes == 1200
        assert len(stream.packet_records) == 1
        h.kernel.expire_and_drain(1.0)
        assert h.data_bytes() == b"a" * 100 + b"b" * 1000 + b"c" * 100
