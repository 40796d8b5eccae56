"""Robustness: malformed input, adversarial packets, determinism."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScapConfig, ScapKernelModule, ScapSocket
from repro.kernelsim import DEFAULT_COST_MODEL
from repro.netstack import (
    EthernetHeader,
    FiveTuple,
    IPProtocol,
    Packet,
    TCPFlags,
    make_tcp_packet,
)
from repro.nic import SimulatedNIC
from repro.traffic import campus_mix
from tests.kernel_driver import feed_kernel


class TestWireParsingRobustness:
    @settings(max_examples=120, deadline=None)
    @given(data=st.binary(min_size=0, max_size=200))
    def test_parse_never_crashes_unexpectedly(self, data):
        """Random bytes either parse or raise ValueError — nothing else."""
        try:
            Packet.parse(data)
        except ValueError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(flip=st.integers(0, 53), payload=st.binary(max_size=64))
    def test_bitflipped_frames_handled(self, flip, payload):
        """A corrupted (bit-flipped) valid frame never raises anything
        but ValueError from the parser."""
        frame = bytearray(
            make_tcp_packet(1, 2, 3, 4, payload=payload).to_bytes()
        )
        frame[flip % len(frame)] ^= 0xFF
        try:
            Packet.parse(bytes(frame))
        except ValueError:
            pass


class TestKernelAdversarialInput:
    def _kernel(self, **kwargs):
        kwargs.setdefault("memory_size", 1 << 22)
        nic = SimulatedNIC(queue_count=2)
        kernel = ScapKernelModule(
            ScapConfig(**kwargs), nic, DEFAULT_COST_MODEL,
            emit_event=lambda item: None,
        )
        return kernel, nic

    def test_weird_flag_combinations(self):
        """SYN+FIN, SYN+RST, null flags, xmas — no crashes, no leaks."""
        kernel, nic = self._kernel()
        ft = FiveTuple(1, 1, 2, 80, IPProtocol.TCP)
        for flags in (
            TCPFlags.SYN | TCPFlags.FIN,
            TCPFlags.SYN | TCPFlags.RST,
            0,
            TCPFlags.FIN | TCPFlags.PSH | TCPFlags.URG,
            TCPFlags.SYN | TCPFlags.ACK | TCPFlags.FIN | TCPFlags.RST,
        ):
            packet = make_tcp_packet(*ft[:4], flags=flags, payload=b"x")
            feed_kernel(kernel, packet, 0)

    def test_seq_jump_attack(self):
        """A stream whose sequence numbers jump wildly cannot make the
        reassembler buffer unbounded data (FAST mode skips)."""
        kernel, nic = self._kernel()
        rng = random.Random(1)
        ft = FiveTuple(3, 3, 4, 80, IPProtocol.TCP)
        feed_kernel(kernel, make_tcp_packet(*ft[:4], seq=0, flags=TCPFlags.SYN), 0)
        for i in range(200):
            feed_kernel(
                kernel,
                make_tcp_packet(
                    *ft[:4], seq=rng.randrange(1 << 31), payload=b"j" * 100,
                    timestamp=i * 1e-5,
                ),
                0,
            )
        reassembler = kernel.flows.lookup(ft).reassembler
        assert reassembler.buffered_bytes <= 65536 + 100

    def test_duplicate_syn_storm(self):
        kernel, nic = self._kernel()
        ft = FiveTuple(5, 5, 6, 80, IPProtocol.TCP)
        for i in range(50):
            feed_kernel(
                kernel,
                make_tcp_packet(*ft[:4], seq=i, flags=TCPFlags.SYN, timestamp=i * 1e-6),
                0,
            )
        assert kernel.flows.created_total == 1  # one stream, many SYNs

    def test_data_after_rst_recreates_cleanly(self):
        kernel, nic = self._kernel()
        ft = FiveTuple(7, 7, 8, 80, IPProtocol.TCP)
        feed_kernel(kernel, make_tcp_packet(*ft[:4], seq=0, flags=TCPFlags.SYN), 0)
        feed_kernel(kernel, make_tcp_packet(*ft[:4], seq=1, flags=TCPFlags.RST), 0)
        feed_kernel(
            kernel, make_tcp_packet(*ft[:4], seq=100, payload=b"ghost", timestamp=1e-3), 0
        )
        assert kernel.flows.created_total == 2

    def test_non_ip_frames_ignored(self):
        kernel, nic = self._kernel()
        frame = Packet(eth=EthernetHeader(ethertype=0x0806), payload=b"arp")
        feed_kernel(kernel, frame, 0)
        assert len(kernel.flows) == 0


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        """The whole pipeline is deterministic: two runs of the same
        configuration agree to the bit."""
        def run():
            trace = campus_mix(flow_count=40, seed=99)
            socket = ScapSocket(trace, rate_bps=3e9, memory_size=1 << 20)
            result = socket.start_capture()
            return (
                result.dropped_packets,
                result.delivered_bytes,
                result.delivered_events,
                round(result.user_utilization, 12),
                round(result.softirq_load, 12),
            )

        assert run() == run()
