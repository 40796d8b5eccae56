"""The capture path's inlined copies of model rules, pinned to the model.

To save a Python frame per packet, the per-packet path computes a few
rules inline instead of calling the function that defines them:

- ``ScapKernelModule._store_piece`` charges ``CostModel.copy_cost`` and
  ``miss_cost(LocalityProfile.scap_kernel_misses)``;
- ``WorkerPool.dispatch`` charges ``user_wakeup_cost``,
  ``Event.data_len`` and ``miss_cost(scap_user_misses)``, and converts
  with ``CostModel.seconds``;
- ``TCPDirectionReassembler.on_segment`` places a segment with
  ``seq_diff``;
- ``ScapKernelModule._handle_tcp`` anchors a SYN with
  ``TCPDirectionReassembler.set_isn`` (``seq_add``, and only while the
  direction has delivered and buffered nothing) and estimates a FIN/RST
  flow size with ``anchored`` and ``seq_diff``;
- ``RSSHasher.hash_value`` folds the Toeplitz tables as
  ``toeplitz_hash`` does;
- ``StreamDeliveryApp.on_stream_data`` keeps the counters of
  ``MonitorApp.on_stream_data``.

Each test computes the same value through the defining functions, with
non-default parameters, and asserts bit-equality: an edit to a
definition that its inlined copy does not follow fails here.  (The
kernel's inlined ``IPv4Header.is_fragment`` is pinned by
``test_kernel_module.py::test_fragmented_session_through_the_runtime``.)
"""

import dataclasses
import struct

import pytest

from repro.apps import MonitorApp, StreamDeliveryApp
from repro.core import (
    Callbacks,
    Event,
    EventType,
    ScapConfig,
    ScapKernelModule,
    StreamDescriptor,
    StreamMemory,
    WorkerPool,
)
from repro.core.kernel_module import _ST_REASM
from repro.core.memory import Chunk
from repro.core.reassembly import TCPDirectionReassembler
from repro.kernelsim import DEFAULT_COST_MODEL, LocalityProfile
from repro.netstack import FiveTuple, IPProtocol, TCPFlags, make_tcp_packet, seq_add, seq_diff
from repro.nic import MICROSOFT_RSS_KEY, SYMMETRIC_RSS_KEY, RSSHasher, SimulatedNIC, toeplitz_hash
from repro.traffic import SessionMessage, TCPSessionBuilder
from tests.kernel_driver import feed_kernel

LOCALITY = LocalityProfile(
    scap_kernel_base=5.3, scap_user_base=2.9, reference_payload=613.0
)
COST = dataclasses.replace(
    DEFAULT_COST_MODEL,
    core_hz=1.7e9,
    copy_per_byte=0.37,
    cache_miss_penalty=171.0,
    scap_per_byte_touch=1.3,
    scap_event_dispatch=655.0,
    syscall_poll=530.0,
)


def test_store_piece_charges_the_cost_model():
    kernel = ScapKernelModule(
        ScapConfig(memory_size=1 << 22), SimulatedNIC(queue_count=2), COST,
        locality=LOCALITY,
    )
    store_piece = kernel._store_piece
    charged = []

    def spy(record, data, now, core, follows_hole=False):
        before = kernel.stage_cycles[_ST_REASM]
        stored = store_piece(record, data, now, core, follows_hole)
        charged.append((len(data), stored, before, kernel.stage_cycles[_ST_REASM]))
        return stored

    kernel._store_piece = spy
    messages = [SessionMessage(1, b"a" * 1), SessionMessage(0, b"b" * 333),
                SessionMessage(1, b"c" * 4000)]
    ft = FiveTuple(1, 1000, 2, 80, IPProtocol.TCP)
    for packet in TCPSessionBuilder(ft).build(messages):
        feed_kernel(kernel, packet, kernel.nic.classify(packet))

    assert len({size for size, *_ in charged}) >= 3
    for size, stored, before, after in charged:
        assert stored
        expected = before + COST.copy_cost(size)
        expected += COST.miss_cost(LOCALITY.scap_kernel_misses(size))
        assert after == expected, size


def _data_event(length):
    ft = FiveTuple(1, 1000 + length, 2, 80, IPProtocol.TCP)
    chunk = Chunk(stream_offset=0)
    if length:
        chunk.append(b"x" * length)
    chunk.accounted_bytes = length
    return Event(
        EventType.STREAM_DATA, StreamDescriptor(ft, length, IPProtocol.TCP), 0.0,
        chunk=chunk,
    )


@pytest.mark.parametrize("batch", [0.5, 1.0, 1, 32.0])
@pytest.mark.parametrize("length", [0, 1, 613, 1460, 16384])
def test_service_cycles_charge_the_cost_model(batch, length):
    cost = dataclasses.replace(COST, user_batch_packets=batch)
    pool = WorkerPool(
        worker_count=3, cost_model=cost, locality=LOCALITY, event_queue_capacity=16,
        memory=StreamMemory(1 << 20),
        callbacks=Callbacks(termination_cost=lambda event: 41.0 + length),
    )
    dispatch = cost.scap_event_dispatch + cost.user_wakeup_cost()
    data = _data_event(length)
    app = 0.0
    app += cost.scap_per_byte_touch * data.data_len
    app += cost.miss_cost(LOCALITY.scap_user_misses(data.data_len))
    ft = FiveTuple(3, 1, 4, 80, IPProtocol.TCP)
    for event, expected_app in (
        (Event(EventType.STREAM_CREATED, StreamDescriptor(ft, 0, IPProtocol.TCP), 0.0), None),
        (data, app),
        (Event(EventType.STREAM_TERMINATED, StreamDescriptor(ft, 1, IPProtocol.TCP), 0.0),
         0.0 + (41.0 + length)),
    ):
        pool.dispatch(0, event, ready_time=0.0)
        # No creation cost hook: the stub's dispatch cycles alone.
        cycles = dispatch if expected_app is None else dispatch + expected_app
        assert event.stream.processing_time == 0.0 + cost.seconds(cycles), event.event_type


@pytest.mark.parametrize("isn", [0, 2**31 - 7, 2**31 + 3, 2**32 - 12])
@pytest.mark.parametrize("delta", [-2**31, -5, -4, -3, -1, 0, 1, 9, 2**31 - 1])
def test_on_segment_places_by_seq_diff(isn, delta):
    reassembler = TCPDirectionReassembler()
    reassembler.set_isn(isn)
    reassembler.on_segment(reassembler.expected_seq, b"p" * 10)
    expected_seq = reassembler.expected_seq
    seq = (expected_seq + delta) % 2**32
    before = dataclasses.asdict(reassembler.counters)

    reassembler.on_segment(seq, b"q" * 4)

    offset = 10 + seq_diff(seq, expected_seq)
    after = dataclasses.asdict(reassembler.counters)
    grew = {key: after[key] - before[key] for key in after if after[key] != before[key]}
    grew.pop("segments")
    if offset + 4 <= 10:
        assert grew == {"duplicate_bytes": 4}
    elif offset < 10:
        assert grew == {"duplicate_bytes": 10 - offset, "delivered_bytes": offset - 6}
    elif offset == 10:
        assert grew == {"delivered_bytes": 4}
    else:
        assert grew == {"out_of_order_segments": 1}


def _kernel():
    """A kernel module, and a feed that hands it TCP segments 0.5 ms apart."""
    kernel = ScapKernelModule(
        ScapConfig(memory_size=1 << 22), SimulatedNIC(queue_count=1), COST, locality=LOCALITY
    )
    clock = [0.0]

    def feed(ends, seq, flags, payload=b"", ack=0):
        clock[0] += 0.0005
        feed_kernel(kernel, make_tcp_packet(
            *ends, seq=seq, ack=ack, flags=flags, payload=payload, timestamp=clock[0]
        ))

    return kernel, feed


CLIENT, SERVER = (1, 1000, 2, 80), (2, 80, 1, 1000)
ISNS = [0, 2**31 - 1, 2**32 - 2, 2**32 - 1]


@pytest.mark.parametrize("isn", ISNS)
def test_syn_anchors_by_seq_add(isn):
    kernel, feed = _kernel()
    feed(CLIENT, isn, TCPFlags.SYN)
    feed(SERVER, isn ^ 0x5A5A, TCPFlags.SYN | TCPFlags.ACK)
    client = kernel.flows.lookup(FiveTuple(*CLIENT, IPProtocol.TCP)).reassembler
    server = kernel.flows.lookup(FiveTuple(*SERVER, IPProtocol.TCP)).reassembler
    assert (client.expected_seq, client.next_offset) == (seq_add(isn, 1), 0)
    assert (server.expected_seq, server.next_offset) == (seq_add(isn ^ 0x5A5A, 1), 0)


@pytest.mark.parametrize("isn", ISNS)
@pytest.mark.parametrize("payload", [b"", b"d" * 10])
def test_second_syn_follows_set_isn(isn, payload):
    """A second SYN (another ISN) re-anchors a direction only while it
    has delivered and buffered nothing, in the kernel as in set_isn."""
    kernel, feed = _kernel()
    model = TCPDirectionReassembler()
    model.set_isn(isn)
    feed(CLIENT, isn, TCPFlags.SYN)
    if payload:
        model.on_segment(seq_add(isn, 1), payload)
        feed(CLIENT, seq_add(isn, 1), TCPFlags.ACK, payload)
    model.set_isn(isn ^ 0x5A5A)
    feed(CLIENT, isn ^ 0x5A5A, TCPFlags.SYN)
    client = kernel.flows.lookup(FiveTuple(*CLIENT, IPProtocol.TCP)).reassembler
    assert (client.expected_seq, client.next_offset) == (model.expected_seq, model.next_offset)
    assert model.expected_seq == seq_add(isn if payload else isn ^ 0x5A5A, 1 + len(payload))


@pytest.mark.parametrize("flag", [TCPFlags.FIN, TCPFlags.RST])
@pytest.mark.parametrize("isn", ISNS)
@pytest.mark.parametrize("gap",[-2**31, -11, -1, 0, 1, 4321, 2**31 - 12])
def test_fin_rst_estimate_by_seq_diff(flag, isn, gap):
    kernel, feed = _kernel()
    ft = FiveTuple(*CLIENT, IPProtocol.TCP)
    feed(CLIENT, isn, TCPFlags.SYN)
    feed(SERVER, 7, TCPFlags.SYN | TCPFlags.ACK, ack=seq_add(isn, 1))
    feed(CLIENT, seq_add(isn, 1), TCPFlags.ACK, b"d" * 10, ack=8)
    record = kernel.flows.lookup(ft)
    reassembler, stats = record.reassembler, record.stream.stats
    seq = (reassembler.expected_seq + gap) % 2**32
    estimated = reassembler.next_offset + seq_diff(seq, reassembler.expected_seq)
    assert reassembler.anchored and stats.bytes == 10

    feed(CLIENT, seq, flag | TCPFlags.ACK, ack=8)

    assert stats.bytes == max(10, estimated)
    assert (kernel.flows.lookup(ft) is None) == (flag == TCPFlags.RST)


@pytest.mark.parametrize("key", [SYMMETRIC_RSS_KEY, MICROSOFT_RSS_KEY])
@pytest.mark.parametrize("protocol", [IPProtocol.TCP, IPProtocol.UDP, IPProtocol.ICMP])
@pytest.mark.parametrize("queue_count", [1, 7, 16])
def test_rss_fold_matches_toeplitz_hash(key, protocol, queue_count):
    hasher = RSSHasher(queue_count, key=key)
    for ft in (
        FiveTuple(0x0A000001, 40000, 0xC0A80102, 443, protocol),
        FiveTuple(0xFFFFFFFF, 65535, 0x00000001, 1, protocol),
        FiveTuple(0x8D1B2C3D, 53, 0x0A0B0C0D, 61000, protocol),
    ):
        if protocol == IPProtocol.ICMP:  # other protocols hash the address pair only
            packed = struct.pack("!II", ft.src_ip, ft.dst_ip)
        else:
            packed = struct.pack("!IIHH", ft.src_ip, ft.dst_ip, ft.src_port, ft.dst_port)
        assert hasher.hash_value(ft) == toeplitz_hash(key, packed)
        assert hasher.queues[ft] == toeplitz_hash(key, packed) % queue_count


def test_stream_delivery_keeps_the_base_counters():
    base, delivery = MonitorApp(), StreamDeliveryApp()
    client, server = FiveTuple(*CLIENT, IPProtocol.TCP), FiveTuple(*SERVER, IPProtocol.TCP)
    for ft, offset, data in ((client, 0, b"q" * 200), (server, 0, b"r" * 7), (client, 200, b"")):
        base.on_stream_data(ft, 0, offset, data)
        delivery.on_stream_data(ft, 0, offset, data)
    # Every attribute the base keeps, whatever it is named.
    assert vars(base) == {name: vars(delivery)[name] for name in vars(base)}
    assert delivery.bytes_per_stream == {client: 200, server: 7}
