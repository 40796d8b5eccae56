"""The capture path's inlined copies of model rules, pinned to the model.

To save a Python frame per packet, the per-packet path computes a few
rules inline instead of calling the function that defines them:

- ``ScapKernelModule._store_piece`` charges ``CostModel.copy_cost`` and
  ``miss_cost(LocalityProfile.scap_kernel_misses)``;
- ``WorkerPool._service_cycles`` charges ``user_wakeup_cost``,
  ``Event.data_len`` and ``miss_cost(scap_user_misses)``, and
  ``WorkerPool.dispatch`` converts with ``CostModel.seconds``;
- ``TCPDirectionReassembler.on_segment`` places a segment with
  ``seq_diff``.

Each test computes the same value through the defining functions, with
non-default parameters, and asserts bit-equality: an edit to a
definition that its inlined copy does not follow fails here.  (The
kernel's inlined ``IPv4Header.is_fragment`` is pinned by
``test_kernel_module.py::test_fragmented_session_through_the_runtime``.)
"""

import dataclasses

import pytest

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
from repro.netstack import FiveTuple, IPProtocol, seq_diff
from repro.nic import SimulatedNIC
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
        memory=StreamMemory(1 << 20), callbacks=Callbacks(),
    )
    event = _data_event(length)
    dispatch, app = pool._service_cycles(event)
    assert dispatch == cost.scap_event_dispatch + cost.user_wakeup_cost()
    expected_app = 0.0
    expected_app += cost.scap_per_byte_touch * event.data_len
    expected_app += cost.miss_cost(LOCALITY.scap_user_misses(event.data_len))
    assert app == expected_app

    pool.dispatch(0, event, ready_time=0.0)
    assert event.stream.processing_time == 0.0 + cost.seconds(dispatch + app)


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
