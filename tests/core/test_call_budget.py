"""A timing-free performance gate: the exact number of Python-level and
built-in calls one capture pass makes.

The count is deterministic for a fixed trace and interpreter: it does
not depend on ``PYTHONHASHSEED``, on machine load, or (after one
unmeasured warm-up pass) on which tests ran before.  So it can hold a
ceiling with no noise margin.  Other
interpreter versions make a different number of built-in calls, so the
gate runs on CPython 3.11 only.

Calls are summed over the profiler's raw entries, one per code object.
``pstats.Stats.total_calls`` is not used: it keys functions by
``(file, line, name)``, so every dataclass's generated ``__init__``
(all ``<string>:2``) collapses into whichever one was seen last, and
the total then depends on what else the process has imported.
"""

import cProfile
import gc
import io
import math
import sys

import pytest

from repro.apps import StreamDeliveryApp, attach_app
from repro.core import ScapConfig, ScapKernelModule, ScapSocket
from repro.core.runtime import DEFAULT_BATCH_SIZE
from repro.kernelsim import DEFAULT_COST_MODEL
from repro.netstack import TCPFlags, make_tcp_packet, write_pcap
from repro.nic import PacketBatch, SimulatedNIC
from repro.observability import Observability
from repro.traffic import CampusTrafficGenerator, Impairments, PcapSource, Trace, TrafficConfig

#: Calls of the pass below, measured on the tree that set it.  A change
#: that means to add calls raises this in its own diff.
CALL_CEILING = 33_737


def _trace():
    """Four TCP flows of exactly 400,000 bytes with the benchmark's
    impairment rates (1 % retransmit, 1 % reorder, 0.5 % overlap)."""
    size = 400_000
    config = TrafficConfig(
        seed=11,
        flow_count=4,
        tcp_fraction=1.0,
        # Every draw of the size model lands above the cap, so the cap
        # is the size.
        small_flow_fraction=1.0,
        lognormal_mu=math.log(size * 64.0),
        lognormal_sigma=0.01,
        max_flow_bytes=size,
        request_bytes_range=(120, 900),
        impairments=Impairments(
            retransmit_rate=0.01, reorder_rate=0.01, overlap_rate=0.005, seed=11
        ),
    )
    return CampusTrafficGenerator(config).generate(name="call_budget")


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="call counts are pinned on CPython 3.11"
)
def test_capture_call_count_under_ceiling(monkeypatch):
    # The sanitizer and race-detector flags add checks on the hot path.
    monkeypatch.delenv("SCAP_SANITIZE", raising=False)
    monkeypatch.delenv("SCAP_RACE", raising=False)
    trace = _trace()

    def fresh_socket():
        socket = ScapSocket(trace, memory_size=64 << 20, rate_bps=4e9)
        attach_app(socket, StreamDeliveryApp())
        return socket

    # The first pass fills the process-wide memos (RSS tables, address
    # strings, shared metric children); how many of them earlier tests
    # already filled would otherwise move the count.  The measured pass
    # is the steady state, the same whatever ran before.
    fresh_socket().start_capture()
    socket = fresh_socket()
    profile = cProfile.Profile()
    profile.enable()
    result = socket.start_capture()
    profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats())
    packets = result.offered_packets
    assert calls <= CALL_CEILING, (
        f"one capture pass made {calls:,} calls over {packets:,} packets "
        f"({calls / packets:.2f}/pkt); the ceiling is {CALL_CEILING:,}. "
        "A change that means to add calls raises CALL_CEILING in its own diff."
    )


#: Calls of the same pass with observability on: metrics, hooks and
#: the profiler all enabled.  Measured on the tree that set it; each
#: change that makes observability cheaper lowers it in its own diff.
OBSERVED_CALL_CEILING = 78_702


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="call counts are pinned on CPython 3.11"
)
def test_observed_capture_call_count_under_ceiling(monkeypatch):
    monkeypatch.delenv("SCAP_SANITIZE", raising=False)
    monkeypatch.delenv("SCAP_RACE", raising=False)
    trace = _trace()

    def fresh_socket():
        socket = ScapSocket(
            trace, memory_size=64 << 20, rate_bps=4e9,
            observability=Observability(enabled=True),
        )
        attach_app(socket, StreamDeliveryApp())
        return socket

    fresh_socket().start_capture()  # fills the process-wide memos
    socket = fresh_socket()
    # This pass allocates enough to run the collector, and the callbacks
    # other libraries hang on it (hypothesis registers one once any of
    # its tests ran) would count as calls of the pass.
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    try:
        profile = cProfile.Profile()
        profile.enable()
        result = socket.start_capture()
        profile.disable()
    finally:
        gc.callbacks[:] = callbacks
    calls = sum(entry.callcount for entry in profile.getstats())
    packets = result.offered_packets
    assert calls <= OBSERVED_CALL_CEILING, (
        f"one observed capture pass made {calls:,} calls over {packets:,} packets "
        f"({calls / packets:.2f}/pkt); the ceiling is {OBSERVED_CALL_CEILING:,}. "
        "A change that means to add calls raises OBSERVED_CALL_CEILING in its own diff."
    )


#: Calls to ingest the pass's trace as a submitted pcap: the source's
#: construction (every frame checked) plus every batch it builds.
INGEST_CALL_CEILING = 21_418


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="call counts are pinned on CPython 3.11"
)
def test_ingest_call_count_under_ceiling():
    buffer = io.BytesIO()
    write_pcap(buffer, _trace().packets)
    data = buffer.getvalue()

    def ingest():
        for _ in PcapSource(data).replay_batches(4e9, DEFAULT_BATCH_SIZE):
            pass

    ingest()  # fills the process-wide memos (interned Ethernet headers)
    profile = cProfile.Profile()
    profile.enable()
    ingest()
    profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats())
    packets = len(PcapSource(data))
    assert calls <= INGEST_CALL_CEILING, (
        f"ingesting a {len(data):,}-byte pcap made {calls:,} calls over {packets:,} "
        f"packets ({calls / packets:.2f}/pkt); the ceiling is {INGEST_CALL_CEILING:,}."
    )


#: Python frames one in-order data segment on an established flow may
#: enter, ``handle_batch_packet`` itself included, when no chunk fills.
SEGMENT_FRAME_CEILING = 12


def test_in_order_segment_frame_chain(monkeypatch):
    """The per-segment chain, frame by frame: lookup, touch, the TCP
    payload phase, the PPL check on the ledger's fraction, reassembly,
    one piece stored and appended.  A forwarder that comes back fails
    here with its name."""
    monkeypatch.delenv("SCAP_RACE", raising=False)
    kernel = ScapKernelModule(ScapConfig(), SimulatedNIC(queue_count=1), DEFAULT_COST_MODEL)
    client, server = (1, 1000, 2, 80), (2, 80, 1, 1000)

    def segment(ends, seq, flags, payload=b"", ack=0):
        segment.now += 0.0005  # stays inside one housekeeping interval
        return make_tcp_packet(
            *ends, seq=seq, ack=ack, flags=flags, payload=payload, timestamp=segment.now
        )

    segment.now = 0.0
    ctx = kernel.begin_batch()
    for packet in (
        segment(client, 100, TCPFlags.SYN),
        segment(server, 500, TCPFlags.SYN | TCPFlags.ACK, ack=101),
        segment(client, 101, TCPFlags.ACK, ack=501),
        segment(client, 101, TCPFlags.ACK, b"a" * 300, ack=501),
    ):
        kernel.handle_batch_packet(packet, 0, ctx)
    measured = segment(client, 401, TCPFlags.ACK, b"b" * 300, ack=501)

    profile = cProfile.Profile()
    profile.enable()
    kernel.handle_batch_packet(measured, 0, ctx)
    profile.disable()
    kernel.end_batch(ctx)

    frames = sorted(
        f"{getattr(entry.code, 'co_qualname', entry.code.co_name)} x{entry.callcount}"
        for entry in profile.getstats()
        if not isinstance(entry.code, str)
    )
    calls = sum(
        entry.callcount for entry in profile.getstats() if not isinstance(entry.code, str)
    )
    assert kernel.flows.lookup(measured.five_tuple).assembler.pending_bytes == 600
    assert calls <= SEGMENT_FRAME_CEILING, (
        f"one in-order segment entered {calls} Python frames "
        f"(ceiling {SEGMENT_FRAME_CEILING}): {frames}"
    )


#: Python frames one whole short connection enters on its way through a
#: socket, as one batch: the NIC stage, the kernel, the workers and the
#: application's callbacks.
CONNECTION_FRAME_CEILING = 146


def _connection(port, start):
    """SYN, SYN-ACK, ACK, a 200-byte request, a 200-byte response, FIN,
    FIN, ACK."""
    client, server = (0x0A220001, port, 0x0A220002, 80), (0x0A220002, 80, 0x0A220001, port)
    clock = [start]

    def segment(ends, seq, flags, payload=b"", ack=0):
        clock[0] += 0.0005  # stays inside one housekeeping interval
        return make_tcp_packet(
            *ends, seq=seq, ack=ack, flags=flags, payload=payload, timestamp=clock[0]
        )

    ack, psh = TCPFlags.ACK, TCPFlags.ACK | TCPFlags.PSH
    return [
        segment(client, 100, TCPFlags.SYN),
        segment(server, 500, TCPFlags.SYN | ack, ack=101),
        segment(client, 101, ack, ack=501),
        segment(client, 101, psh, b"q" * 200, ack=501),
        segment(server, 501, psh, b"r" * 200, ack=301),
        segment(client, 301, TCPFlags.FIN | ack, ack=701),
        segment(server, 701, TCPFlags.FIN | ack, ack=302),
        segment(client, 302, ack, ack=702),
    ]


def _function_name(code):
    """The qualified name of the function running ``code``: a dataclass's
    generated ``__init__`` is named for its class."""
    for referrer in gc.get_referrers(code):
        if getattr(referrer, "__code__", None) is code:
            return referrer.__qualname__
    return getattr(code, "co_qualname", code.co_name)


def test_short_connection_frame_chain(monkeypatch):
    """A connection's setup, two data chunks and its teardown, frame by
    frame: five events (one created, two data, two terminated) each
    reach the worker in one hop.  A forwarder that comes back fails here
    with its name."""
    monkeypatch.delenv("SCAP_SANITIZE", raising=False)
    monkeypatch.delenv("SCAP_RACE", raising=False)
    # A first connection between the same hosts fills the per-address
    # memos; the measured one has fresh tuples, as every connection does.
    warm, measured = _connection(40000, 0.0), _connection(40001, 0.0045)
    socket = ScapSocket(Trace(warm + measured), memory_size=1 << 20, rate_bps=1e9)
    app = StreamDeliveryApp()
    attach_app(socket, app)
    runtime = socket._build_runtime()
    runtime.process_batch(PacketBatch(warm))

    profile = cProfile.Profile()
    profile.enable()
    runtime.process_batch(PacketBatch(measured))
    profile.disable()

    entries = [entry for entry in profile.getstats() if not isinstance(entry.code, str)]
    frames = sorted(f"{_function_name(entry.code)} x{entry.callcount}" for entry in entries)
    calls = sum(entry.callcount for entry in entries)
    assert app.delivered_bytes == 800 and app.streams_terminated == 2
    assert runtime.workers.events_processed == 10 and len(runtime.kernel.flows) == 0
    assert calls <= CONNECTION_FRAME_CEILING, (
        f"one short connection entered {calls} Python frames "
        f"(ceiling {CONNECTION_FRAME_CEILING}): {frames}"
    )
