"""Differential suite: every output is invariant under the batch size.

There is one pipeline; ``batch_size`` only says how many packets move
through it together.  Every observable output — delivered events
(content, order, offsets), ``scap_get_stats`` fields, trace-hook
emission counts, profiler stage and queue-wait seconds, the full metrics
registry export, and on-disk store contents —
must be identical between ``batch_size=1`` (classify, handle and flush
one packet at a time: the reference) and sizes 2, 7 and 64, on clean
traces, under wire-plane fault injection, on overlap-heavy traces and on
a reordered trace whose late segments release several pieces at once.

All of them must also equal ``golden_fingerprints.json``.  The goldens
were recorded from the separate per-packet implementation
(``batch_size=0``) on the last commit that had one, so they pin the
behaviour that implementation had (the ``registry`` and ``waits`` keys
were added later, recorded from ``batch_size=1`` on the last commit
that still buffered metrics per batch; the ``reorder`` scenario on the
last commit that stored multi-piece deliveries through their own path); ``--record`` rewrites them
from ``batch_size=1`` and is for intentional behaviour changes only.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from collections import defaultdict
from dataclasses import asdict

import pytest

from repro.apps import StreamRecorder
from repro.core import ScapSocket, scap_get_stats
from repro.core.reassembly import TCPDirectionReassembler
from repro.faultinject import FaultPlan, MemoryFaults, WireFaults
from repro.netstack import FiveTuple
from repro.observability import MetricsRegistry, Observability
from repro.store import StreamStore
from repro.traffic import build_udp_flow, campus_mix
from repro.traffic.tcpsession import Impairments
from repro.traffic.trace import Trace

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_fingerprints.json")

#: The ``batch_size`` every other size is compared against.
REFERENCE = 1
BATCH_SIZES = [2, 7, 64]


def _delivery_trace():
    return campus_mix(flow_count=40, max_flow_bytes=120_000, seed=11)


def _overlap_trace():
    """A trace where every fifth data segment overlaps, some conflicting."""
    return campus_mix(
        flow_count=30,
        max_flow_bytes=90_000,
        seed=17,
        impairments=Impairments(
            retransmit_rate=0.05,
            reorder_rate=0.05,
            overlap_rate=0.2,
            overlap_conflict=True,
            seed=17,
        ),
    )


def _reorder_trace():
    """A trace whose data segments really arrive out of order.

    ``Impairments.reorder_rate`` only shuffles the copies of *one*
    segment, which never opens a hole.  Here, in every run of five data
    segments of one direction, the first is delayed past the next two
    (a, b, c -> b, c, a): b and c wait as an out-of-order interval and
    the late a releases two pieces from a single ``on_segment`` call.
    """
    base = campus_mix(flow_count=40, max_flow_bytes=120_000, seed=23)
    data_segments = defaultdict(list)
    for packet in base.packets:
        if packet.tcp is not None and packet.payload:
            data_segments[packet.five_tuple].append(packet)
    for segments in data_segments.values():
        for start in range(0, len(segments) - 2, 5):
            a, b, c = segments[start : start + 3]
            a.timestamp, b.timestamp, c.timestamp = (
                c.timestamp, a.timestamp, b.timestamp,
            )
    return Trace(base.packets, base.flows, name="reorder")


def _fault_plan():
    return FaultPlan(
        seed=9,
        wire=WireFaults(
            drop_rate=0.02,
            duplicate_rate=0.02,
            reorder_rate=0.02,
            fcs_corrupt_rate=0.01,
        ),
        memory=MemoryFaults(alloc_failure_rate=0.01),
    )


#: Scenario name -> ``_fingerprint`` keyword arguments.  The names key
#: the golden file.  ``fault_plan`` is a factory: plans hold RNG state,
#: so every run needs a fresh one.
SCENARIOS = {
    "clean": dict(trace_factory=_delivery_trace),
    "overlap": dict(trace_factory=_overlap_trace),
    "overload_cutoff": dict(
        trace_factory=_delivery_trace,
        rate_bps=6e9,
        memory_size=1 << 18,
        cutoff=8_192,
    ),
    "wire_faulted": dict(trace_factory=_delivery_trace, fault_plan=_fault_plan),
    "store": dict(trace_factory=_delivery_trace, cutoff=16_384),
    # Multi-piece reassembly deliveries, a third of them with the pool
    # running out between the pieces of one delivery.
    "reorder": dict(trace_factory=_reorder_trace, rate_bps=8e9, memory_size=1 << 16),
}


def _fingerprint(
    batch_size,
    trace_factory,
    rate_bps=2e9,
    memory_size=1 << 21,
    cutoff=None,
    fault_plan=None,
    store_dir=None,
):
    """Run one capture; return every comparable output of the run.

    The delivered-event digest hashes each event in dispatch order
    (identity, direction, offset, payload, hole flag), so any
    difference in content, ordering, or segmentation changes it.
    ``registry`` is the SHA-256 of the whole JSON metrics export —
    every counter, gauge, histogram bucket and float sum — and ``waits``
    the profiler's per-stage queue-wait seconds.
    With ``store_dir`` the capture is also recorded and the hash of
    every file the store wrote joins the fingerprint.
    """
    obs = Observability(enabled=True)
    socket = ScapSocket(
        trace_factory(),
        rate_bps=rate_bps,
        memory_size=memory_size,
        observability=obs,
        batch_size=batch_size,
        fault_plan=fault_plan() if fault_plan is not None else None,
    )
    if cutoff is not None:
        socket.set_cutoff(cutoff)
    digest = hashlib.sha256()
    events = []

    def on_creation(sd):
        events.append("create")
        digest.update(f"C|{sd.five_tuple}|{sd.direction}\n".encode())

    def on_data(sd):
        events.append("data")
        digest.update(
            f"D|{sd.five_tuple}|{sd.direction}|{sd.data_offset}|"
            f"{int(sd.data_had_hole)}|".encode()
        )
        digest.update(sd.data)
        digest.update(b"\n")

    def on_termination(sd):
        events.append("term")
        digest.update(f"T|{sd.five_tuple}|{sd.direction}\n".encode())

    socket.dispatch_creation(on_creation)
    socket.dispatch_data(on_data)
    socket.dispatch_termination(on_termination)
    store = None
    if store_dir is not None:
        store = StreamStore(str(store_dir))
        socket.set_store(StreamRecorder(store))
    result = socket.start_capture(name="differential")
    stats = scap_get_stats(socket)
    stages = socket.profile().stages
    profile = {stage.stage: stage.service_seconds for stage in stages}
    waits = {stage.stage: stage.wait_seconds for stage in stages}
    registry = hashlib.sha256(socket.export_metrics("json").encode()).hexdigest()
    busy = socket.runtime.busy_seconds()
    socket.close()
    if store is not None:
        store.close()
    fingerprint = {
        "events": events,
        "digest": digest.hexdigest(),
        "stats": asdict(stats),
        "result": asdict(result),
        "profile": profile,
        "waits": waits,
        "registry": registry,
        "busy": busy,
        "trace_emitted": obs.trace.emitted,
    }
    if store_dir is not None:
        fingerprint["store_files"] = _store_contents(store_dir)
    return fingerprint


def _store_contents(store_dir) -> dict:
    """Hash every file the store wrote, keyed by relative path."""
    contents = {}
    for root, _dirs, files in os.walk(store_dir):
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                data = handle.read()
            rel = os.path.relpath(path, store_dir)
            contents[rel] = hashlib.sha256(data).hexdigest()
    return contents


def _assert_identical(reference, candidate, label):
    for key in reference:
        assert candidate[key] == reference[key], (
            f"{label}: {key} diverged from batch_size={REFERENCE}"
        )


def _golden_view(fingerprint) -> dict:
    """The fingerprint as the golden file stores it.

    The event list is replaced by its length (the digest already pins
    order and content) and everything goes through a JSON round trip,
    which stringifies integer dict keys and preserves floats exactly.
    """
    view = dict(fingerprint, events=len(fingerprint["events"]))
    return json.loads(json.dumps(view))


def _assert_matches_golden(scenario, fingerprint, label):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)[scenario]
    view = _golden_view(fingerprint)
    assert sorted(view) == sorted(golden), f"{label}: fingerprint keys changed"
    for key, expected in golden.items():
        assert view[key] == expected, (
            f"{label}: {key} diverged from the committed golden"
        )


def _check_scenario(scenario, batch_size):
    """``batch_size`` must equal both the reference run and the goldens."""
    kwargs = SCENARIOS[scenario]
    label = f"{scenario}/batch={batch_size}"
    reference = _fingerprint(REFERENCE, **kwargs)
    _assert_matches_golden(scenario, reference, f"{scenario}/reference")
    candidate = _fingerprint(batch_size, **kwargs)
    _assert_identical(reference, candidate, label)
    _assert_matches_golden(scenario, candidate, label)
    return reference


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_clean_trace_identical(batch_size):
    reference = _check_scenario("clean", batch_size)
    assert reference["events"], "sanity: the run must deliver events"


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_overlap_heavy_trace_identical(batch_size):
    reference = _check_scenario("overlap", batch_size)
    assert reference["events"]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_overload_with_cutoff_identical(batch_size):
    reference = _check_scenario("overload_cutoff", batch_size)
    assert reference["result"]["discarded_packets"] > 0 or (
        reference["result"]["dropped_packets"] > 0
    ), "sanity: overload must engage drop/discard machinery"


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_wire_faulted_trace_identical(batch_size):
    reference = _check_scenario("wire_faulted", batch_size)
    assert reference["stats"]["faults_injected_total"] > 0, (
        "sanity: the plan must actually inject faults"
    )


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_reordered_trace_identical(batch_size, monkeypatch):
    multi_piece = []
    on_segment = TCPDirectionReassembler.on_segment

    def counting_on_segment(self, seq, payload, now=0.0):
        delivered = on_segment(self, seq, payload, now=now)
        if len(delivered) > 1:
            multi_piece.append(len(delivered))
        return delivered

    monkeypatch.setattr(TCPDirectionReassembler, "on_segment", counting_on_segment)
    reference = _check_scenario("reorder", batch_size)
    # Two runs (reference + candidate) share the counter.
    assert len(multi_piece) >= 2 * 20, (
        "sanity: the trace must keep producing multi-piece deliveries"
    )
    assert reference["result"]["dropped_packets"] > 0, (
        "sanity: the pool must run out while pieces are being stored"
    )


def _observed_capture(trace, **socket_kwargs):
    """Capture ``trace`` with observability on; count registry resolutions.

    Returns ``(socket, names)``: every family name ``MetricsRegistry``
    was asked to resolve while ``start_capture`` ran, in call order.
    """
    resolved = []
    family = MetricsRegistry._family

    def counting_family(self, name, *args, **kwargs):
        resolved.append(name)
        return family(self, name, *args, **kwargs)

    socket = ScapSocket(trace, observability=Observability(enabled=True), **socket_kwargs)
    socket.dispatch_data(lambda sd: None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MetricsRegistry, "_family", counting_family)
        socket.start_capture(name="quiet")
    return socket, resolved


def test_reassembler_construction_is_quiet():
    """The reassembly families are resolved once per capture, not per direction.

    Every reassembler used to register its three families again (3
    ``_family`` calls per TCP direction on top of the runtime's own).
    What the shared instruments record is pinned elsewhere: the
    overlap / hole / out-of-order-depth values of an enabled run are
    inside the ``registry`` golden of every scenario above, unedited.
    """
    kwargs = {k: v for k, v in SCENARIOS["reorder"].items() if k != "trace_factory"}
    trace = _reorder_trace()
    socket, resolved = _observed_capture(trace, **kwargs)
    directions = 2 * sum(1 for flow in trace.flows if flow.protocol == 6)
    socket.close()
    assert directions > 50, "sanity: many reassemblers were built"
    reassembly = [name for name in resolved if name.startswith("scap_reassembly_")]
    assert sorted(reassembly) == [
        "scap_reassembly_holes_skipped_total",
        "scap_reassembly_ooo_depth",
        "scap_reassembly_overlap_decisions_total",
    ]
    assert len(resolved) <= 24  # independent of the number of connections


def test_capture_without_tcp_exports_no_reassembly_family():
    """The instruments are resolved lazily, at the first TCP direction."""
    five_tuple = FiveTuple(0x0A000001, 5353, 0x0A000002, 53, 17)
    packets = build_udp_flow(five_tuple, [(0, b"query"), (1, b"answer" * 20)] * 8)
    socket, resolved = _observed_capture(Trace(packets, [], name="udp-only"))
    exported = socket.export_metrics("json")
    socket.close()
    assert "scap_core_packets_total" in exported, "sanity: the run was observed"
    assert "scap_reassembly_" not in exported
    assert not [name for name in resolved if name.startswith("scap_reassembly_")]


def test_store_contents_identical(tmp_path):
    kwargs = SCENARIOS["store"]
    reference = _fingerprint(REFERENCE, store_dir=tmp_path / "reference", **kwargs)
    candidate = _fingerprint(64, store_dir=tmp_path / "batched", **kwargs)
    assert reference["store_files"], "sanity: the store must have written something"
    _assert_identical(reference, candidate, "store/batch=64")
    _assert_matches_golden("store", reference, "store/reference")
    _assert_matches_golden("store", candidate, "store/batch=64")


def _record_goldens() -> None:
    """Rewrite the golden file from the reference batch size."""
    goldens = {}
    for scenario, kwargs in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as scratch:
            store_dir = os.path.join(scratch, "store") if scenario == "store" else None
            goldens[scenario] = _golden_view(
                _fingerprint(REFERENCE, store_dir=store_dir, **kwargs)
            )
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/batch/test_differential.py --record")
    _record_goldens()
