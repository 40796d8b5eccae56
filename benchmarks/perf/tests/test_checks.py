"""Every failure check fires on a deliberately broken stub."""

import copy
import os
import signal
import tempfile
from types import SimpleNamespace

import pytest

from benchmarks.perf import phases, runner
from benchmarks.perf.speed import Speed
from repro.results import RunResult


def _result(**changes):
    fields = dict(system="scap", rate_bps=1e9, duration=1.0, offered_packets=10,
                  offered_bytes=1000, delivered_bytes=500, delivered_events=3)
    fields.update(changes)
    return RunResult(**fields)


def test_a_pass_whose_counters_differ_from_the_first_fails_determinism(tiny):
    ledger = phases.Ledger()
    reference = phases._fingerprint(_result())
    phases.check_pass(ledger, tiny[0], _result(), reference)
    assert (ledger.attempted, ledger.failed) == (1, 0)
    phases.check_pass(ledger, tiny[0], _result(delivered_bytes=499), reference)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failures[0].startswith("determinism")


def test_a_dropped_packet_fails_a_zero_drop_workload(tiny):
    ledger = phases.Ledger()
    dropped = _result(dropped_packets=1)
    phases.check_pass(ledger, tiny[0], dropped, phases._fingerprint(dropped))
    assert ledger.failed == 1 and ledger.failures[0].startswith("zero_drop")


def test_a_writer_drop_or_an_unwritten_byte_fails_the_store_ledger():
    good = SimpleNamespace(writer_queue_drops=0, enqueued_bytes=10, written_bytes=10,
                           writer_queue_drop_bytes=0)
    for broken in (dict(written_bytes=9), dict(writer_queue_drops=1, written_bytes=9,
                                               writer_queue_drop_bytes=1)):
        ledger = phases.Ledger()
        phases.check_store_ledger(ledger, good)
        assert ledger.failed == 0
        phases.check_store_ledger(ledger, SimpleNamespace(**{**vars(good), **broken}))
        assert ledger.failed == 1


class _CorruptingStore:
    """A store proxy that flips a byte where the test asks it to."""

    def __init__(self, store, corrupt_points=False, corrupt_replay=False):
        self._store = store
        self._corrupt_points = corrupt_points
        self._corrupt_replay = corrupt_replay

    def __getattr__(self, name):
        return getattr(self._store, name)

    @staticmethod
    def _flip(result):
        result = copy.copy(result)
        result.streams = [copy.copy(stream) for stream in result.streams]
        victim = max(result.streams, key=lambda stream: len(stream.data))
        victim.data = bytes([victim.data[0] ^ 1]) + victim.data[1:]
        return result

    def query(self, five_tuple=None, **kwargs):
        result = self._store.query(five_tuple=five_tuple, **kwargs)
        if five_tuple is not None and self._corrupt_points:
            return self._flip(result)
        return result

    def replay_source(self):
        from repro.store.replay import StoredStreamSource

        result = self._store.query()
        return StoredStreamSource(self._flip(result) if self._corrupt_replay else result)


@pytest.fixture
def store(tiny, tmp_path):
    item, _, store_trace = tiny
    _, recorded = phases.record_phase(
        store_trace, item, phases.Ledger(), Speed(), str(tmp_path), 0.0, 1, warmups=0)
    yield recorded
    recorded.close(enforce_retention=False)


@pytest.mark.parametrize("broken, check", [
    (dict(corrupt_points=True), "point_query_bytes"),
    (dict(corrupt_replay=True), "replay_identity"),
])
def test_a_corrupted_query_or_replay_is_caught(store, broken, check):
    def run(target):
        ledger = phases.Ledger()
        phases.query_phase(target, ledger, Speed(), 1, 0.0, 1, 16)
        phases.check_replay_identity(target, ledger)
        return ledger

    ledger = run(store)
    assert ledger.failed == 0, ledger.failures
    ledger = run(_CorruptingStore(store, **broken))
    assert ledger.failed >= 1
    assert {failure.split(":")[0] for failure in ledger.failures} == {check}


class _SkippingClient:
    """A subscription whose third event is lost on the way."""

    client_id = 1

    def __init__(self):
        self._seq = iter([0, 1, 3, 4])

    def subscribe(self, events):
        return self

    def next_event(self, timeout):
        seq = next(self._seq, None)
        return None if seq is None else SimpleNamespace(header={"seq": seq})


def test_a_subscriber_that_skips_a_seq_counts_a_gap():
    subscriber = phases.Subscriber(_SkippingClient())
    assert subscriber.wait_for(4, timeout=5.0)
    subscriber.stop()
    assert subscriber.seq_gaps == 1


def test_session_ledgers_must_balance_and_drop_nothing():
    def client(client_id, enqueued, delivered, dropped, queued):
        return {"client_id": client_id, "queued": queued,
                "ledger": {"enqueued": enqueued, "delivered": delivered, "dropped": dropped}}

    assert phases.unbalanced_clients([client(1, 5, 5, 0, 0), client(2, 5, 3, 0, 2)]) == []
    assert phases.unbalanced_clients([client(1, 5, 4, 1, 0)]) == [1]  # a drop
    assert phases.unbalanced_clients([client(2, 5, 4, 0, 0)]) == [2]  # a lost event


def test_service_checks_fire(tiny, pcap, tmp_path):
    """One real daemon, three broken things: a wrong reference digest, a
    subscriber that holds no events, a daemon that exits non-zero."""
    item = tiny[0]
    speed = Speed()
    twin = phases.library_twin_digest(pcap[1], item, str(tmp_path))
    session = phases.ServiceSession(str(tmp_path), "checks", item, wait_seconds=0.3)
    good, wrong_twin, starved = phases.Ledger(), phases.Ledger(), phases.Ledger()
    try:
        phases.service_phase(session, pcap[0], twin, good, speed, 0.0, 1, 200, 1, warmups=1)
        phases.service_phase(session, pcap[0], "0" * 64, wrong_twin, speed, 0.0, 1, 200, 1,
                             warmups=0)
        # Stop the drain: the events are sent but never held.
        session.subscribers[0].stop()
        session.submit(pcap[0], starved, speed)
        stop = session.daemon.stop
        session.daemon.stop = lambda client=None: stop(client) or 1
    finally:
        session.close(good)
    assert {f.split(":")[0] for f in wrong_twin.failures} == {"daemon_query_bytes"}
    assert {f.split(":")[0] for f in starved.failures} == {"event_count"}
    assert starved.failed > 1  # one per missing event, not one per capture
    assert {f.split(":")[0] for f in good.failures} == {"daemon_exit"}
    assert good.checks.keys() >= set(phases.PHASE_CHECKS["service"])


def test_a_run_that_skips_a_check_exits_non_zero_without_a_result(monkeypatch, capsys):
    monkeypatch.setitem(phases.PHASE_CHECKS, "capture", ("determinism", "zero_drop", "never_run"))
    affinity = os.sched_getaffinity(0)
    tmpdir, handler = tempfile.tempdir, signal.getsignal(signal.SIGTERM)
    monkeypatch.setenv("TMPDIR", os.environ.get("TMPDIR", tempfile.gettempdir()))
    try:
        code = runner.run_workload("bulk_delivery", 11, 0.5, True, "tiny")
    finally:
        os.sched_setaffinity(0, affinity)
        tempfile.tempdir = tmpdir
        signal.signal(signal.SIGTERM, handler)
    captured = capsys.readouterr()
    assert code == 3
    assert "never_run" in captured.err and captured.out == ""
