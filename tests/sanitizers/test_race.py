"""The SCAP_RACE runtime race detector: harness trips, clean runs don't."""

from __future__ import annotations

import threading

import pytest

from repro.core.flowtable import FlowTable
from repro.netstack.flows import FiveTuple
from repro.sanitizers import (
    InvariantViolation,
    RaceDetector,
    race_detector_from_env,
    race_enabled,
    reset_race_detector,
)
from repro.service import DaemonConfig, RemoteCallError, ScapClient, ScapDaemon
from repro.service.protocol import ERR_INTERNAL

TUPLE = FiveTuple(0x0A000001, 40000, 0x0A000002, 80, 6)


def provoke_owner_race(resource: str = "harness") -> InvariantViolation:
    """Deterministic two-thread owner-mode conflict; returns the violation.

    The first thread claims the resource and *then* releases the second
    via an event, so the conflicting access order is fixed — no timing
    luck involved, which is what makes the reported digest repeatable.
    """
    detector = RaceDetector()
    token = detector.register(resource)
    claimed = threading.Event()
    intruded = threading.Event()
    caught: list = []

    def owner() -> None:
        detector.check(token, op="write")
        claimed.set()
        # Stay alive until the intruder has checked: if this thread
        # exits first, the OS may recycle its ident for the intruder
        # and the two accesses would look same-threaded.
        intruded.wait(timeout=5.0)

    def intruder() -> None:
        claimed.wait(timeout=5.0)
        try:
            detector.check(token, op="write")
        except InvariantViolation as violation:
            caught.append(violation)
        finally:
            intruded.set()

    threads = [
        threading.Thread(target=owner, name="race-owner"),
        threading.Thread(target=intruder, name="race-intruder"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(caught) == 1, "the seeded harness must trip exactly once"
    return caught[0]


class TestOwnerMode:
    def test_seeded_harness_trips_with_both_stack_tails(self):
        violation = provoke_owner_race()
        assert violation.invariant == "race"
        details = violation.details
        assert details["first_thread"] == "race-owner"
        assert details["second_thread"] == "race-intruder"
        # Both conflicting stacks are attached and name the harness.
        assert "owner" in details["first_stack"]
        assert "intruder" in details["second_stack"]
        assert len(details["digest"]) == 16

    def test_digest_is_deterministic_across_three_runs(self):
        digests = {provoke_owner_race().details["digest"] for _ in range(3)}
        assert len(digests) == 1

    def test_single_thread_run_is_clean(self):
        detector = RaceDetector()
        token = detector.register("clean")
        for _ in range(100):
            detector.check(token)
        assert detector.violations == 0

    def test_violation_counter_tracks_failures(self):
        violation = provoke_owner_race()
        assert violation.details["mode"] == "owner"


class TestEnvironmentWiring:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("SCAP_RACE", raising=False)
        reset_race_detector()
        assert not race_enabled()
        assert race_detector_from_env() is None

    def test_enabled_detector_is_process_wide(self, monkeypatch):
        monkeypatch.setenv("SCAP_RACE", "1")
        reset_race_detector()
        try:
            assert race_enabled()
            first = race_detector_from_env()
            assert first is not None
            assert race_detector_from_env() is first
        finally:
            reset_race_detector()

    def test_instrumented_flowtable_catches_cross_thread_mutation(
        self, monkeypatch
    ):
        monkeypatch.setenv("SCAP_RACE", "1")
        reset_race_detector()
        try:
            table = FlowTable()
            pair, _, _ = table.lookup_or_create(TUPLE, now=0.0)  # main thread owns it
            caught: list = []

            def intruder() -> None:
                # Each entry checks before it reads or writes the table,
                # the inlined miss and unindex paths included.
                for mutate in (
                    lambda: table.expire_idle(now=100.0, default_timeout=1.0),
                    lambda: table.remove(pair),
                    lambda: table.lookup_or_create(TUPLE._replace(src_port=40001), now=1.0),
                ):
                    try:
                        mutate()
                    except InvariantViolation as violation:
                        caught.append(violation)

            thread = threading.Thread(target=intruder, name="ft-intruder")
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert [violation.details["resource"] for violation in caught] == ["FlowTable"] * 3
            # Nothing the intruder tried reached the table.
            assert list(table) == [pair] and table.lookup(TUPLE.reversed()) is pair.records[1]
        finally:
            reset_race_detector()

    @pytest.mark.parametrize("entry", ["enqueue", "flush"])
    def test_store_writer_catches_a_second_thread(self, monkeypatch, tmp_path, entry):
        # The writer is one owner-mode resource, checked at its mutation
        # entry points with observability *off*: construct anywhere, the
        # first thread to write owns it, any other thread is a race.
        monkeypatch.setenv("SCAP_RACE", "1")
        reset_race_detector()
        try:
            from repro.store import StreamRecord, StreamStore

            def record(n: int) -> StreamRecord:
                return StreamRecord(
                    five_tuple=TUPLE,
                    direction=0,
                    stream_offset=n * 200,
                    timestamp=float(n),
                    data=bytes(200),
                    priority=0,
                )

            store = StreamStore(str(tmp_path), cores=2)
            store.stats()  # reads take no check and claim nothing
            store.append(record(0))  # main thread owns the writer now
            caught: list = []

            def intruder() -> None:
                try:
                    if entry == "enqueue":
                        store.writer.enqueue(1, record(1))
                    else:
                        store.flush()
                except InvariantViolation as violation:
                    caught.append(violation)

            thread = threading.Thread(target=intruder, name="store-intruder")
            thread.start()
            thread.join()
            assert len(caught) == 1
            assert caught[0].invariant == "race"
            details = caught[0].details
            assert details["resource"] == "StoreWriter"
            assert details["first_thread"] == threading.current_thread().name
            assert details["second_thread"] == "store-intruder"
            assert "append" in details["first_stack"]
            assert "intruder" in details["second_stack"]
            store.close()  # the owner is unaffected and still balances
            assert store.writer.outstanding_bytes == 0
        finally:
            reset_race_detector()

    def test_daemon_loop_thread_touching_the_store_is_caught(
        self, monkeypatch, tmp_path
    ):
        # The daemon's discipline: only scapd-owner touches the store,
        # and the loop thread hands it jobs.  The real stats handler
        # keeps it; then seed the bug it rules out -- the loop-side
        # handler draining the writer -- and the detector must name
        # StoreWriter and both threads.
        monkeypatch.setenv("SCAP_RACE", "1")
        reset_race_detector()
        seeded = threading.Event()
        caught: list = []
        plain_stats = ScapDaemon._cmd_stats

        def stats(daemon, request, frame):
            if seeded.is_set():
                try:
                    daemon.store.writer.drain()
                except InvariantViolation as violation:
                    caught.append(violation)
                    raise
            return plain_stats(daemon, request, frame)

        monkeypatch.setattr(ScapDaemon, "_cmd_stats", stats)
        daemon = ScapDaemon(DaemonConfig(store_dir=str(tmp_path / "store")))
        path = daemon.add_unix_listener(str(tmp_path / "scapd.sock"))
        daemon.start()
        client = ScapClient(unix_path=path)
        try:
            # The capture's records make scapd-owner the writer's owner.
            assert client.submit_campus(flows=4, seed=3)["streams_created"] > 0
            assert client.stats()["store"]["record_count"] > 0
            seeded.set()
            with pytest.raises(RemoteCallError) as err:
                client.stats()
        finally:
            client.close()
            daemon.shutdown()
            reset_race_detector()
        assert err.value.code == ERR_INTERNAL
        assert "StoreWriter" in str(err.value)
        assert len(caught) == 1
        details = caught[0].details
        assert details["resource"] == "StoreWriter"
        assert details["first_thread"] == "scapd-owner"
        assert details["second_thread"] == "scapd-loop"
        assert "owner.py:capture" in details["first_stack"]
        assert "daemon.py:_dispatch" in details["second_stack"]

    def test_instrumented_flowtable_clean_on_one_thread(self, monkeypatch):
        monkeypatch.setenv("SCAP_RACE", "1")
        reset_race_detector()
        try:
            table = FlowTable()
            pair, created, _ = table.lookup_or_create(TUPLE, now=0.0)
            assert created
            table.touch(pair, now=1.0)
            table.remove(pair)
            assert table.drain() == []
        finally:
            reset_race_detector()
