"""Writer pipeline: bounded queues, PPL-style overflow, balanced ledger."""

import hashlib
import os

import pytest

from repro.netstack import FiveTuple, IPProtocol
from repro.observability import Observability
from repro.sanitizers import InvariantViolation, SanitizerContext
from repro.store import SpillQueue, StoreWriter, StreamRecord, StreamStore


def _record(n=0, size=100, priority=0):
    return StreamRecord(
        five_tuple=FiveTuple(10, 1000 + n, 20, 80, IPProtocol.TCP),
        direction=0,
        stream_offset=0,
        timestamp=float(n),
        data=bytes([n % 251]) * size,
        priority=priority,
    )


class TestSpillQueue:
    def test_accepts_until_full(self):
        queue = SpillQueue(0, queue_bytes=250)
        assert queue.offer(_record(0))[0]
        assert queue.offer(_record(1))[0]
        assert queue.depth_bytes == 200

    def test_overflow_evicts_lowest_priority_oldest_first(self):
        queue = SpillQueue(0, queue_bytes=300)
        low_old = _record(0, priority=1)
        low_new = _record(1, priority=1)
        high = _record(2, priority=5)
        for record in (low_old, low_new, high):
            assert queue.offer(record)[0]
        accepted, victims = queue.offer(_record(3, priority=5))
        assert accepted
        assert victims == [low_old]  # oldest among the lowest priority
        assert queue.dropped_bytes == 100

    def test_newcomer_dropped_when_outranked(self):
        queue = SpillQueue(0, queue_bytes=200)
        for n in range(2):
            assert queue.offer(_record(n, priority=9))[0]
        accepted, victims = queue.offer(_record(2, priority=0))
        assert not accepted and victims == []
        assert queue.depth_bytes == 200  # high-priority work untouched
        assert queue.dropped_records == 1

    def test_oversized_record_dropped_outright(self):
        queue = SpillQueue(0, queue_bytes=100)
        accepted, victims = queue.offer(_record(0, size=101))
        assert not accepted and victims == []
        assert queue.depth_bytes == 0


class TestStoreWriter:
    def test_ledger_balances_at_close(self, tmp_path):
        writer = StoreWriter(str(tmp_path), cores=2, queue_bytes=1 << 20)
        total = 0
        for n in range(50):
            assert writer.enqueue(n % 2, _record(n))
            total += 100
        writer.close()
        assert writer.written_bytes == total
        assert writer.dropped_bytes == 0
        assert writer.outstanding_bytes == 0
        assert writer.queue_depth_bytes == 0

    def test_overflow_counts_into_ledger(self, tmp_path):
        # Queue bound of 250 B and 100 B records: inline drain triggers
        # at >=125 B depth, so no overflow happens synchronously; force
        # it by offering an oversized record.
        writer = StoreWriter(str(tmp_path), cores=1, queue_bytes=250)
        assert writer.enqueue(0, _record(0))
        assert not writer.enqueue(0, _record(1, size=300))
        writer.close()
        assert writer.written_bytes == 100
        assert writer.dropped_bytes == 300
        assert writer.outstanding_bytes == 0

    def test_segments_roll_at_size(self, tmp_path):
        sealed = []
        writer = StoreWriter(
            str(tmp_path), cores=1, segment_bytes=1000, on_seal=sealed.append
        )
        for n in range(30):
            writer.enqueue(0, _record(n, size=200))
        writer.close()
        assert writer.segments_sealed == len(sealed) >= 2
        assert sum(info.record_count for info in sealed) == 30

    def test_per_core_segment_series(self, tmp_path):
        writer = StoreWriter(str(tmp_path), cores=3)
        for core in range(3):
            writer.enqueue(core, _record(core))
        infos = writer.close()
        assert sorted(info.core for info in infos) == [0, 1, 2]
        names = sorted(path.name for path in tmp_path.iterdir())
        assert [name.split("-")[1] for name in names] == ["0", "1", "2"]

    def test_registry_ledger_balances_after_every_enqueue(self, tmp_path):
        # Drains and seals emit their metrics directly, so the exported
        # ledger holds mid-run, not only once close() has flushed.
        obs = Observability(enabled=True)
        writer = StoreWriter(
            str(tmp_path), cores=2, queue_bytes=1000, segment_bytes=600,
            observability=obs,
        )
        value = obs.registry.value
        for n in range(200):
            # Mixed priorities and sizes: inline drains, rolls, evictions
            # and (size 1100 > queue_bytes) outright drops all occur.
            size = 1100 if n % 41 == 40 else 60 + 45 * (n % 9)
            writer.enqueue(n % 2, _record(n, size=size, priority=n % 3))
            enqueued = value("scap_store_enqueued_bytes_total")
            written = value("scap_store_written_bytes_total")
            dropped = value("scap_store_dropped_bytes_total")
            depth = sum(
                value("scap_store_queue_depth_bytes", core) for core in range(2)
            )
            assert enqueued == written + dropped + depth
            assert enqueued == writer.enqueued_bytes
            assert written == writer.written_bytes
            assert dropped == writer.dropped_bytes
            assert depth == writer.queue_depth_bytes
        assert writer.dropped_bytes and writer.segments_sealed > 2
        writer.close()
        assert value("scap_store_segments_sealed_total") == writer.segments_sealed
        assert writer.outstanding_bytes == 0

    @pytest.mark.parametrize("compress", [False, True])
    def test_sealed_segments_indexed_as_a_reopen_would(self, tmp_path, compress, monkeypatch):
        # Sealing indexes a segment from what the writer kept, without
        # reading the file back; a fresh store scans the same files.
        # Both must arrive at the same index.
        store = StreamStore(str(tmp_path), cores=2, segment_bytes=400, compress=compress)

        def no_reread(path):
            raise AssertionError(f"sealing re-read {path}")

        monkeypatch.setattr("repro.store.index.read_segment", no_reread)
        for n in range(40):
            store.append(_record(n, size=20 + 37 * (n % 7)), core=n % 2)
            if n == 25:
                store.flush()  # seal mid-run, besides the rolls at segment_bytes
        store.flush()
        monkeypatch.undo()
        assert len(store.index.segments) > 4
        reopened = StreamStore(str(tmp_path))
        assert sorted(reopened.index.segments) == sorted(store.index.segments)
        for path, live in store.index.segments.items():
            scanned = reopened.index.segments[path]
            assert live.records == scanned.records  # every RecordMeta row
            assert live.info == scanned.info  # sealed, counts, bytes, time range
            assert live.info.disk_bytes == os.path.getsize(path)
        assert store.index.record_count == 40
        assert store.query().streams == reopened.query().streams
        store.close(enforce_retention=False)
        reopened.close(enforce_retention=False)

    def test_attach_sanitizers_rejected_once_in_use(self, tmp_path):
        writer = StoreWriter(str(tmp_path), cores=1)
        writer.enqueue(0, _record(0))
        with pytest.raises(ValueError):
            writer.attach_sanitizers(SanitizerContext())
        writer.close()


class TestStoreSanitizer:
    def test_silent_on_balanced_pipeline(self, tmp_path):
        san = SanitizerContext()
        writer = StoreWriter(str(tmp_path), cores=1, sanitizers=san)
        for n in range(20):
            writer.enqueue(0, _record(n))
        writer.close()  # runs check_teardown; must not raise
        assert san.store.outstanding == 0

    def test_seeded_vanishing_bytes_fire_at_teardown(self, tmp_path):
        """Seeded violation: bytes popped from a queue but never written
        or counted as dropped must trip the store-accounting sanitizer."""
        san = SanitizerContext()
        writer = StoreWriter(str(tmp_path), cores=1, queue_bytes=1 << 20, sanitizers=san)
        writer.enqueue(0, _record(0))
        writer.queues[0].pop_all()  # simulate a buggy drain losing records
        with pytest.raises(InvariantViolation) as excinfo:
            writer.close()
        assert excinfo.value.invariant == "store-accounting"
        assert excinfo.value.details["outstanding"] == 100

    def test_seeded_overcounted_write_fires_immediately(self):
        san = SanitizerContext()
        san.store.on_enqueue(50)
        with pytest.raises(InvariantViolation) as excinfo:
            san.store.on_write(80)  # wrote more than was ever enqueued
        assert excinfo.value.invariant == "store-accounting"

    @pytest.mark.parametrize("compress", [False, True])
    def test_same_records_give_identical_segment_files(self, tmp_path, compress):
        # Single-owner writing: segment names and bytes are a pure
        # function of the record sequence, on every run.
        def record_into(directory):
            store = StreamStore(
                str(directory), cores=2, segment_bytes=400, compress=compress
            )
            for n in range(60):
                store.append(_record(n, size=20 + 37 * (n % 7)), core=n % 2)
            store.close(enforce_retention=False)
            return {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(directory.iterdir())
            }

        first = record_into(tmp_path / "a")
        second = record_into(tmp_path / "b")
        assert len(first) > 4
        assert first == second
