"""Writer pipeline: per-core write batches, balanced ledger."""

import hashlib
import os

import pytest

from repro.faultinject import FaultInjector, FaultPlan, StoreFaults
from repro.netstack import FiveTuple, IPProtocol
from repro.observability import Observability
from repro.sanitizers import InvariantViolation, SanitizerContext
from repro.store import StoreWriter, StreamRecord, StreamStore
from repro.store.writer import DRAIN_BYTES


def _record(n=0, size=100, priority=0):
    return StreamRecord(
        five_tuple=FiveTuple(10, 1000 + n, 20, 80, IPProtocol.TCP),
        direction=0,
        stream_offset=0,
        timestamp=float(n),
        data=bytes([n % 251]) * size,
        priority=priority,
    )


def _assert_written_whole(store, records):
    """Close ``store``: every byte of ``records`` must reach a segment."""
    stats = store.close()
    assert stats.writer_queue_drops == 0
    assert stats.enqueued_bytes == stats.written_bytes
    assert stats.written_bytes == sum(len(record.data) for record in records)
    assert stats.record_count == len(records)


class TestStoreWriter:
    def test_ledger_balances_at_close(self, tmp_path):
        writer = StoreWriter(str(tmp_path), cores=2)
        total = 0
        for n in range(50):
            writer.enqueue(n % 2, _record(n))
            total += 100
        writer.close()
        assert writer.written_bytes == total
        assert writer.dropped_bytes == 0
        assert writer.outstanding_bytes == 0
        assert writer.queue_depth_bytes == 0

    def test_record_above_the_drain_point_written_whole(self, tmp_path):
        store = StreamStore(str(tmp_path))
        record = _record(0, size=5 << 20)
        store.append(record)
        _assert_written_whole(store, [record])

    def test_large_record_behind_pending_ones_evicts_nothing(self, tmp_path):
        records = [_record(n, size=512 << 10) for n in range(3)]
        records.append(_record(3, size=3 << 20))
        store = StreamStore(str(tmp_path))
        for record in records[:3]:
            store.append(record)
        assert store.writer.queue_depth_bytes == 3 * (512 << 10)  # below the drain point
        store.append(records[3])
        assert store.writer.queue_depth_bytes == 0  # drained with all four in it
        _assert_written_whole(store, records)

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
            str(tmp_path), cores=2, segment_bytes=600, observability=obs,
            fault_injector=FaultInjector(
                FaultPlan(seed=1, store=StoreFaults(write_error_rate=0.2))
            ),
        )
        value = obs.registry.value

        def assert_ledger():
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

        for n in range(200):
            # Mixed sizes: inline drains (a record of DRAIN_BYTES drains
            # its core at once), rolls and injected write errors all occur.
            size = DRAIN_BYTES if n % 41 == 40 else 60 + 45 * (n % 9)
            writer.enqueue(n % 2, _record(n, size=size, priority=n % 3))
            assert_ledger()
        assert writer.dropped_bytes and writer.segments_sealed > 2
        writer.close()
        assert_ledger()
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

        monkeypatch.setattr("repro.store.index.index_segment", no_reread)
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
            assert live.info.columns == scanned.info.columns  # every row of every column
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
            writer.attach(sanitizers=SanitizerContext())
        with pytest.raises(ValueError):
            writer.attach(fault_injector=FaultInjector(FaultPlan(seed=0)))
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
        """Seeded violation: bytes cleared from a write batch but never
        written or counted as dropped must trip the store-accounting
        sanitizer."""
        san = SanitizerContext()
        writer = StoreWriter(str(tmp_path), cores=1, sanitizers=san)
        writer.enqueue(0, _record(0))
        writer._pending[0].clear()  # simulate a buggy drain losing records
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
