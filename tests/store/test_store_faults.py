"""Store fault plane: injected EIO, torn seals, fsync stalls, ledgers.

The injector's store plane feeds the writer pipeline exactly the crash
shapes the segment reader's truncation recovery was built for; these
tests pin down the contract — errored records move to the dropped side
of the ledger (accounting still balances under sanitizers), torn
segments stay readable through recovery, and every injected fault is
visible in the writer's counters.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.faultinject import FaultInjector, FaultPlan, StoreFaults
from repro.netstack import FiveTuple, IPProtocol
from repro.sanitizers import SanitizerContext
from repro.store import StreamRecord, StreamStore
from repro.store.segment import read_segment


def _record(n=0, size=100):
    return StreamRecord(
        five_tuple=FiveTuple(10, 1000 + (n % 7), 20, 80, IPProtocol.TCP),
        direction=0,
        stream_offset=n * size,
        timestamp=float(n) / 1000.0,
        data=bytes([n % 251]) * size,
    )


def _store(tmp_path, plan, sanitizers=None, **kwargs):
    store = StreamStore(str(tmp_path), sanitizers=sanitizers, **kwargs)
    store.writer.attach(fault_injector=FaultInjector(plan))
    return store


def test_injected_write_errors_reconcile_and_balance(tmp_path):
    sanitizers = SanitizerContext()
    plan = FaultPlan(seed=1, store=StoreFaults(write_error_rate=0.2))
    store = _store(tmp_path, plan, sanitizers=sanitizers)
    for n in range(200):
        store.append(_record(n))
    stats = store.close()
    writer = store.writer
    assert writer.write_errors > 0
    injector = writer._fault
    assert writer.write_errors == injector.count("store", "write_error")
    assert writer.write_error_bytes == writer.write_errors * 100
    # Ledger balance: enqueued == written + dropped, with injected
    # errors on the dropped side.
    assert writer.outstanding_bytes == 0
    assert stats.enqueued_bytes == stats.written_bytes + writer.dropped_bytes
    # Surviving records are all on disk and readable.
    assert stats.record_count == 200 - writer.write_errors


def test_torn_seal_truncates_but_stays_readable(tmp_path):
    plan = FaultPlan(seed=3, store=StoreFaults(torn_write_rate=1.0))
    store = _store(tmp_path, plan, segment_bytes=2048)
    for n in range(60):
        store.append(_record(n))
    store.close()
    writer = store.writer
    assert writer.segments_torn > 0
    assert writer.segments_torn == writer._fault.count("store", "torn_write")
    paths = sorted(glob.glob(os.path.join(str(tmp_path), "seg-*.scap")))
    assert paths, "torn segments must remain on disk"
    recovered = 0
    for path in paths:
        records, info = read_segment(path)  # must not raise
        assert not info.sealed
        recovered += len(records)
    # Tearing chops at most the tail; earlier whole records survive.
    assert 0 < recovered < 60


def test_torn_segment_not_indexed(tmp_path):
    plan = FaultPlan(seed=3, store=StoreFaults(torn_write_rate=1.0))
    store = _store(tmp_path, plan, segment_bytes=2048)
    for n in range(60):
        store.append(_record(n))
    stats = store.close()
    # A torn seal never reaches on_seal, so the live index holds none
    # of its records; recovery happens on the next directory open.
    assert stats.segment_count == 0
    assert stats.record_count == 0
    reopened = StreamStore(str(tmp_path))
    assert reopened.stats().record_count > 0
    reopened.close()


def test_attach_after_first_enqueue_rejected(tmp_path):
    store = StreamStore(str(tmp_path))
    store.append(_record(0))
    with pytest.raises(ValueError):
        store.writer.attach(fault_injector=FaultInjector(FaultPlan(seed=0)))
    store.close()


def test_same_seed_same_store_faults(tmp_path):
    plan = FaultPlan(
        seed=11, store=StoreFaults(write_error_rate=0.1, torn_write_rate=0.3)
    )
    digests = []
    for run in range(2):
        directory = tmp_path / f"run{run}"
        store = _store(directory, plan, segment_bytes=2048)
        for n in range(120):
            store.append(_record(n))
        store.close()
        digests.append(store.writer._fault.schedule_digest())
    assert digests[0] == digests[1]
