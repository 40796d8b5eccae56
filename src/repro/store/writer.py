"""The store's writer pipeline: bounded spill queues drained by their owner.

Recording must never stall the capture path, so deliveries are
*enqueued* on bounded per-core spill queues and written to segment
files in batches — the same decoupling the PF_RING/n2disk dump
pipelines use.  The pipeline is **single-owner**: construct a writer
anywhere, then drive it (``enqueue``/``drain``/``seal_all``/``close``)
from one thread — the capture thread in library mode, ``scapd-owner``
in service mode.  Nothing here takes a lock, and ``SCAP_RACE=1``
checks that no second thread ever arrives.  Three properties are
enforced:

* **bounded memory** — each queue holds at most ``queue_bytes`` of
  payload; an enqueue that does not fit evicts queued records
  *oldest-lowest-priority first* (mirroring PPL semantics: under
  pressure, high-priority streams and stream heads survive), and if
  the incoming record's priority is below everything queued, the
  incoming record itself is dropped;
* **balanced accounting** — every enqueued byte is eventually either
  written to a segment or counted as dropped; the ledger
  ``enqueued == written + dropped`` must balance to zero outstanding
  at teardown (checked by the store sanitizer);
* **determinism** — a queue drains inline whenever it crosses half its
  bound (and on ``drain()``/``close()``), so every byte's fate, every
  segment name and every segment byte is a pure function of the input
  sequence, always.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Deque, List, Optional, Tuple

from ..observability import NULL_OBSERVABILITY, STAGE_STORE_DRAIN, Observability
from ..sanitizers.race import race_detector_from_env
from .segment import SegmentInfo, SegmentWriter, StreamRecord

__all__ = ["SpillQueue", "StoreWriter", "DEFAULT_QUEUE_BYTES", "DEFAULT_SEGMENT_BYTES"]

DEFAULT_QUEUE_BYTES = 4 << 20
DEFAULT_SEGMENT_BYTES = 16 << 20


class SpillQueue:
    """One core's bounded spill queue of pending stream records.

    Owned by its :class:`StoreWriter` and touched only from that
    writer's thread; payload bytes are tracked so the bound is a *byte*
    budget, not a record count.
    """

    def __init__(self, core: int, queue_bytes: int):
        if queue_bytes <= 0:
            raise ValueError("queue_bytes must be positive")
        self.core = core
        self.queue_bytes = queue_bytes
        self._records: Deque[StreamRecord] = deque()
        self.depth_bytes = 0
        self.enqueued_records = 0
        self.enqueued_bytes = 0
        self.dropped_records = 0
        self.dropped_bytes = 0

    def __len__(self) -> int:
        return len(self._records)

    def offer(self, record: StreamRecord) -> Tuple[bool, List[StreamRecord]]:
        """Enqueue ``record``; return (accepted, victims_evicted).

        Overflow policy mirrors PPL: evict the queued record with the
        lowest priority (oldest among equals) until the newcomer fits;
        if the newcomer's priority is strictly below every queued
        record's, drop the newcomer instead.
        """
        size = len(record.data)
        victims: List[StreamRecord] = []
        self.enqueued_records += 1
        self.enqueued_bytes += size
        if size > self.queue_bytes:
            self.dropped_records += 1
            self.dropped_bytes += size
            return False, victims
        while self.depth_bytes + size > self.queue_bytes:
            victim_index = self._lowest_priority_index()
            victim = self._records[victim_index]
            if victim.priority > record.priority:
                # Everything queued outranks the newcomer: drop it.
                self.dropped_records += 1
                self.dropped_bytes += size
                return False, victims
            del self._records[victim_index]
            self.depth_bytes -= len(victim.data)
            self.dropped_records += 1
            self.dropped_bytes += len(victim.data)
            victims.append(victim)
        self._records.append(record)
        self.depth_bytes += size
        return True, victims

    def _lowest_priority_index(self) -> int:
        """Index of the oldest record among the lowest priority queued."""
        best_index = 0
        best_priority = self._records[0].priority
        for index in range(1, len(self._records)):
            if self._records[index].priority < best_priority:
                best_priority = self._records[index].priority
                best_index = index
        return best_index

    def pop_all(self) -> List[StreamRecord]:
        """Remove and return everything queued (drain step)."""
        drained = list(self._records)
        self._records.clear()
        self.depth_bytes = 0
        return drained


class StoreWriter:
    """Per-core spill queues feeding per-core segment series on disk.

    Each core owns its own segment series (``seg-<core>-<nnnnnn>``).
    Segments roll at ``segment_bytes`` and sealed segments are reported
    through ``on_seal`` (the store wires this to its index).  One thread
    drives a writer for its whole life (see the module docstring).
    """

    def __init__(
        self,
        directory: str,
        cores: int = 1,
        queue_bytes: int = DEFAULT_QUEUE_BYTES,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        compress: bool = False,
        fsync: bool = False,
        observability: Optional[Observability] = None,
        sanitizers: Optional[object] = None,
        on_seal=None,
        start_sequence: int = 0,
        fault_injector: Optional[object] = None,
    ):
        if cores < 1:
            raise ValueError("need at least one core queue")
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.compress = compress
        self.fsync = fsync
        self.queues = [SpillQueue(core, queue_bytes) for core in range(cores)]
        self.written_records = 0
        self.written_bytes = 0
        self.disk_bytes_sealed = 0
        self.compressed_saved = 0
        self.segments_sealed = 0
        self._fault = fault_injector
        # Store-plane fault accounting.  Errored records count as
        # dropped in the byte ledger (enqueued == written + dropped).
        self.write_errors = 0
        self.write_error_bytes = 0
        self.fsync_stall_seconds_total = 0.0
        self.segments_torn = 0
        self._last_record_ts = 0.0
        self._active: List[Optional[SegmentWriter]] = [None] * cores
        self._sequence = start_sequence
        self._on_seal = on_seal
        self._san = sanitizers
        self._obs = observability or NULL_OBSERVABILITY
        registry = self._obs.registry
        self._m_enqueued = registry.counter(
            "scap_store_enqueued_bytes_total", "payload bytes offered to the spill queues"
        )
        self._m_written = registry.counter(
            "scap_store_written_bytes_total", "payload bytes appended to segment files"
        )
        self._m_dropped = registry.counter(
            "scap_store_dropped_bytes_total",
            "payload bytes dropped by spill-queue overflow",
        )
        self._m_sealed = registry.counter(
            "scap_store_segments_sealed_total", "segments sealed (footer + fsync)"
        )
        self._m_depth_family = registry.gauge(
            "scap_store_queue_depth_bytes",
            "spill-queue occupancy in payload bytes, per core",
            labels=("core",),
        )
        self._m_depth = [self._m_depth_family.labels(core) for core in range(cores)]
        # SCAP_RACE=1: the first thread to enqueue/drain/seal owns the
        # writer (queues, segments, ledger and metrics alike).
        self._race = race_detector_from_env()
        self._race_token = (
            self._race.register("StoreWriter") if self._race is not None else 0
        )

    # ------------------------------------------------------------------
    def attach_sanitizers(self, sanitizers: Optional[object]) -> None:
        """Late-bind a sanitizer context (e.g. the capture runtime's).

        Only valid before any bytes were enqueued — the ledger must see
        the writer's whole lifetime or teardown balance is meaningless.
        """
        if sanitizers is None or self._san is not None:
            return
        if self.enqueued_bytes or self.written_bytes:
            raise ValueError("cannot attach sanitizers to a writer already in use")
        self._san = sanitizers

    def attach_fault_injector(self, fault_injector: Optional[object]) -> None:
        """Late-bind the run's fault injector (store plane).

        Like :meth:`attach_sanitizers`, only valid before any bytes
        were enqueued, so the whole lifetime runs under one plan.
        """
        if fault_injector is None or self._fault is not None:
            return
        if self.enqueued_bytes or self.written_bytes:
            raise ValueError("cannot attach a fault injector to a writer already in use")
        self._fault = fault_injector

    @property
    def cores(self) -> int:
        """Number of per-core spill queues."""
        return len(self.queues)

    @property
    def enqueued_bytes(self) -> int:
        """Total payload bytes ever offered to the queues."""
        return sum(queue.enqueued_bytes for queue in self.queues)

    @property
    def dropped_bytes(self) -> int:
        """Total payload bytes dropped (queue overflow + write errors)."""
        return (
            sum(queue.dropped_bytes for queue in self.queues)
            + self.write_error_bytes
        )

    @property
    def dropped_records(self) -> int:
        """Records dropped (queue overflow + write errors)."""
        return (
            sum(queue.dropped_records for queue in self.queues) + self.write_errors
        )

    @property
    def queue_depth_bytes(self) -> int:
        """Payload bytes currently sitting in the spill queues."""
        return sum(queue.depth_bytes for queue in self.queues)

    @property
    def outstanding_bytes(self) -> int:
        """Ledger balance: enqueued minus (written + dropped)."""
        return self.enqueued_bytes - self.written_bytes - self.dropped_bytes

    # ------------------------------------------------------------------
    def enqueue(self, core: int, record: StreamRecord) -> bool:
        """Offer a record to ``core``'s queue; False if it was dropped.

        The queue is drained inline once it crosses half its byte
        bound, so memory stays bounded without any background machinery.
        """
        if self._race is not None:
            self._race.check(self._race_token, op="enqueue")
        queue = self.queues[core % len(self.queues)]
        accepted, _victims = queue.offer(record)
        if self._san is not None:
            self._san.store.on_enqueue(len(record.data))
            if not accepted:
                self._san.store.on_drop(len(record.data))
            for victim in _victims:
                self._san.store.on_drop(len(victim.data))
        if self._obs.enabled:
            self._m_enqueued.inc(len(record.data))
            dropped = (0 if accepted else len(record.data)) + sum(
                len(victim.data) for victim in _victims
            )
            if dropped:
                self._m_dropped.inc(dropped)
            self._m_depth[queue.core].set(queue.depth_bytes)
        if queue.depth_bytes * 2 >= queue.queue_bytes:
            self.drain(queue.core)
        return accepted

    def drain(self, core: Optional[int] = None) -> int:
        """Write queued records to segments; return records written."""
        if self._race is not None:
            self._race.check(self._race_token, op="drain")
        cores = range(len(self.queues)) if core is None else [core]
        written = 0
        for index in cores:
            written += self._drain_one(index)
        return written

    def _drain_one(self, core: int) -> int:
        queue = self.queues[core]
        records = queue.pop_all()
        if not records:
            return 0
        written_payload = 0
        errored_payload = 0
        writer = self._writer_for(core)
        for record in records:
            self._last_record_ts = max(self._last_record_ts, record.timestamp)
            if self._fault is not None and self._fault.store_write_error(
                record.timestamp, len(record.data)
            ):
                # Simulated EIO: the record is lost; its bytes move
                # to the dropped side of the ledger so accounting
                # still balances at teardown.
                self.write_errors += 1
                self.write_error_bytes += len(record.data)
                errored_payload += len(record.data)
                if self._san is not None:
                    self._san.store.on_drop(len(record.data))
                continue
            writer.append(record)
            self.written_records += 1
            self.written_bytes += len(record.data)
            written_payload += len(record.data)
            if self._san is not None:
                self._san.store.on_write(len(record.data))
            if writer.disk_bytes >= self.segment_bytes:
                self._seal_active(core)
                writer = self._writer_for(core)
        if self._obs.enabled:
            if written_payload:
                self._m_written.inc(written_payload)
            if errored_payload:
                self._m_dropped.inc(errored_payload)
            self._m_depth[core].set(queue.depth_bytes)
            # Spill-queue wait, in *simulated* time: the drain happens no
            # earlier than the newest record in the batch, so each
            # record waited at least (newest - its own timestamp).  The
            # drain itself costs no simulated service time, so
            # store_drain is a wait-only stage.
            drained_at = max(record.timestamp for record in records)
            record_wait = self._obs.profiler.record_wait
            for record in records:
                record_wait(
                    STAGE_STORE_DRAIN, core, drained_at - record.timestamp
                )
        return len(records)

    def _writer_for(self, core: int) -> SegmentWriter:
        writer = self._active[core]
        if writer is None:
            name = f"seg-{core}-{self._sequence:06d}.scap"
            self._sequence += 1
            writer = SegmentWriter(
                os.path.join(self.directory, name),
                core=core,
                compress=self.compress,
                fsync=self.fsync,
            )
            self._active[core] = writer
        return writer

    def _seal_active(self, core: int) -> Optional[SegmentInfo]:
        writer = self._active[core]
        if writer is None or writer.record_count == 0:
            if writer is not None:
                # Empty segment: remove the header-only file.
                writer.close()
                os.unlink(writer.path)
                self._active[core] = None
            return None
        self.compressed_saved += writer.compressed_saved
        if self._fault is not None:
            tear = self._fault.store_torn_write(self._last_record_ts)
            if tear:
                # Simulated crash mid-seal: close without a footer and
                # chop the tail, leaving exactly the torn segment the
                # reader's truncation recovery is built for.
                writer.close()
                size = os.path.getsize(writer.path)
                with open(writer.path, "r+b") as handle:
                    handle.truncate(max(size - tear, 1))
                self._active[core] = None
                self.segments_torn += 1
                return None
            self.fsync_stall_seconds_total += self._fault.store_fsync_stall(
                self._last_record_ts
            )
        info = writer.seal()
        self._active[core] = None
        self.segments_sealed += 1
        self.disk_bytes_sealed += info.disk_bytes
        if self._obs.enabled:
            self._m_sealed.inc()
        if self._on_seal is not None:
            self._on_seal(info)
        return info

    def seal_all(self) -> List[SegmentInfo]:
        """Drain every queue and seal every active segment."""
        if self._race is not None:
            self._race.check(self._race_token, op="seal_all")
        self.drain()
        infos = []
        for core in range(len(self.queues)):
            info = self._seal_active(core)
            if info is not None:
                infos.append(info)
        return infos

    # ------------------------------------------------------------------
    def close(self) -> List[SegmentInfo]:
        """Drain, seal; verify the byte ledger balances."""
        infos = self.seal_all()
        if self._san is not None:
            self._san.store.check_teardown(self)
        return infos
