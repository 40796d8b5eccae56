"""The store's writer pipeline: per-core write batches drained by their owner.

Recording must never stall the capture path, so deliveries are
*enqueued* on per-core write batches and written to segment files in
batches — the same decoupling the PF_RING/n2disk dump pipelines use.
The pipeline is **single-owner**: construct a writer anywhere, then
drive it (``enqueue``/``drain``/``seal_all``/``close``) from one
thread — the capture thread in library mode, ``scapd-owner`` in
service mode.  Nothing here takes a lock, and ``SCAP_RACE=1`` checks
that no second thread ever arrives.  Three properties are enforced:

* **bounded memory** — a core's batch is written inline as soon as it
  holds ``DRAIN_BYTES`` of payload, so it never holds more than that
  plus one record;
* **balanced accounting** — the writer refuses no record, so every
  enqueued byte is eventually either written to a segment or lost to
  a write error; the ledger ``enqueued == written + dropped`` must
  balance to zero outstanding at teardown (checked by the store
  sanitizer);
* **determinism** — batches drain at ``DRAIN_BYTES`` and on
  ``drain()``/``seal_all()``/``close()``, so every byte's fate, every
  segment name and every segment byte is a pure function of the input
  sequence, always.
"""

from __future__ import annotations

import os
from typing import List, Optional

from ..observability import NULL_OBSERVABILITY, STAGE_STORE_DRAIN, Observability
from ..sanitizers.race import race_detector_from_env
from .segment import SegmentInfo, SegmentWriter, StreamRecord

__all__ = ["StoreWriter", "DRAIN_BYTES", "DEFAULT_SEGMENT_BYTES"]

#: A core's write batch is written once it holds this much payload.
DRAIN_BYTES = 2 << 20
DEFAULT_SEGMENT_BYTES = 16 << 20


class StoreWriter:
    """Per-core write batches feeding per-core segment series on disk.

    Each core owns its own segment series (``seg-<core>-<nnnnnn>``).
    Segments roll at ``segment_bytes`` and sealed segments are reported
    through ``on_seal`` (the store wires this to its index).  One thread
    drives a writer for its whole life (see the module docstring).
    """

    def __init__(
        self,
        directory: str,
        cores: int = 1,
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
            raise ValueError("need at least one core")
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.compress = compress
        self.fsync = fsync
        #: Records waiting to be written, per core, and their payload.
        self._pending: List[List[StreamRecord]] = [[] for _ in range(cores)]
        self._pending_bytes = [0] * cores
        self.enqueued_bytes = 0
        self.written_records = 0
        self.written_bytes = 0
        self.compressed_saved = 0
        self.segments_sealed = 0
        self._fault = fault_injector
        # Store-plane fault accounting.  A write error is the writer's
        # only loss: errored records count as dropped in the byte
        # ledger (enqueued == written + dropped).
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
            "scap_store_enqueued_bytes_total", "payload bytes handed to the writer"
        )
        self._m_written = registry.counter(
            "scap_store_written_bytes_total", "payload bytes appended to segment files"
        )
        self._m_dropped = registry.counter(
            "scap_store_dropped_bytes_total",
            "payload bytes lost to segment write errors",
        )
        self._m_sealed = registry.counter(
            "scap_store_segments_sealed_total", "segments sealed (footer + fsync)"
        )
        self._m_depth_family = registry.gauge(
            "scap_store_queue_depth_bytes",
            "payload bytes waiting in the write batch, per core",
            labels=("core",),
        )
        self._m_depth = [self._m_depth_family.labels(core) for core in range(cores)]
        # SCAP_RACE=1: the first thread to enqueue/drain/seal owns the
        # writer (batches, segments, ledger and metrics alike).
        self._race = race_detector_from_env()
        self._race_token = (
            self._race.register("StoreWriter") if self._race is not None else 0
        )

    # ------------------------------------------------------------------
    def attach(
        self,
        sanitizers: Optional[object] = None,
        fault_injector: Optional[object] = None,
    ) -> None:
        """Late-bind the run's checkers (e.g. the capture runtime's).

        A checker the writer already has is kept.  Binding a new one is
        only valid before any bytes were enqueued: the ledger must see
        the writer's whole lifetime and one fault plan must cover it.
        """
        if self._san is not None:
            sanitizers = None
        if self._fault is not None:
            fault_injector = None
        if sanitizers is None and fault_injector is None:
            return
        if self.enqueued_bytes:
            raise ValueError("cannot attach checkers to a writer already in use")
        if sanitizers is not None:
            self._san = sanitizers
        if fault_injector is not None:
            self._fault = fault_injector

    @property
    def cores(self) -> int:
        """Number of per-core write batches and segment series."""
        return len(self._pending)

    @property
    def dropped_bytes(self) -> int:
        """The ledger's dropped side: payload bytes lost to write errors."""
        return self.write_error_bytes

    @property
    def queue_depth_bytes(self) -> int:
        """Payload bytes currently waiting in the write batches."""
        return sum(self._pending_bytes)

    @property
    def outstanding_bytes(self) -> int:
        """Ledger balance: enqueued minus (written + dropped)."""
        return self.enqueued_bytes - self.written_bytes - self.dropped_bytes

    # ------------------------------------------------------------------
    def enqueue(self, core: int, record: StreamRecord) -> None:
        """Add a record to ``core``'s write batch.

        The batch is written inline once it holds ``DRAIN_BYTES`` of
        payload, so memory stays bounded without background machinery.
        """
        if self._race is not None:
            self._race.check(self._race_token, op="enqueue")
        core %= len(self._pending)
        size = len(record.data)
        self._pending[core].append(record)
        self._pending_bytes[core] += size
        self.enqueued_bytes += size
        if self._san is not None:
            self._san.store.on_enqueue(size)
        if self._obs.enabled:
            self._m_enqueued.inc(size)
            self._m_depth[core].set(self._pending_bytes[core])
        if self._pending_bytes[core] >= DRAIN_BYTES:
            self.drain(core)

    def drain(self, core: Optional[int] = None) -> int:
        """Write pending records to segments; return records written."""
        if self._race is not None:
            self._race.check(self._race_token, op="drain")
        cores = range(len(self._pending)) if core is None else [core]
        written = 0
        for index in cores:
            written += self._drain_one(index)
        return written

    def _drain_one(self, core: int) -> int:
        records = self._pending[core]
        if not records:
            return 0
        self._pending[core] = []
        self._pending_bytes[core] = 0
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
            self._m_depth[core].set(0)
            # Write-batch wait, in *simulated* time: the drain happens no
            # earlier than the newest record in the batch, so each
            # record waited at least (newest - its own timestamp).  The
            # drain itself costs no simulated service time, so
            # store_drain is a wait-only stage.
            drained_at = max(record.timestamp for record in records)
            stage = self._obs.profiler.stages[STAGE_STORE_DRAIN]
            wait = stage.wait
            for record in records:
                seconds = drained_at - record.timestamp
                wait.tally[seconds] += 1
                wait.running += seconds
            stage.publish()
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
        if self._obs.enabled:
            self._m_sealed.inc()
        if self._on_seal is not None:
            self._on_seal(info)
        return info

    def seal_all(self) -> List[SegmentInfo]:
        """Drain every write batch and seal every active segment."""
        if self._race is not None:
            self._race.check(self._race_token, op="seal_all")
        self.drain()
        infos = []
        for core in range(len(self._pending)):
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
