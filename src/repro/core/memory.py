"""Stream memory management (§5.3).

Reassembled stream data lives in one region shared between the kernel
module and the user-level stub.  Per stream, data is written into
contiguous *chunks*; when a chunk fills up (or a flush fires) it is
delivered as a data event and the next one is started.  This module
provides:

* :class:`Chunk` — one delivered unit of contiguous stream data, with a
  lazy ``data`` view (segments are joined only when the application
  actually reads them).
* :class:`ChunkAssembler` — per-direction chunking with overlap,
  flush-timeout, and ``scap_keep_stream_chunk`` support.
* :class:`StreamMemory` — the region's byte ledger: the kernel module
  charges it as payload is stored, a worker returns each chunk's bytes
  at the virtual time it finishes with them, and PPL reads its
  occupancy.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from ..sanitizers.race import race_detector_from_env
from ..observability import (
    DEFAULT_FRACTION_BUCKETS,
    HOOK_MEMORY_EXHAUSTED,
    NULL_OBSERVABILITY,
    Observability,
)

__all__ = ["Chunk", "ChunkAssembler", "StreamMemory"]


class Chunk:
    """A contiguous piece of one stream direction, ready for delivery."""

    __slots__ = (
        "segments",
        "length",
        "stream_offset",
        "had_hole",
        "accounted_bytes",
        "keep",
        "_joined",
    )

    def __init__(self, stream_offset: int):
        self.segments: List[bytes] = []
        self.length = 0
        self.stream_offset = stream_offset
        self.had_hole = False
        self.accounted_bytes = 0
        self.keep = False
        self._joined: Optional[bytes] = None

    def append(self, data: bytes) -> None:
        """Add one reassembled segment to the chunk."""
        self.segments.append(data)
        self.length += len(data)
        self._joined = None

    @property
    def data(self) -> bytes:
        """The chunk contents as one contiguous byte string (lazy join)."""
        if self._joined is None:
            self._joined = b"".join(self.segments)
        return self._joined

    @property
    def end_offset(self) -> int:
        return self.stream_offset + self.length

    def __len__(self) -> int:
        return self.length


class StreamMemory:  # scapcheck: single-owner
    """The shared stream-data region, as a byte ledger in virtual time.

    Single-owner: charged and released only by the kernel module and
    workers of one runtime, in virtual-time order — no lock needed.

    A store charges its bytes at once; each release is scheduled at the
    virtual time the worker finishes the chunk holding them, so the
    ledger only needs that *future release time* and occupancy at any
    instant is exact.
    """

    def __init__(
        self,
        capacity_bytes: int,
        observability: Optional[Observability] = None,
        sanitizers: Optional[object] = None,
        fault_injector: Optional[object] = None,
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity_bytes
        self.used = 0.0
        self.peak_used = 0.0
        self._releases: List[Tuple[float, float]] = []  # heap of (time, bytes)
        # The ``now`` of the last release loop, or None once a release
        # was scheduled after it.  The kernel reads the fraction, then
        # stores, at one ``now``: the loop runs once for both.
        self._advanced_to: Optional[float] = None
        self.allocation_failures = 0
        self.injected_failures = 0
        self._obs = observability or NULL_OBSERVABILITY
        self._san = sanitizers
        self._fault = fault_injector
        # SCAP_RACE=1: the ledger is single-owner — the capture loop —
        # so every charge/release must come from one thread.
        self._race = race_detector_from_env()
        self._race_token = (
            self._race.register("StreamMemory.ledger")
            if self._race is not None
            else 0
        )
        registry = self._obs.registry
        self._m_occupancy = registry.histogram(
            "scap_memory_pool_occupancy",
            "stream-memory pool occupancy fraction, sampled per store",
            bounds=DEFAULT_FRACTION_BUCKETS,
        )
        self._m_failures = registry.counter(
            "scap_memory_allocation_failures_total",
            "stores rejected because the pool was exhausted",
        )
        self._m_stored = registry.counter(
            "scap_memory_stored_bytes_total", "bytes accepted into the pool"
        )
        self._stored = 0  # bytes accepted since end_batch

    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Reclaim everything scheduled for release at or before ``now``."""
        releases = self._releases
        while releases and releases[0][0] <= now:
            _, nbytes = heapq.heappop(releases)
            self.used -= nbytes
        self._advanced_to = now

    def try_store(
        self, now: float, nbytes: int, stream_label: Optional[str] = None
    ) -> bool:
        """Account ``nbytes`` of stream data; False if memory is exhausted.

        ``stream_label`` is the owning stream's five-tuple string, used
        only to attribute the exhaustion trace event to its stream.
        """
        if self._race is not None:
            self._race.check(self._race_token, op="try_store")
        # An injected failure never reaches the ledger, so its
        # accounting stays balanced; callers observe the exact same
        # refusal an exhausted region produces.
        injected = self._fault is not None and self._fault.memory_alloc_fails(
            now, nbytes, stream_label or ""
        )
        if not injected:
            if now != self._advanced_to:
                self.advance(now)
            used = self.used + nbytes
            if used <= self.capacity:
                self.used = used
                if used > self.peak_used:
                    self.peak_used = used
                if self._obs.enabled:
                    self._stored += nbytes
                    occupancy = self._m_occupancy
                    fraction = used / self.capacity
                    occupancy.tally[fraction] += 1
                    occupancy.running += fraction
                if self._san is not None:
                    self._san.memory.on_store(nbytes)
                return True
        self.allocation_failures += 1
        if injected:
            self.injected_failures += 1
        if self._obs.enabled:
            self._m_failures.inc()
            if not injected:
                occupancy = self._m_occupancy
                fraction = self.used / self.capacity
                occupancy.tally[fraction] += 1
                occupancy.running += fraction
            self._obs.trace.emit(
                now, HOOK_MEMORY_EXHAUSTED, five_tuple=stream_label, bytes=nbytes
            )
        return False

    def end_batch(self) -> None:
        """Publish the batch's stored bytes and occupancy samples."""
        if not self._obs.enabled:
            return
        if self._stored:
            self._m_stored.inc(self._stored)
            self._stored = 0
        self._m_occupancy.publish()

    def fraction_used(self, now: float) -> float:
        """Occupied fraction of the region at time ``now``.

        When a fault plan applies memory pressure, the fraction PPL
        sees is boosted here — the real accounting is untouched.
        """
        if now != self._advanced_to:
            self.advance(now)
        fraction = self.used / self.capacity
        if self._fault is not None:
            fraction = self._fault.memory_pressure(now, fraction)
        return fraction

    def schedule_release(self, release_time: float, nbytes: int) -> None:
        """Return ``nbytes`` to the region at ``release_time``."""
        if self._race is not None:
            self._race.check(self._race_token, op="schedule_release")
        if self._san is not None:
            self._san.memory.on_release(nbytes, origin="schedule_release")
        if nbytes > 0:
            heapq.heappush(self._releases, (release_time, nbytes))
            self._advanced_to = None

    def release_now(self, now: float, nbytes: int) -> None:
        """Immediately return ``nbytes`` (data discarded unprocessed)."""
        if self._race is not None:
            self._race.check(self._race_token, op="release_now")
        if self._san is not None:
            self._san.memory.on_release(nbytes, origin="release_now")
        self.advance(now)
        self.used = max(0.0, self.used - nbytes)


class ChunkAssembler:
    """Chunks one stream direction's reassembled bytes for delivery.

    ``overlap`` repeats the last N bytes of the previous chunk at the
    start of the next one (for patterns spanning chunk boundaries,
    §3.1); overlapped bytes do not advance the stream offset and are
    not re-charged to the memory pool.
    """

    def __init__(self, memory: StreamMemory, chunk_size: int, overlap: int = 0):
        if chunk_size <= 0:
            raise ValueError("chunk size must be positive")
        if overlap < 0 or overlap >= chunk_size:
            raise ValueError("overlap must be in [0, chunk_size)")
        self._memory = memory
        self.chunk_size = chunk_size
        self.overlap = overlap
        self._chunk: Optional[Chunk] = None  # the chunk being filled
        self._kept: Optional[Chunk] = None  # retained via scap_keep_stream_chunk
        self.stream_offset = 0  # next byte offset in the reassembled stream
        self.last_delivery = 0.0
        self._pending_overlap: bytes = b""
        # The chunk the pending overlap tail was cut from: if that very
        # chunk is then kept (scap_keep_stream_chunk), its whole body is
        # merged into the next chunk and repeating its tail would
        # duplicate bytes mid-stream.
        self._overlap_source: Optional[Chunk] = None
        # Capacity of the chunk being filled: chunk_size of *new* bytes
        # plus whatever was carried over (kept chunk, overlap tail).
        self._current_capacity = chunk_size

    # ------------------------------------------------------------------
    def _new_chunk(self) -> Chunk:
        chunk = Chunk(self.stream_offset)
        kept_length = 0
        kept = self._kept
        if kept is not None and kept is self._overlap_source:
            self._pending_overlap = b""
        self._overlap_source = None
        if self._pending_overlap:
            # The overlap tail is copied into the new chunk, so it
            # consumes part of the chunk's chunk_size capacity.
            chunk.append(self._pending_overlap)
            chunk.stream_offset -= len(self._pending_overlap)
            self._pending_overlap = b""
        if kept is not None:
            self._kept = None
            # Prepend the kept chunk's data.  Its pool charge moves to
            # the merged chunk: the worker skips the release for kept
            # chunks, so without this transfer the bytes leak forever.
            chunk.segments = list(kept.segments) + chunk.segments
            chunk.length += kept.length
            chunk.stream_offset = kept.stream_offset
            chunk.accounted_bytes += kept.accounted_bytes
            chunk._joined = None
            kept_length = kept.length
        # A kept chunk's bytes extend the capacity: the next delivery is
        # one *larger* chunk of previous + new data (§3.2).
        self._current_capacity = self.chunk_size + kept_length
        return chunk

    def _finish_chunk(self, now: float) -> Chunk:
        chunk = self._chunk
        assert chunk is not None
        self._chunk = None
        self.last_delivery = now
        if self.overlap:
            tail = chunk.data[-self.overlap :]
            self._pending_overlap = tail
            self._overlap_source = chunk
        return chunk

    def append(self, data: bytes, now: float, had_hole: bool = False) -> List[Chunk]:
        """Add reassembled bytes; return chunks that became full."""
        completed: List[Chunk] = []
        size = len(data)
        offset = 0
        while offset < size:
            chunk = self._chunk
            if chunk is None:
                chunk = self._chunk = self._new_chunk()
            # A chunk being filled is never full, so ``room`` >= 1.
            room = self._current_capacity - chunk.length
            if room > size - offset:
                room = size - offset
            # Chunk.append, inlined.
            chunk.segments.append(data[offset : offset + room])
            chunk.length += room
            chunk._joined = None
            chunk.accounted_bytes += room
            if had_hole:
                chunk.had_hole = True
            self.stream_offset += room
            offset += room
            if chunk.length >= self._current_capacity:
                completed.append(self._finish_chunk(now))
        return completed

    def append_many(
        self,
        segments: Sequence[bytes],
        now: float,
        had_holes: Optional[Sequence[bool]] = None,
    ) -> List[Chunk]:
        """Add several reassembled segments in one call.

        ``had_holes``, when given, is a parallel sequence flagging the
        segments that follow a reassembly hole.  Completed chunks are
        returned in delivery order; the result is exactly the
        concatenation of per-segment :meth:`append` results.  Nothing
        in ``src/`` calls it any more; it stays only while
        ``benchmarks/perf/spec.py`` names it.
        """
        completed: List[Chunk] = []
        if had_holes is None:
            for segment in segments:
                completed.extend(self.append(segment, now))
        else:
            for segment, had_hole in zip(segments, had_holes):
                completed.extend(self.append(segment, now, had_hole=had_hole))
        return completed

    def flush(self, now: float, final: bool = False) -> Optional[Chunk]:
        """Deliver the partial chunk, if any (flush timeout / termination).

        With ``final=True`` (stream termination) a still-pending kept
        chunk can never merge into a future delivery, so its pool
        charge is returned here instead of leaking.
        """
        kept = self._kept
        if final and kept is not None:
            self._kept = None
            if kept.accounted_bytes:
                self._memory.release_now(now, kept.accounted_bytes)
        if self._chunk is None or self._chunk.length == 0:
            return None
        return self._finish_chunk(now)

    def keep(self, chunk: Chunk) -> None:
        """Retain ``chunk`` so the next delivery includes its data."""
        chunk.keep = True
        self._kept = chunk

    @property
    def pending_bytes(self) -> int:
        return self._chunk.length if self._chunk is not None else 0
