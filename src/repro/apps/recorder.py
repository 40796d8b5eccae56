"""Time-machine recording: feed captured streams into a StreamStore.

:class:`StreamRecorder` is the glue between a live capture socket and
the persistent store (§6.6): bound to a socket via
``sc.set_store(recorder)`` / ``scap_set_store``, it interposes on the
runtime's data callback, turning every delivered chunk into a
:class:`~repro.store.segment.StreamRecord` appended to the store.  The
kernel-enforced cutoff has already trimmed each stream to its head, so
what reaches the store is exactly the Time-Machine working set.

The recorder composes with a normal application: it wraps whatever
data callback is already registered, records, then forwards, so e.g. a
pattern matcher keeps running while recording happens underneath.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.runtime import ScapRuntime
from ..core.stream import StreamDescriptor
from ..store.segment import StreamRecord
from ..store.store import StreamStore

__all__ = ["StreamRecorder"]


class StreamRecorder:
    """Records every delivered stream chunk into a :class:`StreamStore`.

    Retention runs when the capture finishes (:meth:`finish`).
    """

    def __init__(self, store: StreamStore):
        self.store = store
        self.recorded_records = 0
        self.recorded_bytes = 0
        #: Next expected stream offset per descriptor, to dedup overlap
        #: bytes re-delivered at chunk boundaries.
        self._next_offset: Dict[int, int] = {}
        self._runtime: Optional[ScapRuntime] = None

    # ------------------------------------------------------------------
    def bind(self, runtime: ScapRuntime) -> None:
        """Interpose on ``runtime``'s callbacks (called by the socket).

        The run's sanitizers and fault injector reach the store's
        writer here, before it has seen a byte.
        """
        self._runtime = runtime
        self.store.writer.attach(runtime.sanitizers, runtime.fault_injector)
        inner_data = runtime.callbacks.on_data
        inner_termination = runtime.callbacks.on_termination

        def recording_on_data(stream: StreamDescriptor) -> None:
            self.record(stream)
            if inner_data is not None:
                inner_data(stream)

        def recording_on_termination(stream: StreamDescriptor) -> None:
            self._next_offset.pop(stream.stream_id, None)
            if inner_termination is not None:
                inner_termination(stream)

        runtime.callbacks.on_data = recording_on_data
        runtime.callbacks.on_termination = recording_on_termination

    # ------------------------------------------------------------------
    def record(self, stream: StreamDescriptor) -> None:
        """Append the chunk currently delivered on ``stream``."""
        data = stream.data
        offset = stream.data_offset
        if not data:
            return
        # Chunk overlap re-delivers the tail of the previous chunk;
        # store each stream byte once.
        expected = self._next_offset.get(stream.stream_id)
        if expected is not None and offset < expected:
            skip = expected - offset
            if skip >= len(data):
                return
            data = data[skip:]
            offset = expected
        self._next_offset[stream.stream_id] = offset + len(data)
        runtime = self._runtime
        event = runtime.workers.current_event if runtime is not None else None
        timestamp = event.created_at if event is not None else 0.0
        record = StreamRecord(
            five_tuple=stream.five_tuple,
            direction=stream.direction,
            stream_offset=offset,
            timestamp=timestamp,
            data=bytes(data),
            priority=stream.priority,
        )
        # Both directions of a connection share one segment series.
        self.store.append(record, core=stream.connection_id % self.store.writer.cores)
        self.recorded_records += 1
        self.recorded_bytes += len(data)

    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Flush the store after a capture run (socket calls this)."""
        self._next_offset.clear()
        self.store.flush()
        if self.store.retention_policy.enabled:
            self.store.enforce_retention()

    def close(self) -> None:
        """Seal and close the underlying store."""
        self.store.close()
