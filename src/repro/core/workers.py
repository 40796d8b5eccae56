"""Worker threads: per-core user-level stream processing (§2.4, §4.2).

The stub creates one worker thread per configured core; each polls the
event queue its kernel counterpart fills and invokes the application's
callbacks.  Here each worker is a :class:`QueueServer` whose service
time per event is the stub dispatch cost plus whatever the registered
application charges; the functional callback runs when the event is
dispatched, and chunk memory is scheduled for release at the worker's
virtual completion time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..kernelsim.cache import LocalityProfile
from ..kernelsim.costmodel import CostModel
from ..kernelsim.server import QueueServer
from ..observability import (
    HOOK_EVENT_DROPPED,
    NULL_OBSERVABILITY,
    STAGE_EVENT_DEQUEUE,
    STAGE_WORKER_CALLBACK,
    Observability,
)
from .events import Event, EventType
from .memory import StreamMemory

__all__ = ["Callbacks", "WorkerPool"]


@dataclass
class Callbacks:
    """Application callbacks + cost hooks registered on a socket.

    The ``*_cost`` hooks return the application's own processing cycles
    for an event (the stub's fixed costs are added on top); they let
    example applications and benchmarks express how expensive their
    per-event work is in the simulated cost domain, while the plain
    callbacks do the *functional* work (real pattern matching, real
    statistics) whose results the experiments score.
    """

    on_creation: Optional[Callable] = None
    on_data: Optional[Callable] = None
    on_termination: Optional[Callable] = None
    creation_cost: Optional[Callable[[Event], float]] = None
    data_cost: Optional[Callable[[Event], float]] = None
    termination_cost: Optional[Callable[[Event], float]] = None


class WorkerPool:  # scapcheck: single-owner
    """The user-level worker threads of one Scap socket.

    Single-owner: the runtime drives dispatch from the replay loop;
    worker "threads" are virtual-time servers, never OS threads, so
    the pool's counters need no lock.
    """

    def __init__(
        self,
        worker_count: int,
        cost_model: CostModel,
        locality: LocalityProfile,
        event_queue_capacity: int,
        memory: StreamMemory,
        callbacks: Callbacks,
        observability: Optional[Observability] = None,
        fault_injector: Optional[object] = None,
    ):
        if worker_count < 1:
            raise ValueError("need at least one worker thread")
        self.cost = cost_model
        self.locality = locality
        self.memory = memory
        self.callbacks = callbacks
        self._fault = fault_injector
        self.worker_count = worker_count
        self.servers: List[QueueServer] = [
            QueueServer(event_queue_capacity, name=f"worker-{index}")
            for index in range(worker_count)
        ]
        self.events_processed = 0
        self.events_dropped = 0
        self.events_dropped_injected = 0
        self.bytes_delivered = 0
        self.obs = observability or NULL_OBSERVABILITY
        registry = self.obs.registry
        self._m_service = registry.histogram(
            "scap_worker_service_seconds",
            "per-event worker service time (stub dispatch + callback)",
        )
        self._m_depth_family = registry.gauge(
            "scap_worker_queue_depth",
            "event-queue occupancy per worker at dispatch time",
            labels=("worker",),
        )
        self._m_depth = [
            self._m_depth_family.labels(index) for index in range(worker_count)
        ]
        self._m_dropped = registry.counter(
            "scap_worker_events_dropped_total",
            "events rejected because a worker queue was full",
        )
        #: Set while a data callback runs, so API calls made from inside
        #: the callback (keep_stream_chunk, discard_stream) can find it.
        self.current_event: Optional[Event] = None

    # ------------------------------------------------------------------
    def begin_batch(self) -> None:
        """No-op, never called: ``dispatch`` records its metrics itself.

        Kept (like :meth:`end_batch`) only because
        ``benchmarks/perf/spec.py`` resolves both names on this class.
        """

    def end_batch(self) -> None:
        """No-op, never called; see :meth:`begin_batch`."""

    def worker_for_event(self, core: int, event: Event) -> int:
        """Pick the worker that owns this event's connection.

        With one worker per core (the normal configuration) this is the
        kernel thread's own core, preserving the paper's same-core
        affinity.  With fewer workers than cores, connections are
        spread round-robin so no worker inherits two cores' load while
        another sits idle.
        """
        worker_count = self.worker_count
        if worker_count == 1:
            return 0
        return event.stream.connection_id % worker_count

    # ------------------------------------------------------------------
    def dispatch(self, core: int, event: Event, ready_time: float) -> None:
        """Queue ``event`` (made ready by the kernel at ``ready_time``)."""
        worker = self.worker_for_event(core, event)
        server = self.servers[worker]
        injected = self._fault is not None and self._fault.sched_backpressure(
            ready_time, worker
        )
        if injected or not server.would_accept(ready_time, 1):
            # An injected backpressure fault takes the exact organic
            # reject path, so chunk memory is reclaimed identically.
            self.events_dropped += 1
            if injected:
                self.events_dropped_injected += 1
            if self.obs.enabled:
                self._m_dropped.inc()
                self.obs.trace.emit(
                    ready_time, HOOK_EVENT_DROPPED, worker=worker,
                    event_type=event.event_type,
                    five_tuple=str(event.stream.five_tuple),
                )
            if event.chunk is not None:
                # The data will never be consumed; reclaim immediately.
                self.memory.release_now(ready_time, event.chunk.accounted_bytes)
            return
        dispatch_cycles, app_cycles = self._service_cycles(event)
        core_hz = self.cost.core_hz  # CostModel.seconds is ``cycles / core_hz``
        service = (dispatch_cycles + app_cycles) / core_hz
        if self._fault is not None:
            service += self._fault.sched_stall(ready_time, worker)
        finish = server.push(ready_time, 1, service)
        if self.obs.enabled:
            self._m_service.observe(service)
            self._m_depth[worker].set(server.occupancy(ready_time))
            profiler = self.obs.profiler
            profiler.record(STAGE_EVENT_DEQUEUE, worker, dispatch_cycles / core_hz)
            profiler.record(STAGE_WORKER_CALLBACK, worker, app_cycles / core_hz)
            # Time the event sat in the queue before its service began.
            profiler.record_wait(
                STAGE_EVENT_DEQUEUE, worker, finish - service - ready_time
            )
        self._run_callback(event, service)
        if event.chunk is not None and not event.chunk.keep:
            self.memory.schedule_release(finish, event.chunk.accounted_bytes)
        self.events_processed += 1

    def _service_cycles(self, event: Event) -> Tuple[float, float]:
        """(stub dispatch cycles, application/callback cycles) for one event.

        The split feeds the stage profiler: queue pop + wakeup is the
        ``event_dequeue`` stage, everything the event's payload costs
        (byte touches, cache misses, the app's own cost hooks) is the
        ``worker_callback`` stage.  The cost-model calls are inlined;
        ``tests/core/test_inlined_model.py`` pins them to the model.
        """
        cost = self.cost
        batch = cost.user_batch_packets  # user_wakeup_cost, inlined: max(1.0, batch)
        dispatch = cost.scap_event_dispatch + cost.syscall_poll / (batch if batch > 1.0 else 1.0)
        app = 0.0
        callbacks = self.callbacks
        if event.event_type == EventType.STREAM_DATA:
            chunk = event.chunk
            length = chunk.length if chunk is not None else 0  # Event.data_len
            locality = self.locality
            app += cost.scap_per_byte_touch * length
            # miss_cost(scap_user_misses(length)), inlined in the same order.
            scale = 0.5 + 0.5 * (length / locality.reference_payload)
            app += cost.cache_miss_penalty * (locality.scap_user_base * scale)
            if callbacks.data_cost is not None:
                app += callbacks.data_cost(event)
        elif event.event_type == EventType.STREAM_CREATED:
            if callbacks.creation_cost is not None:
                app += callbacks.creation_cost(event)
        else:
            if callbacks.termination_cost is not None:
                app += callbacks.termination_cost(event)
        return dispatch, app

    def _run_callback(self, event: Event, service: float) -> None:
        stream = event.stream
        stream.processing_time += service
        callbacks = self.callbacks
        self.current_event = event
        try:
            if event.event_type == EventType.STREAM_DATA:
                chunk = event.chunk
                assert chunk is not None
                stream.data = chunk.data
                stream.data_len = chunk.length
                stream.data_offset = chunk.stream_offset
                stream.data_had_hole = chunk.had_hole
                self.bytes_delivered += chunk.length
                if callbacks.on_data is not None:
                    callbacks.on_data(stream)
                stream.data = b""
                stream.data_len = 0
                stream.data_had_hole = False
            elif event.event_type == EventType.STREAM_CREATED:
                if callbacks.on_creation is not None:
                    callbacks.on_creation(stream)
            else:
                if callbacks.on_termination is not None:
                    callbacks.on_termination(stream)
        finally:
            self.current_event = None

    # ------------------------------------------------------------------
    def busy_seconds(self) -> float:
        """Total busy time across all worker threads."""
        return sum(server.busy_seconds for server in self.servers)

    def utilization(self, duration: float) -> float:
        """Mean busy fraction across workers."""
        if duration <= 0 or not self.servers:
            return 0.0
        return min(
            1.0, self.busy_seconds() / (duration * len(self.servers))
        )
