"""Worker threads: per-core user-level stream processing (§2.4, §4.2).

Each application of a capture has its own pool (its own process in the
real system); a socket is one application, a shared capture several
(§5.6), and :class:`SharedApplication` says which events one wants.

The stub creates one worker thread per configured core; each polls the
event queue its kernel counterpart fills and invokes the application's
callbacks.  Here each worker is a :class:`QueueServer` whose service
time per event is the stub dispatch cost plus whatever the registered
application charges; the functional callback runs when the event is
dispatched, and chunk memory is scheduled for release at the worker's
virtual completion time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

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
from .config import ScapConfig
from .constants import SCAP_UNLIMITED_CUTOFF
from .events import Event, EventType
from .memory import StreamMemory

__all__ = ["Callbacks", "SharedApplication", "WorkerPool"]


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


@dataclass
class SharedApplication:
    """One application of a capture: its config, callbacks, and (once a
    runtime is built for it) its own worker pool and its statistics."""

    name: str
    config: ScapConfig = field(default_factory=ScapConfig)
    callbacks: Callbacks = field(default_factory=Callbacks)
    workers: Optional[WorkerPool] = None

    def wants(self, event: Event) -> bool:
        """Should this application receive ``event``?"""
        if not self.config.bpf.matches_five_tuple(event.stream.five_tuple):
            return False
        if event.event_type != EventType.STREAM_DATA:
            return True
        cutoff = self.config.cutoffs.effective_cutoff(event.stream)
        if cutoff == SCAP_UNLIMITED_CUTOFF:
            return True
        # Deliver only chunks that start below this app's own cutoff —
        # the kernel captured up to the *largest* cutoff of all apps.
        assert event.chunk is not None
        return event.chunk.stream_offset < cutoff


class WorkerPool:  # scapcheck: single-owner
    """The user-level worker threads of one application.

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
        stages = self.obs.profiler.stages
        self._dequeue = stages[STAGE_EVENT_DEQUEUE]
        self._callback = stages[STAGE_WORKER_CALLBACK]
        # Each queue's depth after its last event; None: no event since end_batch.
        self._depth: List[Optional[float]] = [None] * worker_count
        #: Set while a data callback runs, so API calls made from inside
        #: the callback (keep_stream_chunk, discard_stream) can find it.
        self.current_event: Optional[Event] = None

    # ------------------------------------------------------------------
    def begin_batch(self) -> None:
        """No-op: a batch's samples wait in the instruments' tallies.
        Kept because ``benchmarks/perf/spec.py`` resolves the name."""

    def end_batch(self) -> None:
        """Publish what ``dispatch`` recorded since the last call."""
        if not self.obs.enabled:
            return
        self._m_service.publish()
        depth = self._depth
        for worker, value in enumerate(depth):
            if value is not None:
                self._m_depth[worker].set(value)
                depth[worker] = None
        self._dequeue.publish()
        self._callback.publish()

    def worker_for_event(self, core: int, event: Event) -> int:
        """Pick the worker that owns this event's connection.

        Connections are spread by ``connection_id % worker_count``, so
        every event of a connection, in both directions, goes to one
        worker.  ``core`` (the kernel thread that emitted the event)
        does not enter the rule: with one worker per core a stream is
        not kept on its kernel thread's core.  :meth:`dispatch` calls
        this only when there is more than one worker.
        """
        return event.stream.connection_id % self.worker_count

    # ------------------------------------------------------------------
    def dispatch(
        self, core: int, event: Event, ready_time: float, release: bool = True
    ) -> float:
        """Queue ``event`` (ready at ``ready_time``) on its worker, charge
        its service time and run its callback; return the finish time.

        A refused event returns ``ready_time``.  With ``release`` the
        chunk is released at the finish time (a refused one at once); a
        caller sharing the chunk among pools passes False and releases
        it.  The service time is the stub's dispatch cycles (stage
        ``event_dequeue``) plus the payload's and the app's cost hook's
        (``worker_callback``); the cost-model calls are inlined, pinned
        by ``tests/core/test_inlined_model.py``.
        """
        worker = 0 if self.worker_count == 1 else self.worker_for_event(core, event)
        server = self.servers[worker]
        fault = self._fault
        chunk = event.chunk
        injected = fault is not None and fault.sched_backpressure(ready_time, worker)
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
            if release and chunk is not None:
                # The data will never be consumed; reclaim immediately.
                self.memory.release_now(ready_time, chunk.accounted_bytes)
            return ready_time
        cost = self.cost
        batch = cost.user_batch_packets  # user_wakeup_cost, inlined: max(1.0, batch)
        dispatch_cycles = cost.scap_event_dispatch + cost.syscall_poll / (batch if batch > 1.0 else 1.0)
        app_cycles = 0.0
        callbacks = self.callbacks
        event_type = event.event_type
        if event_type == EventType.STREAM_DATA:
            length = chunk.length if chunk is not None else 0  # Event.data_len
            locality = self.locality
            app_cycles += cost.scap_per_byte_touch * length
            # miss_cost(scap_user_misses(length)), inlined in the same order.
            scale = 0.5 + 0.5 * (length / locality.reference_payload)
            app_cycles += cost.cache_miss_penalty * (locality.scap_user_base * scale)
            if callbacks.data_cost is not None:
                app_cycles += callbacks.data_cost(event)
            handler = callbacks.on_data
        elif event_type == EventType.STREAM_CREATED:
            if callbacks.creation_cost is not None:
                app_cycles += callbacks.creation_cost(event)
            handler = callbacks.on_creation
        else:
            if callbacks.termination_cost is not None:
                app_cycles += callbacks.termination_cost(event)
            handler = callbacks.on_termination
        core_hz = cost.core_hz  # CostModel.seconds is ``cycles / core_hz``
        service = (dispatch_cycles + app_cycles) / core_hz
        if fault is not None:
            service += fault.sched_stall(ready_time, worker)
        finish = server.push(ready_time, 1, service)
        if self.obs.enabled:
            histogram = self._m_service
            histogram.tally[service] += 1
            histogram.running += service
            self._depth[worker] = server.occupancy(ready_time)
            for stage, cycles in ((self._dequeue, dispatch_cycles), (self._callback, app_cycles)):
                seconds = cycles / core_hz
                histogram = stage.service
                histogram.tally[seconds] += 1
                histogram.running += seconds
                stage.per_core[worker] += seconds
            # Time the event sat in the queue before its service began.
            wait = finish - service - ready_time
            if wait >= 0.0:
                histogram = self._dequeue.wait
                histogram.tally[wait] += 1
                histogram.running += wait
        stream = event.stream
        stream.processing_time += service
        self.current_event = event
        try:
            if event_type == EventType.STREAM_DATA:
                assert chunk is not None
                stream.data = chunk.data
                stream.data_len = chunk.length
                stream.data_offset = chunk.stream_offset
                stream.data_had_hole = chunk.had_hole
                self.bytes_delivered += chunk.length
                if handler is not None:
                    handler(stream)
                stream.data = b""
                stream.data_len = 0
                stream.data_had_hole = False
            elif handler is not None:
                handler(stream)
        finally:
            self.current_event = None
        if release and chunk is not None and not chunk.keep:
            self.memory.schedule_release(finish, chunk.accounted_bytes)
        self.events_processed += 1
        return finish

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
