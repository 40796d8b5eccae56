"""The public Scap API (Table 1).

Two styles are provided over the same machinery:

* a Pythonic class, :class:`ScapSocket`, with methods
  (``sc.set_filter(...)``, ``sc.dispatch_data(...)``, …);
* paper-faithful module-level functions (``scap_create``,
  ``scap_set_filter``, ``scap_start_capture``, …) that mirror the C API
  one-to-one, so the paper's listings in §3.3 translate line by line.

A *device* names a packet source.  In the real system it is a NIC
("eth0"); here it is a replayable workload — pass a
:class:`~repro.traffic.trace.Trace` (or any object with ``replay``)
directly, or register it under a name with :func:`register_device` and
pass the name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..apps.recorder import StreamRecorder
    from ..faultinject import FaultPlan
    from ..store.store import StoreStats

from ..observability import (
    ProfileReport,
    StreamTimeline,
    TimelineReconstructor,
)

from ..results import RunResult, ScapStats
from ..filters.bpf import BPFFilter
from .config import DEFAULT_MEMORY_SIZE, ScapConfig
from .constants import SCAP_DEFAULT, SCAP_TCP_FAST, Parameter
from .packet_delivery import ScapPacketHeader, next_stream_packet
from .runtime import ScapRuntime
from .stream import StreamDescriptor
from .workers import Callbacks, SharedApplication

__all__ = [
    "ScapSocket",
    "ScapStats",
    "register_device",
    "scap_create",
    "scap_set_filter",
    "scap_set_cutoff",
    "scap_add_cutoff_direction",
    "scap_add_cutoff_class",
    "scap_set_worker_threads",
    "scap_set_parameter",
    "scap_dispatch_creation",
    "scap_dispatch_data",
    "scap_dispatch_termination",
    "scap_start_capture",
    "scap_discard_stream",
    "scap_set_stream_cutoff",
    "scap_set_stream_priority",
    "scap_set_stream_parameter",
    "scap_keep_stream_chunk",
    "scap_next_stream_packet",
    "scap_get_stats",
    "scap_profile",
    "scap_stream_timeline",
    "scap_set_store",
    "scap_store_stats",
    "scap_close",
]

_DEVICE_REGISTRY: Dict[str, Tuple[Any, float]] = {}


def register_device(name: str, workload: Any, rate_bps: float) -> None:
    """Bind a workload + replay rate to a device name for scap_create."""
    _DEVICE_REGISTRY[name] = (workload, rate_bps)


class ScapSocket:
    """An Scap socket: configuration, callbacks, and the capture run."""

    def __init__(
        self,
        device: Any,
        memory_size: int = SCAP_DEFAULT,
        reassembly_mode: int = SCAP_TCP_FAST,
        need_pkts: int = 0,
        rate_bps: Optional[float] = None,
        core_count: int = 8,
        fault_plan: Optional["FaultPlan"] = None,
        **runtime_kwargs: Any,
    ):
        if isinstance(device, str):
            try:
                workload, registered_rate = _DEVICE_REGISTRY[device]
            except KeyError:
                raise ValueError(
                    f"unknown device {device!r}; register_device() it first"
                ) from None
            self._workload = workload
            self._rate = rate_bps or registered_rate
        else:
            self._workload = device
            if rate_bps is None:
                native = getattr(device, "native_rate_bps", None)
                if native is None or native in (0.0, float("inf")):
                    raise ValueError("rate_bps is required for this device")
                rate_bps = native
            self._rate = rate_bps
        self.config = ScapConfig(
            memory_size=memory_size if memory_size != SCAP_DEFAULT else DEFAULT_MEMORY_SIZE,
            reassembly_mode=reassembly_mode,
            need_pkts=bool(need_pkts),
        )
        self._core_count = core_count
        self._runtime_kwargs = runtime_kwargs
        self._runtime: Optional[ScapRuntime] = None
        #: What ``dispatch_*`` registered, run as the capture's one
        #: application (an attached store's recorder wraps them at start).
        self.callbacks = Callbacks()
        self._closed = False
        self._recorder: Optional["StreamRecorder"] = None
        self._fault_plan = fault_plan
        #: The run's FaultInjector, built when the capture starts (None
        #: without a fault plan); exposes schedule/counts/digest.
        self.fault_injector: Optional[Any] = None
        self.last_result: Optional[RunResult] = None

    # ------------------------------------------------------------------
    # Socket-wide configuration
    # ------------------------------------------------------------------
    def _require_not_started(self) -> None:
        if self._runtime is not None:
            raise RuntimeError("capture already started")
        if self._closed:
            raise RuntimeError("socket is closed")

    def set_filter(self, bpf_expression: str) -> None:
        """scap_set_filter: keep only traffic matching a BPF expression."""
        self._require_not_started()
        self.config.bpf = BPFFilter(bpf_expression)

    def set_cutoff(self, cutoff: int) -> None:
        """scap_set_cutoff: default per-stream byte cutoff (0 = stats only)."""
        self._require_not_started()
        self.config.cutoffs.set_default(cutoff)

    def add_cutoff_direction(self, cutoff: int, direction: int) -> None:
        """scap_add_cutoff_direction: direction-specific cutoff."""
        self._require_not_started()
        self.config.cutoffs.add_direction_cutoff(cutoff, direction)

    def add_cutoff_class(self, cutoff: int, bpf_expression: str) -> None:
        """scap_add_cutoff_class: cutoff for a BPF-defined traffic class."""
        self._require_not_started()
        self.config.cutoffs.add_class_cutoff(cutoff, BPFFilter(bpf_expression))

    def set_worker_threads(self, thread_count: int) -> None:
        """scap_set_worker_threads: parallel stream-processing threads."""
        self._require_not_started()
        if thread_count < 1:
            raise ValueError("need at least one worker thread")
        self.config.worker_threads = thread_count

    def set_parameter(self, parameter: str, value: Any) -> None:
        """scap_set_parameter: change a socket-wide default (Table 1)."""
        self._require_not_started()
        if parameter not in Parameter.GLOBAL_KEYS:
            raise ValueError(f"unknown socket parameter: {parameter!r}")
        if parameter == Parameter.INACTIVITY_TIMEOUT:
            self.config.inactivity_timeout = float(value)
        elif parameter == Parameter.CHUNK_SIZE:
            self.config.chunk_size = int(value)
        elif parameter == Parameter.OVERLAP_SIZE:
            self.config.overlap_size = int(value)
        elif parameter == Parameter.FLUSH_TIMEOUT:
            self.config.flush_timeout = None if value is None else float(value)
        elif parameter == Parameter.BASE_THRESHOLD:
            self.config.base_threshold = float(value)
        elif parameter == Parameter.OVERLOAD_CUTOFF:
            self.config.overload_cutoff = None if value is None else int(value)
        self.config.validate()

    # ------------------------------------------------------------------
    # Stream store (time-machine recording, §6.6)
    # ------------------------------------------------------------------
    def set_store(self, recorder: "StreamRecorder") -> None:
        """scap_set_store: record delivered streams through ``recorder``.

        The recorder interposes on the data callback when the capture
        starts (composing with any attached application) and its store
        is flushed when the run finishes.  With no store attached the
        capture path is untouched.
        """
        self._require_not_started()
        self._recorder = recorder

    def store_stats(self) -> "StoreStats":
        """scap_store_stats: the attached store's accounting snapshot."""
        if self._recorder is None:
            raise RuntimeError("no store attached; call set_store() first")
        return self._recorder.store.stats()

    # ------------------------------------------------------------------
    # Callbacks
    # ------------------------------------------------------------------
    def dispatch_creation(
        self, handler: Callable, cost: Optional[Callable] = None
    ) -> None:
        """scap_dispatch_creation: register the stream-creation callback."""
        self.callbacks.on_creation = handler
        self.callbacks.creation_cost = cost

    def dispatch_data(self, handler: Callable, cost: Optional[Callable] = None) -> None:
        """scap_dispatch_data: register the new-data callback."""
        self.callbacks.on_data = handler
        self.callbacks.data_cost = cost

    def dispatch_termination(
        self, handler: Callable, cost: Optional[Callable] = None
    ) -> None:
        """scap_dispatch_termination: register the termination callback."""
        self.callbacks.on_termination = handler
        self.callbacks.termination_cost = cost

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def _build_runtime(self) -> ScapRuntime:
        if self._fault_plan is not None:
            from ..faultinject import FaultInjector

            self.fault_injector = FaultInjector(
                self._fault_plan,
                observability=self._runtime_kwargs.get("observability"),
            )
        runtime = ScapRuntime(
            config=self.config,
            core_count=self._core_count,
            fault_injector=self.fault_injector,
            applications=[SharedApplication("scap", self.config, self.callbacks)],
            **self._runtime_kwargs,
        )
        if self._recorder is not None:
            self._recorder.bind(runtime)
        return runtime

    def start_capture(self, name: str = "scap") -> RunResult:
        """scap_start_capture: replay the device through the pipeline.

        Blocks (like the real call) until the source is exhausted and
        all flows have drained, then returns the run's measurements.
        """
        self._require_not_started()
        self._runtime = self._build_runtime()
        self.last_result = self._runtime.run(self._workload, self._rate, name=name)
        if self._recorder is not None:
            self._recorder.finish()
        return self.last_result

    @property
    def runtime(self) -> ScapRuntime:
        if self._runtime is None:
            raise RuntimeError("capture has not started")
        return self._runtime

    # ------------------------------------------------------------------
    # Per-stream operations (callable from inside callbacks)
    # ------------------------------------------------------------------
    def discard_stream(self, stream: StreamDescriptor) -> None:
        """scap_discard_stream: stop collecting this stream's data."""
        stream.discarded_by_app = True
        stream.cutoff_exceeded = True

    def set_stream_cutoff(self, stream: StreamDescriptor, cutoff: int) -> None:
        """scap_set_stream_cutoff: per-stream cutoff override."""
        if cutoff < -1:
            raise ValueError(f"invalid cutoff: {cutoff}")
        stream.cutoff = cutoff
        if cutoff != -1 and stream.stats.captured_bytes >= cutoff:
            stream.cutoff_exceeded = True

    def set_stream_priority(self, stream: StreamDescriptor, priority: int) -> None:
        """scap_set_stream_priority: PPL priority (higher = keep longer)."""
        if priority < 0:
            raise ValueError("priority must be non-negative")
        stream.priority = priority
        if stream.opposite is not None:
            stream.opposite.priority = priority
        if self._runtime is not None:
            self._runtime.kernel.ppl.ensure_level(priority)

    def set_stream_parameter(
        self, stream: StreamDescriptor, parameter: str, value: Any
    ) -> None:
        """scap_set_stream_parameter: per-stream override (Table 1)."""
        if parameter not in Parameter.STREAM_KEYS:
            raise ValueError(f"unknown stream parameter: {parameter!r}")
        if parameter == Parameter.INACTIVITY_TIMEOUT:
            stream.inactivity_timeout = float(value)
        elif parameter == Parameter.CHUNK_SIZE:
            stream.chunk_size = int(value)
        elif parameter == Parameter.OVERLAP_SIZE:
            stream.overlap_size = int(value)
        elif parameter == Parameter.FLUSH_TIMEOUT:
            stream.flush_timeout = None if value is None else float(value)
        elif parameter == Parameter.REASSEMBLY_MODE:
            stream.reassembly_mode = int(value)
        elif parameter == Parameter.REASSEMBLY_POLICY:
            stream.reassembly_policy = str(value)

    def keep_stream_chunk(self, stream: StreamDescriptor) -> None:
        """scap_keep_stream_chunk: merge this chunk into the next one."""
        runtime = self.runtime
        event = runtime.workers.current_event
        if event is None or event.chunk is None:
            raise RuntimeError("keep_stream_chunk is only valid in a data callback")
        record = runtime.kernel.flows.lookup(stream.five_tuple)
        if record is None:
            return  # stream already terminated; nothing to merge into
        if record.assembler is not None:
            record.assembler.keep(event.chunk)

    # ------------------------------------------------------------------
    def get_stats(self) -> ScapStats:
        """scap_get_stats: overall statistics for all streams so far.

        Totals come from the runtime's single aggregation path
        (:meth:`~repro.core.runtime.ScapRuntime.aggregate`), so they
        always agree with the :class:`~repro.results.RunResult` of the
        same run; the extension fields surface the observability layer
        (``docs/OBSERVABILITY.md``).
        """
        if self._runtime is None:
            return ScapStats()
        stats = self._runtime.aggregate()
        fdir = self._runtime.nic.fdir
        stats.fdir_filters_installed = fdir.installed_total
        stats.fdir_filters_evicted = fdir.evicted_total
        stats.fdir_filters_active = len(fdir)
        if self._recorder is not None:
            store = self._recorder.store.stats()
            stats.stored_bytes = store.stored_bytes
            stats.evicted_bytes = store.evicted_bytes
            stats.writer_queue_drops = store.writer_queue_drops
        if self.fault_injector is not None:
            stats.faults_injected_total = self.fault_injector.total_injected
            stats.faults_injected = self.fault_injector.counts_by_key()
        return stats

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def observability(self):
        """The run's :class:`~repro.observability.Observability` context."""
        return self.runtime.obs

    def profile(self) -> ProfileReport:
        """The run's per-stage breakdown of simulated busy time.

        Requires an enabled observability context for the capture; with
        observability off, the report is empty (coverage 0).
        """
        return self.runtime.profile()

    def stream_timeline(self, five_tuple: Any) -> Optional[StreamTimeline]:
        """One connection's reconstructed lifecycle from the trace ring.

        ``five_tuple`` is a :class:`~repro.netstack.flows.FiveTuple`
        (either direction) or its string form; returns None when the
        ring retained no events for that connection.
        """
        reconstructor = TimelineReconstructor(self.runtime.obs.trace)
        return reconstructor.for_stream(five_tuple)

    def export_metrics(self, fmt: str = "prometheus", indent: Optional[int] = None) -> str:
        """Serialize the run's metrics registry.

        ``fmt`` is ``"prometheus"`` (text exposition format) or
        ``"json"`` (snapshot with the run's simulated end time).
        """
        obs = self.runtime.obs
        if fmt == "prometheus":
            return obs.export_prometheus()
        if fmt == "json":
            now = self.last_result.duration if self.last_result is not None else None
            return obs.export_json(now=now, indent=indent)
        raise ValueError(f"unknown metrics format: {fmt!r}")

    def close(self) -> None:
        """scap_close: release the socket (and seal an attached store)."""
        if self._recorder is not None:
            self._recorder.close()
        self._closed = True
        self._runtime = None


# ----------------------------------------------------------------------
# Paper-style function wrappers (§3.3 listings translate 1:1)
# ----------------------------------------------------------------------
def scap_create(
    device: Any,
    memory_size: int = SCAP_DEFAULT,
    reassembly_mode: int = SCAP_TCP_FAST,
    need_pkts: int = 0,
    fault_plan: Optional["FaultPlan"] = None,
    **kwargs: Any,
) -> ScapSocket:
    """Create an Scap socket bound to a device/workload (Table 1).

    ``fault_plan`` attaches a deterministic
    :class:`~repro.faultinject.FaultPlan`; the run then injects the
    plan's faults and exposes them through ``sc.fault_injector`` and
    the ``faults_injected*`` fields of :func:`scap_get_stats`.
    """
    return ScapSocket(
        device, memory_size, reassembly_mode, need_pkts,
        fault_plan=fault_plan, **kwargs,
    )


def scap_set_filter(sc: ScapSocket, bpf_filter: str) -> int:
    """Apply a BPF filter to the socket."""
    sc.set_filter(bpf_filter)
    return 0


def scap_set_cutoff(sc: ScapSocket, cutoff: int) -> int:
    """Change the default stream cutoff value."""
    sc.set_cutoff(cutoff)
    return 0


def scap_add_cutoff_direction(sc: ScapSocket, cutoff: int, direction: int) -> int:
    """Set a different cutoff for one stream direction."""
    sc.add_cutoff_direction(cutoff, direction)
    return 0


def scap_add_cutoff_class(sc: ScapSocket, cutoff: int, bpf_filter: str) -> int:
    """Set a different cutoff for a BPF-defined traffic class."""
    sc.add_cutoff_class(cutoff, bpf_filter)
    return 0


def scap_set_worker_threads(sc: ScapSocket, thread_num: int) -> int:
    """Set the number of stream-processing worker threads."""
    sc.set_worker_threads(thread_num)
    return 0


def scap_set_parameter(sc: ScapSocket, parameter: str, value: Any) -> int:
    """Change a socket-wide default parameter."""
    sc.set_parameter(parameter, value)
    return 0


def scap_dispatch_creation(sc: ScapSocket, handler: Callable) -> int:
    """Register the stream-creation callback."""
    sc.dispatch_creation(handler)
    return 0


def scap_dispatch_data(sc: ScapSocket, handler: Callable) -> int:
    """Register the new-stream-data callback."""
    sc.dispatch_data(handler)
    return 0


def scap_dispatch_termination(sc: ScapSocket, handler: Callable) -> int:
    """Register the stream-termination callback."""
    sc.dispatch_termination(handler)
    return 0


def scap_start_capture(sc: ScapSocket) -> RunResult:
    """Begin stream processing; blocks until the source drains."""
    return sc.start_capture()


def scap_discard_stream(sc: ScapSocket, sd: StreamDescriptor) -> None:
    """Discard the rest of a stream's traffic."""
    sc.discard_stream(sd)


def scap_set_stream_cutoff(sc: ScapSocket, sd: StreamDescriptor, cutoff: int) -> int:
    """Set the cutoff value of one stream."""
    sc.set_stream_cutoff(sd, cutoff)
    return 0


def scap_set_stream_priority(sc: ScapSocket, sd: StreamDescriptor, priority: int) -> int:
    """Set the PPL priority of one stream (and its peer)."""
    sc.set_stream_priority(sd, priority)
    return 0


def scap_set_stream_parameter(
    sc: ScapSocket, sd: StreamDescriptor, parameter: str, value: Any
) -> int:
    """Set a per-stream parameter override."""
    sc.set_stream_parameter(sd, parameter, value)
    return 0


def scap_keep_stream_chunk(sc: ScapSocket, sd: StreamDescriptor) -> int:
    """Keep the current chunk to merge into the next delivery."""
    sc.keep_stream_chunk(sd)
    return 0


def scap_next_stream_packet(
    sd: StreamDescriptor, header: Optional[ScapPacketHeader] = None
) -> Optional[bytes]:
    """Return the next captured packet of a stream, or None."""
    return next_stream_packet(sd, header)


def scap_get_stats(sc: ScapSocket) -> ScapStats:
    """Read overall statistics for all streams seen so far."""
    return sc.get_stats()


def scap_profile(sc: ScapSocket) -> ProfileReport:
    """Read the per-stage breakdown of the run's simulated busy time."""
    return sc.profile()


def scap_stream_timeline(sc: ScapSocket, five_tuple: Any) -> Optional[StreamTimeline]:
    """Reconstruct one connection's lifecycle from the trace ring."""
    return sc.stream_timeline(five_tuple)


def scap_set_store(sc: ScapSocket, recorder: "StreamRecorder") -> int:
    """Attach a stream-store recorder: deliveries are persisted (§6.6)."""
    sc.set_store(recorder)
    return 0


def scap_store_stats(sc: ScapSocket) -> "StoreStats":
    """Read the attached stream store's accounting snapshot."""
    return sc.store_stats()


def scap_close(sc: ScapSocket) -> None:
    """Close an Scap socket."""
    sc.close()
