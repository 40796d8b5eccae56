"""The capture/store owner: the daemon's second thread.

The simulated pipeline is a single-threaded machine and the store's
writer keeps owner-thread state, so one thread has both for their
whole life: :class:`CaptureOwner` is the only code in the service that
constructs a ``ScapSocket`` or calls ``flush``/``query``/``close`` on
the store.  The loop thread (:mod:`repro.service.daemon`) feeds it
commands — each carrying the config snapshot it needs, so the owner
never reads loop state — and gets stream events (a burst per inbox
item) and completions back through its one bounded inbox, in order:
every event of a capture is posted before that capture's completion.
A completion carries when its command body started and ended, so the
loop records the command's span: the owner never writes the trace ring.
"""

from __future__ import annotations

import io
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.api import ScapSocket
from ..filters.bpf import BPFFilter, filter_union
from ..netstack.flows import FiveTuple
from ..netstack.pcap import write_pcap
from ..traffic import PcapSource, Trace, campus_mix
from .protocol import ERR_BAD_REQUEST, ERR_INTERNAL, STREAM_ROW, ServiceError

__all__ = ["CaptureOwner", "guarded", "store_stats", "trace_to_pcap_bytes"]

GBIT = 1e9

#: Inbox tags of what the owner posts to the loop: a burst of stream
#: events ``(tag, [(kind, capture, five_tuple, direction, stream_id,
#: offset, payload), ...])``; a finished command ``(tag, token, status,
#: header | error message, payload, store counters, started, ended)``,
#: the last two ``time.monotonic()`` around its body; and its last word.
POST_EVENTS = "events"
POST_DONE = "done"
POST_STOPPED = "stopped"
#: Events the owner collects before it posts them as one inbox item
#: (fewer when a command ends: nothing is held across a completion).
EVENT_BURST = 64


def guarded(body: Callable[..., Tuple[Dict[str, Any], bytes]], *args: Any):
    """Run one command body; ``(status, header | message, payload)``.

    Maps what a body raises to the typed error its client gets, on
    whichever thread runs it — the daemon must survive any request.
    """
    try:
        header, payload = body(*args)
        return "ok", header, payload
    except ServiceError as exc:
        return exc.code, exc.message, b""
    except (KeyError, ValueError, TypeError) as exc:
        return ERR_BAD_REQUEST, f"{type(exc).__name__}: {exc}", b""
    except Exception as exc:  # noqa: BLE001 — the daemon must survive
        return ERR_INTERNAL, f"{type(exc).__name__}: {exc}", b""


def store_stats(store) -> Optional[Dict[str, int]]:
    """The store counters the ``stats`` command reports."""
    if store is None:
        return None
    stats = store.stats()
    return {
        "stored_bytes": stats.stored_bytes,
        "record_count": stats.record_count,
        "segment_count": stats.segment_count,
        "evicted_bytes": stats.evicted_bytes,
    }


class CaptureOwner:
    """Runs captures and store commands, one at a time, on one thread."""

    def __init__(
        self,
        store,
        memory_size: int,
        core_count: int,
        post: Callable[[tuple], None],
    ):
        self.store = store
        self.memory_size = memory_size
        self.core_count = core_count
        #: Puts one item in the loop's bounded inbox (blocks when full).
        self._post = post
        self._commands: "queue.SimpleQueue[Optional[tuple]]" = queue.SimpleQueue()
        self._captures = 0
        #: Stream events of the running capture not posted yet.
        self._burst: List[tuple] = []
        self.thread = threading.Thread(target=self.run, name="scapd-owner", daemon=True)

    # ------------------------------------------------------------------
    # Called from the loop thread
    # ------------------------------------------------------------------
    def submit(self, token: object, body: Callable, *args: Any) -> None:
        """Queue ``body(*args)``; its ``POST_DONE`` carries ``token`` back."""
        self._commands.put((token, body, args))

    def stop(self) -> None:
        """Finish what is queued, close the store, post ``stopped``, exit."""
        self._commands.put(None)

    # ------------------------------------------------------------------
    # The owner thread
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Serve commands until :meth:`stop`; then seal the store."""
        while self._run_one(self._commands.get()):
            pass
        try:
            if self.store is not None:
                self.store.close()
        finally:
            self._post((POST_STOPPED,))  # whatever close() did, the loop must not wait forever

    def _run_one(self, item: Optional[tuple]) -> bool:
        # Its own frame: a multi-MB result must not stay alive in
        # ``run``'s locals until the next command replaces it.
        if item is None:
            return False
        token, body, args = item
        started = time.monotonic()
        outcome = guarded(body, *args)
        ended = time.monotonic()
        self._post_events()  # also when the body raised: events come before the completion
        self._post((POST_DONE, token, *outcome, store_stats(self.store), started, ended))
        return True

    def _post_events(self) -> None:
        if self._burst:
            self._post((POST_EVENTS, self._burst))
            self._burst = []

    # -- capture ---------------------------------------------------------
    def capture(
        self,
        header: Dict[str, Any],
        payload: bytes,
        default_name: str,
        filters: Tuple[str, ...],
        cutoff: Optional[int],
        priorities: Tuple[Tuple[str, int], ...],
    ) -> Tuple[Dict[str, Any], bytes]:
        """Replay one submitted trace through the pipeline.

        ``header`` is the request's: ``kind`` (``pcap`` bytes in
        ``payload``, or a server-side ``campus`` spec), ``rate_bps``
        and ``name``.  ``filters``, ``cutoff`` and ``priorities`` are
        the runtime config as the loop saw it at dispatch.
        """
        name = str(header.get("name", default_name))
        trace = _trace_from_request(header, payload, name)
        rate_bps = float(header.get("rate_bps", GBIT))
        capture_number = self._captures
        scap = ScapSocket(
            trace,
            rate_bps=rate_bps,
            memory_size=self.memory_size,
            core_count=self.core_count,
        )
        if filters:
            scap.config.bpf = filter_union([BPFFilter(f) for f in filters])
        if cutoff is not None:
            scap.set_cutoff(cutoff)
        if self.store is not None:
            from ..apps.recorder import StreamRecorder

            scap.set_store(StreamRecorder(self.store))
        rules = [(BPFFilter(expression), priority) for expression, priority in priorities]

        def event(kind: str, stream, payload: bytes = b"") -> None:
            self._burst.append((
                kind, capture_number, stream.five_tuple, stream.direction,
                stream.stream_id, stream.data_offset if kind == "data" else 0, payload,
            ))
            if len(self._burst) >= EVENT_BURST:
                self._post_events()

        def on_creation(stream) -> None:
            for bpf, priority in rules:
                if bpf.matches_five_tuple(stream.five_tuple):
                    scap.set_stream_priority(stream, priority)
                    break
            event("created", stream)

        scap.dispatch_creation(on_creation)
        scap.dispatch_data(lambda stream: event("data", stream, bytes(stream.data)))
        scap.dispatch_termination(lambda stream: event("closed", stream))
        result = scap.start_capture(name=name)
        if self.store is not None:
            self.store.flush()
        trace.close()
        self._captures += 1
        summary = {
            "name": name,
            "capture": capture_number,
            "duration": result.duration,
            "offered_packets": result.offered_packets,
            "offered_bytes": result.offered_bytes,
            "dropped_packets": result.dropped_packets,
            "discarded_packets": result.discarded_packets,
            "delivered_bytes": result.delivered_bytes,
            "delivered_events": result.delivered_events,
            "streams_created": result.streams_created,
        }
        return ({"result": summary}, b"")

    # -- store -----------------------------------------------------------
    def query(self, spec: Dict[str, Any]) -> Tuple[Dict[str, Any], List[bytes]]:
        """Answer one ``query``.

        The header counts the result's streams; the payload is every
        stream's :data:`~repro.service.protocol.STREAM_ROW`, then every
        stream's data, both in result order, for one join.
        """
        self.store.flush()  # make everything recorded so far queryable
        flow = spec.get("flow")
        five_tuple = FiveTuple(*flow) if flow is not None else None
        result = self.store.query(
            five_tuple,
            start_ts=spec.get("start"),
            end_ts=spec.get("end"),
        )
        pack = STREAM_ROW.pack
        rows: List[bytes] = []
        chunks: List[bytes] = []
        for stream in result.streams:
            data = stream.data
            rows.append(pack(
                *stream.client_tuple, stream.direction, len(data), stream.first_ts,
                stream.last_ts, stream.base_offset, stream.gap_bytes,
            ))
            chunks.append(data)
        count = len(result.streams)
        return ({"streams": count, "total_bytes": result.total_bytes}, rows + chunks)

    def flush(self) -> Tuple[Dict[str, Any], bytes]:
        """Seal the store's active segments (the reload path)."""
        sealed = 0
        if self.store is not None:
            before = self.store.stats().segments_sealed
            self.store.flush()
            sealed = self.store.stats().segments_sealed - before
        return ({"sealed_segments": sealed}, b"")


def _trace_from_request(header: Dict[str, Any], payload: bytes, name: str) -> "Trace | PcapSource":
    kind = header.get("kind", "pcap")
    if kind == "campus":
        return campus_mix(
            flow_count=int(header.get("flows", 100)),
            seed=int(header.get("seed", 7)),
            max_flow_bytes=int(header.get("max_flow_bytes", 200_000)),
        )
    if kind == "pcap":
        if not payload:
            raise ServiceError(ERR_BAD_REQUEST, "pcap submission has no payload")
        return PcapSource(payload, name=name)
    raise ServiceError(ERR_BAD_REQUEST, f"unknown trace kind {kind!r}")


def trace_to_pcap_bytes(trace: Trace) -> bytes:
    """Serialize a Trace's packets to pcap bytes (the submission form)."""
    buffer = io.BytesIO()
    write_pcap(buffer, trace.packets)
    return buffer.getvalue()
