"""``ScapClient``: the remote side of the capture-daemon protocol.

Connects over a Unix or TCP socket, writes each request as its parts
(:func:`repro.service.protocol.frame_parts`, a pcap never joined to its
header), reads each reply into one buffer of its declared length
(:class:`repro.service.protocol.FrameReceiver`), and gives three calling
styles (the DarwinApi socket-API idiom):

* :meth:`call` — one request, wait for its response (with a
  per-request timeout and a single exponential-backoff retry for
  idempotent commands);
* :meth:`bulk_call` — pipeline many requests before collecting any
  response, amortizing round trips (a batch of store queries is a
  pipeline of ``query`` requests);
* :meth:`subscribe` — install a standing stream-event subscription and
  iterate delivered events from a local queue.

Both request styles run one exchange: an issue step (request id, span,
send) and a collect step (await, map an error frame or a timeout to its
exception, release).

A thread that waits for a response or an event reads the socket
itself unless another thread is reading, and routes every frame it
completes — responses by request id, events to their subscription's
stream; otherwise it sleeps until the reading thread has routed
something.  So a call on a connection without subscriptions never
leaves its own thread.  Events arrive unasked, so the first
subscription starts one drainer thread that reads until
:meth:`ScapClient.close`.  The daemon sends a run of one subscription's
events as one frame; routing splits it back into one :class:`Frame`
per event, whatever the wire batching.
"""

from __future__ import annotations

import select
import socket as socket_module
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..observability.spans import (
    KIND_CLIENT,
    Span,
    SpanRecord,
    SpanRecorder,
    span_records,
)
from .protocol import (
    ERR_TIMEOUT,
    IDEMPOTENT_COMMANDS,
    MAX_FRAME_BYTES,
    MSG_ERROR,
    MSG_EVENT,
    MSG_REQUEST,
    MSG_RESPONSE,
    PROTOCOL_MINOR,
    ROWS_MINOR,
    Frame,
    FrameReceiver,
    ProtocolError,
    ServiceError,
    frame_parts,
    split_events,
    split_streams,
    write_parts,
)

__all__ = ["RemoteCallError", "CallTimeout", "EventStream", "ScapClient"]

DEFAULT_TIMEOUT = 10.0


class RemoteCallError(ServiceError):
    """The daemon answered with a typed MSG_ERROR frame."""


class CallTimeout(ServiceError):
    """No response arrived within the per-request timeout."""

    def __init__(self, message: str):
        super().__init__(ERR_TIMEOUT, message)


@dataclass
class CallResult:
    """One completed call: the response header and its binary payload —
    ``bytes`` for a response that came whole in one read, otherwise a
    read-only view of the buffer the response was received into."""

    header: Dict[str, Any]
    payload: Union[bytes, memoryview]


class EventStream:
    """Client-side handle for one subscription's delivered events: one
    per-event frame at a time, split from the daemon's multi-event frames."""

    def __init__(self, client: "ScapClient", subscription_id: int):
        self.client = client
        self.subscription_id = subscription_id
        #: Routed events not yet returned, filled under the client's lock.
        self._held: "deque[Frame]" = deque()

    def next_event(self, timeout: Optional[float] = 5.0) -> Optional[Frame]:
        """The next delivered event frame (None on timeout/close)."""
        client = self.client
        client._wait(lambda: self._held, timeout)
        with client._lock:
            return self._held.popleft() if self._held else None

    def events(self, timeout: Optional[float] = 5.0) -> Iterator[Frame]:
        """Iterate events until a timeout or the connection closes."""
        while True:
            frame = self.next_event(timeout=timeout)
            if frame is None:
                return
            yield frame

    def close(self) -> None:
        """Unsubscribe on the daemon and drop the local queue."""
        self.client.unsubscribe(self.subscription_id)


class ScapClient:
    """A connection to a running :class:`~repro.service.ScapDaemon`."""

    def __init__(
        self,
        unix_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        token: Optional[str] = None,
        name: str = "",
        timeout: float = DEFAULT_TIMEOUT,
        retry_idempotent: bool = True,
        retry_backoff: float = 0.05,
        observability=None,
        trace_prefix: Optional[str] = None,
    ):
        if unix_path is not None:
            sock = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            try:
                sock.connect(unix_path)
            except BaseException:
                sock.close()
                raise
        elif host is not None and port is not None:
            sock = socket_module.create_connection((host, port))
        else:
            raise ValueError("connect with unix_path= or host=/port=")
        self.sock = sock
        self.timeout = timeout
        self.retry_idempotent = retry_idempotent
        self.retry_backoff = retry_backoff
        self._lock = threading.Lock()
        #: Notified whenever the reading thread has routed what it read.
        self._routed = threading.Condition(self._lock)
        self._write_lock = threading.Lock()
        self._next_request_id = 1
        #: Waiting callers by request id: the command they sent and,
        #: once routed, its response.
        self._pending: Dict[int, Tuple[str, Optional[Frame]]] = {}
        self._streams: Dict[int, EventStream] = {}
        #: Whether some thread is reading the socket; only it feeds
        #: ``_frames`` and polls ``_poll``.
        self._reading = False
        self._frames = FrameReceiver(sock)
        #: The daemon's ``max_frame_bytes``, once its ``hello`` names it.
        self._send_limit = MAX_FRAME_BYTES
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)
        self._drainer: Optional[threading.Thread] = None
        #: Unsolicited MSG_ERROR frames (request_id 0), newest last.
        self.unsolicited_errors: List[Frame] = []
        self._closed = False
        #: Optional request tracing: every call opens a root span whose
        #: context rides the frame header; the daemon links its own
        #: spans under it.  ``trace_prefix`` keeps ids deterministic in
        #: tests; by default each connection gets a unique prefix so
        #: concurrent clients never collide inside the daemon's ring.
        self.observability = observability
        self.tracer: Optional[SpanRecorder] = None
        self.last_trace_id: Optional[str] = None
        if observability is not None and observability.enabled:
            prefix = trace_prefix or f"c{uuid.uuid4().hex[:6]}"
            self.tracer = SpanRecorder(
                observability.trace, clock=time.monotonic, prefix=prefix
            )
        try:
            self.hello = self.call(
                "hello", token=token, name=name, protocol_minor=PROTOCOL_MINOR
            ).header
            minor = self.hello.get("protocol_minor")
            if type(minor) is not int or minor < ROWS_MINOR:
                raise ProtocolError(
                    f"daemon speaks protocol minor {minor!r}; this client reads the "
                    f"binary rows of minor {ROWS_MINOR} and later"
                )
        except BaseException:
            self.close()
            raise
        self.client_id = self.hello.get("client_id")
        limit = self.hello.get("max_frame_bytes")
        if type(limit) is int and limit > 0:
            self._send_limit = limit

    # ------------------------------------------------------------------
    # Inbound routing
    # ------------------------------------------------------------------
    def _wait(self, ready: Callable[[], Any], timeout: Optional[float]) -> None:
        """Block until ``ready()`` holds, ``timeout`` passes or the connection
        closes, reading and routing inbound frames meanwhile; while another
        thread reads, sleep on ``_routed`` until it has routed what it read."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                while True:
                    remaining = None if deadline is None else deadline - time.monotonic()
                    if ready() or self._closed or (remaining is not None and remaining <= 0):
                        return
                    if not self._reading:
                        break
                    self._routed.wait(remaining)
                self._reading = True
            frames: Optional[List[Frame]] = []
            try:
                frames = self._receive(remaining)
            finally:
                self._route(frames)

    def _route(self, frames: Optional[List[Frame]]) -> None:
        """Give up the reading role and file what it read: responses to
        their callers, events to their streams (None: connection gone)."""
        with self._lock:
            self._reading = False
            if frames is None:
                self._closed = True
            for frame in frames or ():
                request = self._pending.get(frame.request_id)
                if frame.msg_type == MSG_EVENT:
                    stream = self._streams.get(frame.header.get("sub"))
                    if stream is not None:
                        try:
                            stream._held.extend(split_events(frame))
                        except ProtocolError:
                            # Rows that do not describe their payload: the
                            # connection is out of step, like garbage framing.
                            self._closed = True
                elif frame.request_id == 0 and frame.msg_type == MSG_ERROR:
                    self.unsolicited_errors.append(frame)
                elif request is not None:
                    self._pending[frame.request_id] = (request[0], frame)
                    if request[0] == "subscribe" and frame.msg_type == MSG_RESPONSE:
                        # Registered before the next frame is read; the drainer
                        # reads the events behind it even when nobody waits.
                        subscription_id = frame.header["subscription_id"]
                        self._streams[subscription_id] = EventStream(self, subscription_id)
                        if self._drainer is None:
                            self._drainer = threading.Thread(
                                target=self._drain, name="scap-client-drain", daemon=True
                            )
                            self._drainer.start()
            self._routed.notify_all()

    def _receive(self, timeout: Optional[float]) -> Optional[List[Frame]]:
        """The frames one read completes: empty if nothing arrived within
        ``timeout``, None once the connection is gone.  The daemon never
        sends a malformed frame, so one means the transport is gone too."""
        try:
            if not self._poll.poll(None if timeout is None else timeout * 1000):
                return []
            return self._frames.receive()
        except (OSError, ProtocolError):
            return None

    def _drain(self) -> None:
        """Read events nobody is waiting for, until the connection closes."""
        self._wait(lambda: False, None)

    # ------------------------------------------------------------------
    # Outbound calls: every request is issued, then collected
    # ------------------------------------------------------------------
    def _issue(
        self, command: str, header: Dict[str, Any], payload: bytes
    ) -> Tuple[int, str, Optional[Span], Optional[Exception]]:
        """Allocate a request id, open the call's span and send the request;
        returns what :meth:`_collect` needs to await its response.  A send
        that fails is :meth:`_collect`'s to raise, so a batch collects
        what was answered before it and ends its calls' spans in order."""
        with self._lock:
            if self._closed:
                raise ConnectionError("client is closed")
            request_id = self._next_request_id
            self._next_request_id += 1
            self._pending[request_id] = (command, None)
        header = dict(header)
        header["command"] = command
        span = None
        tracer = self.tracer
        if tracer is not None:
            span = tracer.start_span(f"client:{command}", kind=KIND_CLIENT, command=command)
            self.last_trace_id = span.trace_id
            # Optional context (protocol minor 1); old daemons ignore it.
            header["trace"] = {"id": span.trace_id, "span": span.span_id}
        error = None
        try:
            parts = frame_parts(
                MSG_REQUEST, request_id, header, payload, limit=self._send_limit
            )
            with self._write_lock:  # a payload is never joined to its header
                while parts:
                    write_parts(self.sock, parts)
        except (OSError, ServiceError) as exc:
            error = exc
        except BaseException:
            self._release(request_id, span, "error")
            raise
        return request_id, command, span, error

    def _collect(
        self, request: Tuple[int, str, Optional[Span], Optional[Exception]], timeout: float
    ) -> CallResult:
        """Wait for an issued request's response and release the request.

        A timeout raises :class:`CallTimeout`, an error frame
        :class:`RemoteCallError`, a connection that closes first
        ``ConnectionError``, a failed send what the send raised.
        """
        request_id, command, span, error = request
        status = "ok"
        try:
            if error is not None:
                status = "error"
                raise error
            self._wait(lambda: self._pending[request_id][1] is not None, timeout)
            with self._lock:
                frame = self._pending[request_id][1]
                if frame is None and self._closed:
                    status = "error"
                    raise ConnectionError("client is closed")
            if frame is None:
                status = "timeout"
                raise CallTimeout(f"no response to {command!r} (request {request_id})")
            if frame.msg_type == MSG_ERROR:
                status = str(frame.header.get("code", "internal"))
                raise RemoteCallError(
                    status, str(frame.header.get("message", "remote error"))
                )
            return CallResult(header=frame.header, payload=frame.payload)
        finally:
            self._release(request_id, span, status)

    def _release(self, request_id: int, span: Optional[Span], status: str) -> None:
        with self._lock:
            self._pending.pop(request_id, None)
        if span is not None:
            span.end(status=status)

    def low_level_call(
        self,
        command: str,
        header: Optional[Dict[str, Any]] = None,
        payload: bytes = b"",
        timeout: Optional[float] = None,
    ) -> CallResult:
        """One request/response exchange without retry logic."""
        request = self._issue(command, header or {}, payload)
        return self._collect(request, self.timeout if timeout is None else timeout)

    def call(
        self,
        command: str,
        payload: bytes = b"",
        timeout: Optional[float] = None,
        **kwargs: Any,
    ) -> CallResult:
        """Call ``command``; idempotent commands retry once on timeout.

        The retry waits ``retry_backoff`` seconds, and a retry's own
        timeout doubles — exponential backoff capped at one retry, so a
        transiently busy daemon gets a second chance but a dead one
        fails in bounded time.
        """
        try:
            return self.low_level_call(command, kwargs, payload, timeout=timeout)
        except CallTimeout:
            if not self.retry_idempotent or command not in IDEMPOTENT_COMMANDS:
                raise
            time.sleep(self.retry_backoff)
            doubled = (self.timeout if timeout is None else timeout) * 2
            return self.low_level_call(command, kwargs, payload, timeout=doubled)

    def bulk_call(
        self, calls: Sequence[Tuple[str, Dict[str, Any], bytes]]
    ) -> List[CallResult]:
        """Pipeline many calls: send all requests, then collect in order.

        ``calls`` is a sequence of ``(command, header, payload)``.  A
        failed call raises after every response was collected, so a
        later reply is not left behind by an earlier error; a failed send
        or a closed connection raises in its turn, after the responses
        that arrived before it.
        """
        issued: List[Tuple[int, str, Optional[Span], Optional[Exception]]] = []
        results: List[CallResult] = []
        failure: Optional[ServiceError] = None
        collected = 0
        try:
            for command, header, payload in calls:
                issued.append(self._issue(command, header, payload))
            for request in issued:
                collected += 1
                try:
                    results.append(self._collect(request, self.timeout))
                except (CallTimeout, RemoteCallError) as exc:
                    failure = failure or exc
        finally:
            # A failed send or a connection that closes: no request
            # issued after it stays pending with its span open.
            for request_id, _, span, _ in issued[collected:]:
                self._release(request_id, span, "error")
        if failure is not None:
            raise failure
        return results

    # ------------------------------------------------------------------
    # Convenience wrappers over the command catalog
    # ------------------------------------------------------------------
    def ping(self, echo: Any = None) -> Dict[str, Any]:
        """Round-trip liveness probe."""
        return self.call("ping", echo=echo).header

    def submit_trace(
        self, pcap_bytes: bytes, rate_bps: float = 1e9, name: str = "remote"
    ) -> Dict[str, Any]:
        """Capture a pcap (shipped as frame payload); returns the run summary.

        The pcap must fit one frame of the daemon's ``max_frame_bytes``
        (its ``hello`` names it); a larger one raises
        :class:`~repro.service.protocol.FrameTooLarge` before anything is sent.
        """
        result = self.call(
            "submit_trace",
            payload=pcap_bytes,
            kind="pcap",
            rate_bps=rate_bps,
            name=name,
            timeout=max(self.timeout, 60.0),
        )
        return result.header["result"]

    def submit_campus(
        self, flows: int = 100, seed: int = 7, rate_bps: float = 1e9, name: str = "campus"
    ) -> Dict[str, Any]:
        """Capture a server-side synthetic campus-mix workload."""
        result = self.call(
            "submit_trace",
            kind="campus",
            flows=flows,
            seed=seed,
            rate_bps=rate_bps,
            name=name,
            timeout=max(self.timeout, 60.0),
        )
        return result.header["result"]

    def install_filter(self, expression: str) -> int:
        """Add a keep-filter for subsequent captures; returns its id."""
        return self.call("install_filter", expression=expression).header["filter_id"]

    def remove_filter(self, filter_id: int) -> None:
        """Remove a previously installed keep-filter."""
        self.call("remove_filter", filter_id=filter_id)

    def set_cutoff(self, cutoff: Optional[int]) -> None:
        """Set (or clear, with None) the daemon's default stream cutoff."""
        self.call("set_cutoff", cutoff=cutoff)

    def set_priority(self, expression: str, priority: int) -> int:
        """Install a BPF-classed PPL priority rule; returns its id."""
        return self.call(
            "set_priority", expression=expression, priority=priority
        ).header["priority_id"]

    def remove_priority(self, priority_id: int) -> None:
        """Remove a previously installed priority rule."""
        self.call("remove_priority", priority_id=priority_id)

    def subscribe(
        self,
        events: Optional[Sequence[str]] = None,
        flow_filter: str = "",
    ) -> EventStream:
        """Install a stream-event subscription; returns its event queue.

        Whichever thread routes the response registers the stream
        before it reads the next frame, so no event the daemon sends
        after it is lost.
        """
        subscription_id = self.call(
            "subscribe",
            events=list(events) if events is not None else None,
            filter=flow_filter,
        ).header["subscription_id"]
        with self._lock:
            return self._streams[subscription_id]

    def unsubscribe(self, subscription_id: int) -> None:
        """Tear down a subscription on both sides."""
        with self._lock:
            self._streams.pop(subscription_id, None)
        self.call("unsubscribe", subscription_id=subscription_id)

    def query(
        self,
        flow: Optional[Sequence[int]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Five-tuple/time-range store query with reassembled payloads.

        Returns one dict per matching stream direction: its metadata
        (``flow``, ``direction``, ``len``, ``first_ts``, ``last_ts``,
        ``base_offset``, ``gap_bytes``) and its ``data`` bytes, unpacked
        from the reply's rows and payload.  Raises
        :class:`~repro.service.protocol.ProtocolError` when the rows do
        not describe the payload exactly.
        """
        result = self.call(
            "query", flow=list(flow) if flow is not None else None,
            start=start, end=end,
        )
        return split_streams([result.header["streams"]], result.payload)[0]

    def bulk_query(self, specs: Sequence[Dict[str, Any]]) -> List[List[Dict[str, Any]]]:
        """Many store queries, pipelined as ``query`` requests; one stream list per spec.

        Each spec holds ``flow``, ``start`` and ``end`` as :meth:`query`
        takes them; the lists come back in spec order (:meth:`bulk_call`).
        Each query is answered on its own, so a capture another client
        submits can land between two of them: a batch is not one snapshot.
        """
        results = self.bulk_call([("query", spec, b"") for spec in specs])
        return [split_streams([result.header["streams"]], result.payload)[0] for result in results]

    def stats(self) -> Dict[str, Any]:
        """The daemon's server, per-client and store statistics snapshot."""
        return self.call("stats").header

    def spans(
        self,
        trace_id: Optional[str] = None,
        slowest: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Span records retained by the daemon (optionally one trace)."""
        header = self.call(
            "spans", trace_id=trace_id, slowest=slowest, limit=limit
        ).header
        return list(header.get("spans", []))

    def telemetry(self) -> Dict[str, Any]:
        """The daemon's telemetry-ring history (cadenced samples)."""
        return self.call("telemetry").header["telemetry"]

    def health(self) -> Dict[str, Any]:
        """The daemon's health verdict (same shape as ``/healthz``)."""
        return self.call("health").header["health"]

    def local_spans(self) -> List[SpanRecord]:
        """Client-side span records from this connection's trace ring."""
        if self.observability is None:
            return []
        return span_records(self.observability.trace.events())

    def reload(self) -> Dict[str, Any]:
        """Ask the daemon to drain queues and seal store segments."""
        return self.call("reload", timeout=max(self.timeout, 30.0)).header

    def shutdown_server(self) -> Dict[str, Any]:
        """Ask the daemon to shut down gracefully."""
        return self.call("shutdown").header

    def close(self) -> None:
        """Close the connection and wake every thread waiting on it."""
        with self._lock:
            self._closed = True
            self._routed.notify_all()
        try:
            self.sock.shutdown(socket_module.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        if self._drainer is not None:
            self._drainer.join(timeout=2.0)

    def __enter__(self) -> "ScapClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

