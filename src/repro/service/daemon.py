"""``ScapDaemon``: the capture runtime behind a socket boundary.

The Scap paper places the Stream abstraction behind a kernel-module
boundary that many monitoring processes share; this daemon is that
boundary for the reproduction.  One long-running process owns the
simulated NIC/kernel pipeline and the persistent stream store, and
serves many concurrent clients over Unix and/or TCP sockets speaking
the length-framed protocol of :mod:`repro.service.protocol`.

Clients can:

* submit traces (pcap bytes, one frame's payload of at most
  ``max_frame_bytes``, or a synthetic-workload spec) for capture through the full pipeline;
* install/remove BPF keep-filters, set the default cutoff, and install
  BPF-classed PPL priorities — all applied to subsequent captures;
* subscribe to stream events (``created`` / ``data`` / ``closed``)
  with per-client backpressure-bounded queues;
* issue five-tuple/time-range queries against the stream store,
  receiving reassembled payload bytes (a client batches queries by
  pipelining them).

Each fact is recorded once: a request by ``scap_service_requests_total``
and its ``daemon:<command>`` span, a dropped event by
``scap_service_events_dropped_total`` and the session ledger, an
eviction by ``scap_service_client_evictions_total`` and ``evicted`` in
the final ledger.  The trace ring holds only spans, for ``spans``.

Threading model (``docs/SERVICE.md`` has the full table): two threads
whose state never overlaps, whatever the number of clients.  **The loop
thread** (this module) runs one ``selectors`` loop over every socket —
the HTTP endpoints' too — and owns the sessions, the runtime config,
the lifecycle flags, the trace ring and a timer heap; cheap commands
are answered inline on it.  **The owner thread**
(:mod:`repro.service.owner`) is the only code that touches a
``ScapSocket`` or the ``StreamStore``; its events and completions come
back through the loop's one bounded inbox, in order.  Foreign threads
calling the public methods post to the same inbox and wait.  Nothing
is locked because nothing is shared.  A misbehaving client is met only
as a real peer: a slow reader fills its own bounded queue, a hang-up
retires its session, garbage costs a typed ``bad_frame`` error.
"""

from __future__ import annotations

import os
import queue
import sched
import selectors
import socket as socket_module
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.cutoff import CutoffPolicy
from ..filters.bpf import BPFFilter
from ..observability import (
    NULL_OBSERVABILITY,
    Observability,
    SpanRecorder,
    SpanTreeReconstructor,
    TelemetryRing,
)
from ..observability.spans import KIND_INTERNAL, KIND_SERVER, KIND_STORE, Span
from .health import DEFAULT_HEALTH_RULES, HealthReport, evaluate_health, http_response
from .owner import EVENT_BURST, POST_DONE, POST_EVENTS, CaptureOwner, guarded, store_stats
from .protocol import (
    COMMANDS,
    ERR_BAD_FRAME,
    ERR_BAD_REQUEST,
    ERR_QUOTA,
    ERR_SHUTTING_DOWN,
    ERR_UNAUTHORIZED,
    ERR_UNKNOWN_COMMAND,
    ERROR_CODES,
    EVENT_KINDS,
    MAX_FRAME_BYTES,
    MAX_LENGTH_PREFIX,
    MSG_ERROR,
    MSG_REQUEST,
    MSG_RESPONSE,
    PROTOCOL_MINOR,
    RECV_BYTES,
    REJECT_CATEGORIES,
    ROWS_MINOR,
    Frame,
    FrameRejection,
    Payload,
    ProtocolError,
    ServiceError,
    frame_parts,
    write_parts,
)
from .session import ClientQuotas, ClientSession

__all__ = ["DaemonConfig", "ScapDaemon", "register_service_metrics"]

#: Close a connection after this many consecutive malformed frames —
#: a peer that never resynchronizes is noise, not a client.
MAX_CONSECUTIVE_REJECTIONS = 8

#: Events (a burst is one inbox item; a completion or a foreign call
#: counts as one) the inbox holds before a producer blocks, and how many
#: the loop takes between socket passes.
INBOX_DEPTH = 1024
INBOX_BATCH = 256
#: Inbox tag of a call marshalled from a foreign thread.
POST_CALL = "call"
#: Seconds a disconnected client's queued output is given to leave.
RETIRE_SECONDS = 2.0
#: Seconds a reload waits for client queues to empty.
RELOAD_DRAIN_SECONDS = 5.0
#: What a handler returns when the response comes later (from the
#: owner thread, or when a reload finishes).
DEFERRED: Tuple[None, bytes] = (None, b"")
#: Bytes of an HTTP request head read before it is answered 431.
HTTP_HEAD_BYTES = 8192
#: Seconds an HTTP peer is kept, from its accept, whatever it is doing.
HTTP_DEADLINE_SECONDS = 10.0


@dataclass
class DaemonConfig:
    """Tunables of one daemon instance."""

    #: Store directory for captured streams (None = queries disabled).
    store_dir: Optional[str] = None
    #: Accepted auth tokens (None = authentication disabled).
    auth_tokens: Optional[Tuple[str, ...]] = None
    quotas: ClientQuotas = field(default_factory=ClientQuotas)
    #: Daemon-wide bound on queued events across all clients
    #: (None = only the per-client bound applies).
    global_event_budget: Optional[int] = None
    #: Memory pool size for submitted captures.
    memory_size: int = 64 << 20
    #: Simulated cores for submitted captures.
    core_count: int = 8
    #: Whether remote ``shutdown`` / ``reload`` commands are honoured.
    allow_control: bool = True
    #: Largest accepted frame (submitted traces must fit in one frame);
    #: the ``hello`` reply names it, and a client sends frames up to it.
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Wall-clock seconds between telemetry-ring samples.
    telemetry_cadence: float = 1.0
    #: Serve ``/metrics``, ``/healthz`` and ``/readyz`` over HTTP on this
    #: host, from the loop thread (None = no HTTP).  Port 0 picks a
    #: free port; read it back from ``http_address``.
    http_host: Optional[str] = None
    #: The HTTP port (see ``http_host``).
    http_port: int = 0

    def validate(self) -> None:
        """Raise ValueError on out-of-range settings."""
        self.quotas.validate()
        if self.memory_size < 1:
            raise ValueError("memory_size must be positive")
        if self.core_count < 1:
            raise ValueError("core_count must be positive")
        if not 1 <= self.max_frame_bytes <= MAX_LENGTH_PREFIX:
            raise ValueError("max_frame_bytes must be positive and fit the length prefix")
        if self.global_event_budget is not None and self.global_event_budget < 1:
            raise ValueError("global_event_budget must be positive")
        if self.telemetry_cadence <= 0:
            raise ValueError("telemetry_cadence must be positive")


def register_service_metrics(registry) -> Dict[str, Any]:
    """Register every ``scap_service_*`` family, children pre-created.

    Shared by :class:`ScapDaemon` (which binds the returned
    instruments) and by the exporter parity check (``repro-scap stats
    --check-parity``), so parity is verified for the whole service
    registry — span and telemetry families included — without needing
    a live daemon.  Pre-creating the labeled children here means
    the loop thread only ever ``.inc()``/``.observe()`` existing
    instruments.
    """
    metrics: Dict[str, Any] = {
        "connections": registry.counter(
            "scap_service_connections_total", "client connections accepted"
        ),
        "active": registry.gauge(
            "scap_service_active_clients", "currently connected clients"
        ),
        "requests": registry.counter(
            "scap_service_requests_total", "requests processed",
            labels=("command",),
        ),
        "errors": registry.counter(
            "scap_service_errors_total", "typed error responses",
            labels=("code",),
        ),
        "rejected": registry.counter(
            "scap_service_frames_rejected_total",
            "malformed frames rejected without dropping the connection",
            labels=("reason",),
        ),
        "bad_frames": registry.counter(
            "scap_service_bad_frames_total",
            "rejected frames by structural category",
            labels=("reason",),
        ),
        "command_seconds": registry.histogram(
            "scap_service_command_seconds",
            "request handling wall seconds by command",
            labels=("command",),
        ),
        "enqueued": registry.counter(
            "scap_service_events_enqueued_total", "events queued for delivery"
        ),
        "delivered": registry.counter(
            "scap_service_events_delivered_total", "events written to clients"
        ),
        "dropped": registry.counter(
            "scap_service_events_dropped_total", "events dropped by backpressure"
        ),
        "bytes_sent": registry.counter(
            "scap_service_bytes_sent_total", "frame bytes written to clients"
        ),
        "bytes_received": registry.counter(
            "scap_service_bytes_received_total", "frame bytes read from clients"
        ),
        "captures": registry.counter(
            "scap_service_captures_total", "capture runs executed for clients"
        ),
        "capture_dropped": registry.counter(
            "scap_service_capture_dropped_packets_total",
            "packets dropped unintentionally during client captures",
        ),
        "evictions": registry.counter(
            "scap_service_client_evictions_total",
            "clients disconnected for falling too far behind",
        ),
        "queued_events": registry.gauge(
            "scap_service_queued_events",
            "events currently queued across all clients",
        ),
        "queue_saturation": registry.gauge(
            "scap_service_queue_saturation",
            "deepest client event queue as a fraction of its quota",
        ),
        "telemetry_samples": registry.counter(
            "scap_service_telemetry_samples_total",
            "telemetry-ring snapshots taken",
        ),
    }
    for command in COMMANDS + ("?",):
        metrics["requests"].labels(command)
        metrics["command_seconds"].labels(command)
    for code in ERROR_CODES:
        metrics["errors"].labels(code)
    metrics["rejected"].labels(ERR_BAD_FRAME)
    for category in REJECT_CATEGORIES:
        metrics["bad_frames"].labels(category)
    return metrics


@dataclass
class _Request:
    """One dispatched request, until its response is written."""

    session: ClientSession
    request_id: int
    command: str
    #: ``daemon:<command>`` and ``handler:<command>`` (tracing only);
    #: the owner's capture/store hop is recorded under the latter.
    span: Optional[Span] = None
    handler_span: Optional[Span] = None


@dataclass
class _Reload:
    """A reload in progress: sealed by the owner, then queues drained."""

    done: Callable[[Dict[str, int]], None]
    #: ``time.monotonic()`` after which client queues are not waited for.
    deadline: float
    sealed: Optional[int] = None


class _HttpPeer:
    """One HTTP connection: the request head read so far, then the
    response's unsent parts (None until it is rendered)."""

    __slots__ = ("sock", "head", "unsent")

    def __init__(self, sock: socket_module.socket):
        self.sock = sock
        self.head = bytearray()
        self.unsent: Optional[List] = None


class ScapDaemon:
    """A long-running capture service over Unix/TCP sockets.

    Loop-thread state throughout; the public methods may be called
    from any thread (those that need loop state post and wait).
    """

    def __init__(
        self,
        config: Optional[DaemonConfig] = None,
        observability: Optional[Observability] = None,
    ):
        self.config = config or DaemonConfig()
        self.config.validate()
        self._obs = observability or NULL_OBSERVABILITY
        self._sessions: Dict[int, ClientSession] = {}
        self._listeners: List[Tuple[socket_module.socket, str]] = []
        self._next_client_id = 1
        # closing: shutdown began.  draining: the owner has stopped and
        # the clients are being given their last writes.
        self._closing = False
        self._draining = False
        self._drain_timeout = 0.0
        self._reload: Optional[_Reload] = None
        self._captures = 0
        self.store = None
        if self.config.store_dir is not None:
            from ..store import StreamStore

            self.store = StreamStore(self.config.store_dir, observability=observability)
        #: The store's counters as of the owner's last command.
        self._store_stats = store_stats(self.store)
        # Config the clients program at runtime.
        self._filters: Dict[int, str] = {}
        self._next_filter_id = 1
        self._cutoff: Optional[int] = None
        self._priorities: Dict[int, Tuple[str, int]] = {}
        self._next_priority_id = 1
        #: Ledger snapshots of sessions that finished (id -> dict).
        self.final_ledgers: Dict[int, Dict[str, object]] = {}
        self._balanced = True
        # Families are registered here, on the registry's owning
        # thread (children pre-created); the loop only increments.
        registry = self._obs.registry
        metrics = register_service_metrics(registry)
        self._m_connections = metrics["connections"]
        self._m_active = metrics["active"]
        self._m_requests = metrics["requests"]
        self._m_errors = metrics["errors"]
        self._m_rejected = metrics["rejected"]
        self._m_bad_frames = metrics["bad_frames"]
        self._m_command_seconds = metrics["command_seconds"]
        self._m_enqueued = metrics["enqueued"]
        self._m_delivered = metrics["delivered"]
        self._m_dropped = metrics["dropped"]
        self._m_bytes_sent = metrics["bytes_sent"]
        self._m_bytes_received = metrics["bytes_received"]
        self._m_captures = metrics["captures"]
        self._m_capture_dropped = metrics["capture_dropped"]
        self._m_evictions = metrics["evictions"]
        self._m_queued_events = metrics["queued_events"]
        self._m_queue_saturation = metrics["queue_saturation"]
        self._m_telemetry_samples = metrics["telemetry_samples"]
        # Causal request tracing and cadenced telemetry; both exist
        # only when observability is enabled, so every hot call site
        # guards on ``is not None`` (one pointer check when disabled).
        self._spans: Optional[SpanRecorder] = None
        self.telemetry: Optional[TelemetryRing] = None
        if self._obs.enabled:
            self._spans = SpanRecorder(
                self._obs.trace, clock=time.monotonic, prefix="d"
            )
            self.telemetry = TelemetryRing(
                registry, cadence=self.config.telemetry_cadence
            )
        #: The HTTP listener (bound by :meth:`start` when configured).
        self._http_listener: Optional[socket_module.socket] = None
        #: Bound ``(host, port)`` of the HTTP listener.
        self.http_address: Optional[Tuple[str, int]] = None
        # The inbox is the one way in from any other thread; a byte on
        # the wake pipe tells a sleeping ``select`` it is not empty.
        self._selector = selectors.DefaultSelector()
        self._inbox: "queue.Queue[tuple]" = queue.Queue(maxsize=INBOX_DEPTH // EVENT_BURST)
        self._wake_r, self._wake_w = socket_module.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._wake_sent = False
        #: The timer heap; the loop runs what is due between selects.
        self._timers = sched.scheduler(time.monotonic)
        self._done = False
        self._stopped = threading.Event()
        self._loop_thread: Optional[threading.Thread] = None
        self._owner = CaptureOwner(
            self.store,
            memory_size=self.config.memory_size,
            core_count=self.config.core_count,
            post=self._post,
        )
        #: One ``_cmd_<name>`` per command of the protocol's catalogue:
        #: ``(request, frame) -> (header, payload) | DEFERRED``.
        self._handlers: Dict[str, Callable] = {
            name: getattr(self, f"_cmd_{name}") for name in COMMANDS
        }

    # ------------------------------------------------------------------
    # The public surface (any thread)
    # ------------------------------------------------------------------
    def add_unix_listener(self, path: str) -> str:
        """Bind a Unix stream socket at ``path``; returns the path."""
        sock = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
        # Bound under a staging name and moved into place (over any stale
        # file) once listening: whoever sees ``path`` can connect to it.
        staging = f"{path}.{os.getpid()}"
        sock.bind(staging)
        sock.listen(64)
        os.replace(staging, path)
        self._on_loop(self._add_listener, sock, f"unix:{path}")
        return path

    def add_tcp_listener(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind a TCP listener; returns (host, actual port)."""
        sock = socket_module.create_server((host, port), backlog=64)
        bound = sock.getsockname()
        self._on_loop(self._add_listener, sock, f"tcp:{bound[0]}:{bound[1]}")
        return bound[0], bound[1]

    def start(self) -> None:
        """Bind the HTTP listener (when configured), then start the loop
        thread and the owner thread."""
        if self._loop_thread is not None:
            return
        if self.telemetry is not None:
            self._call_at(
                time.monotonic() + self.config.telemetry_cadence, self._telemetry_tick
            )
        if self.config.http_host is not None:
            sock = socket_module.create_server(
                (self.config.http_host, self.config.http_port), backlog=64
            )
            sock.setblocking(False)
            host, port = sock.getsockname()[:2]
            self._http_listener, self.http_address = sock, (host, port)
            self._selector.register(sock, selectors.EVENT_READ, f"http:{host}:{port}")
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="scapd-loop", daemon=True
        )
        self._owner.thread.start()
        self._loop_thread.start()

    def serve_forever(self) -> None:
        """Serve until a shutdown has *completed*: clients drained,
        store sealed, both threads gone."""
        self.start()
        self._loop_thread.join()

    def shutdown(self, drain_timeout: float = 5.0) -> None:
        """Graceful stop: refuse new work, drain clients, seal the store.

        Idempotent and blocking: every caller returns once the one
        teardown (possibly begun by a remote ``shutdown``) has finished.
        """
        self.start()  # a daemon that never ran still has listeners and a store to close
        self._on_loop(self._begin_shutdown, drain_timeout)
        self._loop_thread.join()

    def reload(self) -> Dict[str, Any]:
        """Drain queues and seal store segments; keep connections open."""
        reply: "queue.SimpleQueue[Dict[str, int]]" = queue.SimpleQueue()
        self._on_loop(self._begin_reload, reply.put)
        return reply.get()

    def health_report(self) -> HealthReport:
        """Evaluate the default rule set right now, on the loop."""
        return self._on_loop(self._health)

    def ledgers_balanced(self) -> bool:
        """True when every retired client's ledger reconciles."""
        return self._on_loop(lambda: self._balanced)

    # ------------------------------------------------------------------
    # Getting onto the loop
    # ------------------------------------------------------------------
    def _post(self, item: tuple) -> None:
        """Put ``item`` in the inbox (waiting while it is full) and make
        sure the loop will look."""
        self._inbox.put(item)
        if not self._wake_sent:
            self._wake()

    def _wake(self) -> None:
        self._wake_sent = True
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # pipe full (a wake is pending anyway) or the loop is gone

    def _on_loop(self, fn: Callable, *args: Any):
        """Run ``fn(*args)`` on the loop thread; the caller waits for it."""
        if self._loop_thread is None or self._stopped.is_set():
            return fn(*args)  # no loop is running: the caller is the only thread here
        reply: "queue.SimpleQueue[Tuple[bool, Any]]" = queue.SimpleQueue()
        self._post((POST_CALL, fn, args, reply))
        if self._stopped.is_set():
            self._drain_inbox()  # the loop exited under us: nobody else will run it
        ok, value = reply.get()
        if not ok:
            raise value
        return value

    def _call_at(self, when: float, fn: Callable, *args: Any) -> None:
        self._timers.enterabs(when, 0, fn, args)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        select = self._selector.select
        run_due_timers = self._timers.run
        try:
            while not self._done:
                # Runs the timers that are due; seconds to the next, or None.
                for key, mask in select(run_due_timers(blocking=False)):
                    target = key.data
                    if type(target) is ClientSession:
                        try:
                            if mask & selectors.EVENT_WRITE:
                                self._pump(target)
                            if mask & selectors.EVENT_READ:
                                self._on_readable(target)
                        except Exception:  # noqa: BLE001 — costs that client, not the daemon
                            traceback.print_exc()
                            self._retire(target, 0.0)
                    elif target is None:
                        self._wake_r.recv(4096)
                        # Cleared before the drain: a producer that sees
                        # it set has put its item where the drain finds it.
                        self._wake_sent = False
                        self._drain_inbox()
                    elif type(target) is _HttpPeer:
                        self._on_http(target)
                    else:
                        self._on_accept(key.fileobj, target)
        finally:
            self._stopped.set()
            self._drain_inbox()  # answer the calls that raced the exit
            self._selector.close()
            self._wake_r.close()
            self._wake_w.close()

    def _drain_inbox(self) -> None:
        get = self._inbox.get_nowait
        touched: Dict[int, ClientSession] = {}
        taken = 0
        while taken < INBOX_BATCH:
            try:
                item = get()
            except queue.Empty:
                break
            tag = item[0]
            if tag == POST_EVENTS:
                taken += len(item[1])
                self._fanout(item[1], touched)
                continue
            taken += 1
            # Whatever comes next is answered after the events posted
            # before it are ledgered and, if the socket takes them, written.
            self._flush_events(touched)
            if tag == POST_DONE:
                self._on_done(*item[1:])
            elif tag == POST_CALL:
                _, fn, args, reply = item
                try:
                    reply.put((True, fn(*args)))
                except Exception as exc:  # noqa: BLE001 — raised in the caller
                    reply.put((False, exc))
            else:
                self._on_owner_stopped()
        else:
            self._wake()  # more may be waiting: come back after a pass over the sockets
        self._flush_events(touched)

    def _add_listener(self, sock: socket_module.socket, label: str) -> None:
        sock.setblocking(False)
        self._listeners.append((sock, label))
        self._selector.register(sock, selectors.EVENT_READ, label)

    def _on_accept(self, listener: socket_module.socket, label: str) -> None:
        try:
            conn, _addr = listener.accept()
        except OSError:
            return
        if label.startswith("http:"):  # answered also while not ready: /readyz says so
            conn.setblocking(False)
            peer = _HttpPeer(conn)
            self._selector.register(conn, selectors.EVENT_READ, peer)
            self._call_at(time.monotonic() + HTTP_DEADLINE_SECONDS, self._http_close, peer)
            return
        if not self._ready():
            conn.close()
            return
        conn.setblocking(False)
        client_id = self._next_client_id
        self._next_client_id += 1
        session = ClientSession(
            client_id,
            conn,
            self.config.quotas,
            peer=label,
            on_send=self._m_bytes_sent.inc if self._obs.enabled else None,
        )
        session.reader.max_frame_bytes = self.config.max_frame_bytes
        session.authenticated = self.config.auth_tokens is None
        self._sessions[client_id] = session
        if self._obs.enabled:
            session.on_delivered = self._m_delivered.inc
            session.on_dropped = self._m_dropped.inc
            self._m_connections.inc()
            self._m_active.set(len(self._sessions))
        self._rearm(session)

    def _ready(self) -> bool:
        return (
            self._loop_thread is not None
            and not self._closing
            and self._reload is None
        )

    def _health(self) -> HealthReport:
        """The default rules' verdict, with readiness and the ledger
        balance of *retired* sessions (a live one has events queued but
        not yet written)."""
        facts = {"ledgers_balanced": self._balanced, "ready": self._ready()}
        return evaluate_health(self.telemetry, DEFAULT_HEALTH_RULES, facts)

    # ------------------------------------------------------------------
    # HTTP: /metrics, /healthz, /readyz, one exchange per connection
    # ------------------------------------------------------------------
    def _on_http(self, peer: _HttpPeer) -> None:
        try:
            if not self._advance_http(peer):
                return
        except BlockingIOError:
            return
        except OSError:
            pass  # the peer is gone
        except Exception:  # noqa: BLE001 — costs that peer, not the daemon
            traceback.print_exc()
        self._http_close(peer)

    def _advance_http(self, peer: _HttpPeer) -> bool:
        """Read the request head, write the response, then read (and
        discard) until the peer hangs up, so that closing never resets
        a response it has not read; True once the exchange is over."""
        sock = peer.sock
        if peer.unsent is None:
            data = sock.recv(HTTP_HEAD_BYTES + 1 - len(peer.head))
            if not data:
                return True
            peer.head += data
            end = peer.head.find(b"\r\n\r\n")
            if end < 0 and len(peer.head) <= HTTP_HEAD_BYTES:
                return False
            head = bytes(peer.head[:end]) if end >= 0 else None
            peer.unsent = http_response(head, self._obs.registry, self._health)
        elif not peer.unsent:
            return not sock.recv(RECV_BYTES)
        try:
            write_parts(sock, peer.unsent)
        except BlockingIOError:
            pass
        if peer.unsent:
            self._selector.modify(sock, selectors.EVENT_WRITE, peer)
        else:
            sock.shutdown(socket_module.SHUT_WR)
            self._selector.modify(sock, selectors.EVENT_READ, peer)
        return False

    def _http_close(self, peer: _HttpPeer) -> None:
        """End an HTTP exchange (the deadline's timer, too, calls this)."""
        if peer.sock.fileno() >= 0:
            self._selector.unregister(peer.sock)
            peer.sock.close()

    # ------------------------------------------------------------------
    # Telemetry (a timer on the loop's clock)
    # ------------------------------------------------------------------
    def _telemetry_tick(self) -> None:
        now = time.monotonic()
        self._sample_telemetry(now)
        self._call_at(now + self.config.telemetry_cadence, self._telemetry_tick)

    def _sample_telemetry(self, now: float):
        telemetry = self.telemetry
        if telemetry is None:
            return None
        queued = 0
        saturation = 0.0
        for session in self._sessions.values():
            depth = session.queue_depth()
            queued += depth
            limit = session.quotas.max_queued_events
            if limit > 0:
                saturation = max(saturation, depth / limit)
        if self._obs.enabled:
            self._m_queued_events.set(queued)
            self._m_queue_saturation.set(saturation)
            self._m_telemetry_samples.inc()
        return telemetry.sample(now)

    # ------------------------------------------------------------------
    # One connection: reading, dispatching, writing, retiring
    # ------------------------------------------------------------------
    def _on_readable(self, session: ClientSession) -> None:
        try:
            data = session.sock.recv(RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._retire(session)
            return
        if self._obs.enabled:
            self._m_bytes_received.inc(len(data))
        session.ledger.bytes_received += len(data)
        session.backlog.extend(session.reader.feed(data))
        self._serve(session)

    def _serve(self, session: ClientSession) -> None:
        """Dispatch what the reader completed, in order, until a request
        defers its response (the rest waits behind it)."""
        backlog = session.backlog
        while backlog and session.inflight is None and session.deadline is None:
            item = backlog.popleft()
            if isinstance(item, FrameRejection):
                self._reject_frame(session, item)
            elif item.msg_type != MSG_REQUEST:
                session.consecutive_rejections = 0
                self._send_error(
                    session, item.request_id, ERR_BAD_REQUEST,
                    f"unexpected {item.msg_type} frame from a client",
                )
            else:
                session.consecutive_rejections = 0
                self._dispatch(session, item)
            if session.consecutive_rejections >= MAX_CONSECUTIVE_REJECTIONS:
                self._retire(session)
                return
        self._rearm(session)

    def _reject_frame(self, session: ClientSession, rejection: FrameRejection) -> None:
        session.ledger.frames_rejected += 1
        session.consecutive_rejections += 1
        if self._obs.enabled:
            self._m_rejected.labels(rejection.reason).inc()
            self._m_bad_frames.labels(rejection.category).inc()
        self._send_error(
            session, 0, rejection.reason, rejection.detail or "malformed frame"
        )

    def _send_error(
        self, session: ClientSession, request_id: int, code: str, message: str
    ) -> None:
        session.ledger.errors += 1
        if self._obs.enabled:
            self._m_errors.labels(code).inc()
        session.send_bytes(
            frame_parts(MSG_ERROR, request_id, {"code": code, "message": message})
        )

    def _dispatch(self, session: ClientSession, frame: Frame) -> None:
        command = frame.command
        session.ledger.requests += 1
        if self._obs.enabled:
            self._m_requests.labels(command or "?").inc()
        request = _Request(session, frame.request_id, command)
        tracer = self._spans
        if tracer is not None:
            # Adopt the caller's trace context (protocol minor 1) when
            # the frame carries one; otherwise root a new trace.
            context = frame.header.get("trace")
            trace_id = parent_id = None
            if isinstance(context, dict):
                raw_trace = context.get("id")
                raw_parent = context.get("span")
                trace_id = str(raw_trace) if raw_trace is not None else None
                parent_id = str(raw_parent) if raw_parent is not None else None
            request.span = tracer.start_span(
                f"daemon:{command or '?'}",
                kind=KIND_SERVER,
                trace_id=trace_id,
                parent_id=parent_id,
                command=command or "?",
                client=session.client_id,
            )
        refusal = self._refusal(session, command)
        if refusal is not None:
            self._finish(request, *refusal)
            return
        if tracer is not None:
            request.handler_span = tracer.start_span(
                f"handler:{command}",
                kind=KIND_INTERNAL,
                trace_id=request.span.trace_id,
                parent_id=request.span.span_id,
            )
        status, header, payload = guarded(self._handlers[command], request, frame)
        if header is None:
            session.inflight = request  # DEFERRED: _resume() answers it
        else:
            self._finish(request, status, header, payload)

    def _refusal(self, session: ClientSession, command: str) -> Optional[Tuple[str, str]]:
        """``(code, message)`` when ``command`` must not run now."""
        if not self._ready() and command not in ("stats", "ping"):
            return ERR_SHUTTING_DOWN, "daemon is shutting down or reloading"
        if command not in self._handlers:
            return ERR_UNKNOWN_COMMAND, f"unknown command {command!r}"
        if not session.authenticated and command != "hello":
            return ERR_UNAUTHORIZED, "authenticate with hello first"
        return None

    def _finish(
        self, request: _Request, status: str, header: Any, payload: Payload = b""
    ) -> None:
        """Write the response (``header`` is the error message when
        ``status`` is not ok) and close the request's spans."""
        if request.handler_span is not None:
            request.handler_span.end(status=status)
        if status == "ok":
            try:
                frame = frame_parts(MSG_RESPONSE, request.request_id, header, payload)
            except ProtocolError as exc:  # the result does not fit one frame
                status, header = exc.code, exc.message
            else:
                request.session.send_bytes(frame)
        if status != "ok":
            self._send_error(request.session, request.request_id, status, header)
        if request.span is not None:
            record = request.span.end(status=status)
            if self._obs.enabled:
                label = request.command if request.command in self._handlers else "?"
                self._m_command_seconds.labels(label).observe(record.duration)

    def _resume(
        self, request: _Request, status: str, header: Any, payload: Payload = b""
    ) -> None:
        """Answer a deferred request and take up its session's backlog."""
        self._finish(request, status, header, payload)
        request.session.inflight = None
        self._serve(request.session)

    def _on_done(
        self, token, status: str, header: Any, payload: Payload, stats,
        started: float, ended: float,
    ) -> None:
        """The owner finished ``token``'s command (its body ran from
        ``started`` to ``ended``): answer it."""
        self._store_stats = stats
        if isinstance(token, _Reload):
            token.sealed = header["sealed_segments"]
            self._reload_progress()
            return
        if token.handler_span is not None:
            self._record_owner_span(token, status, header, started, ended)
        if status == "ok" and token.command == "submit_trace":
            summary = header["result"]
            self._captures += 1
            if self._obs.enabled:
                self._m_captures.inc()
                if summary["dropped_packets"]:
                    self._m_capture_dropped.inc(summary["dropped_packets"])
        self._resume(token, status, header, payload)

    def _record_owner_span(
        self, request: _Request, status: str, header: Any, started: float, ended: float
    ) -> None:
        """Record the owner's hop of ``request`` under its handler span;
        its fields come from the reply header."""
        fields: Dict[str, Any] = {}
        if request.command == "submit_trace":
            name, kind = "capture:run", KIND_INTERNAL
            if status == "ok":
                summary = header["result"]
                fields = {
                    "capture": summary["name"],
                    "offered_packets": summary["offered_packets"],
                    "dropped_packets": summary["dropped_packets"],
                }
        else:
            name, kind = "store:query", KIND_STORE
            if status == "ok":
                fields = {"streams": header["streams"], "bytes": header["total_bytes"]}
        self._spans.record(name, kind, request.handler_span, started, ended, status, **fields)

    def _pump(self, session: ClientSession) -> None:
        """Write what the socket takes; finalize a closing session that
        has nothing, or no patience, left."""
        if session.closed:
            return
        if session.deadline is None:
            session.pump()
        elif session.drain(session.deadline - time.monotonic()):
            self._finalize(session)
            return
        self._reload_progress()
        self._rearm(session)

    def _rearm(self, session: ClientSession) -> None:
        """Wait for what the session waits on: requests (unless one is
        deferred, responses are backing up, or it is closing) and
        write-readiness (a tail is unsent)."""
        if session.closed:
            return
        mask = 0
        if (
            session.inflight is None
            and session.deadline is None
            and not session.response_unsent
        ):
            mask = selectors.EVENT_READ
        if session.has_unsent:
            mask |= selectors.EVENT_WRITE
        if mask != session.mask:
            if not session.mask:
                self._selector.register(session.sock, mask, session)
            elif not mask:
                self._selector.unregister(session.sock)
            else:
                self._selector.modify(session.sock, mask, session)
            session.mask = mask

    def _retire(self, session: ClientSession, patience: float = RETIRE_SECONDS) -> None:
        """Stop serving the session; close it once its queued output has
        left, or after ``patience`` seconds."""
        deadline = time.monotonic() + patience
        if session.closed or (session.deadline is not None and session.deadline < deadline):
            return  # already closing, and sooner
        session.begin_close()
        session.deadline = deadline
        if session.drain(patience):
            self._finalize(session)
            return
        self._call_at(deadline, self._pump, session)
        self._rearm(session)

    def _finalize(self, session: ClientSession) -> None:
        """Close a closed session's connection and retire its ledger."""
        if session.mask:
            self._selector.unregister(session.sock)
            session.mask = 0
        try:
            session.sock.close()
        except OSError:
            pass
        self._sessions.pop(session.client_id, None)
        self.final_ledgers[session.client_id] = session.describe()
        if not session.ledger.balanced():
            self._balanced = False
        if self._obs.enabled:
            self._m_active.set(len(self._sessions))
        self._reload_progress()
        if self._draining and not self._sessions:
            self._finish_shutdown()

    # ------------------------------------------------------------------
    # Stream events from the owner thread
    # ------------------------------------------------------------------
    def _fanout(self, events: List[tuple], touched: Dict[int, ClientSession]) -> None:
        """Queue a burst of stream events on every matching subscription;
        the receivers join ``touched`` for :meth:`_flush_events`."""
        # A copy: retiring a receiver mutates the dict.
        receivers = [s for s in self._sessions.values() if s.subscriptions]
        if not receivers:
            return
        for event in events:
            kind = event[0]
            five_tuple = event[2]
            for receiver in receivers:
                for subscription in receiver.subscriptions.values():
                    if not subscription.wants(kind, five_tuple):
                        continue
                    if receiver.queue_depth() >= receiver.quotas.max_queued_events:
                        self._pump(receiver)  # a client that keeps up loses nothing
                    enqueued, _ = receiver.enqueue_event(subscription, event)
                    if enqueued:
                        if self._obs.enabled:
                            self._m_enqueued.inc()
                        touched[receiver.client_id] = receiver

    def _flush_events(self, touched: Dict[int, ClientSession]) -> None:
        """One gathered write per receiver of what a drain queued, then
        the budgets.  Runs at the end of a drain and before a completion
        is answered (before drop-oldest, :meth:`_fanout` pumps itself)."""
        if not touched:
            return
        for receiver in touched.values():
            self._pump(receiver)
        touched.clear()
        self._enforce_global_budget()
        self._enforce_evictions()

    def _enforce_global_budget(self) -> None:
        budget = self.config.global_event_budget
        if budget is None:
            return
        # Evict from the slowest client (deepest queue) first, oldest
        # event first — the PPL lowest-priority-oldest discipline.
        sessions = sorted(self._sessions.values(), key=ClientSession.queue_depth, reverse=True)
        excess = sum(session.queue_depth() for session in sessions) - budget
        for session in sessions:
            if excess <= 0:
                return
            excess -= session.drop_oldest(excess)

    def _enforce_evictions(self) -> None:
        limit = self.config.quotas.eviction_drop_limit
        if limit is None:
            return
        for session in list(self._sessions.values()):
            if session.mark_evicted(limit):
                if self._obs.enabled:
                    self._m_evictions.inc()
                self._retire(session, 0.0)

    # ------------------------------------------------------------------
    # Command handlers: return (header, payload), DEFERRED, or raise
    # ------------------------------------------------------------------
    def _cmd_hello(self, request: _Request, frame: Frame):
        session = request.session
        tokens = self.config.auth_tokens
        token = frame.header.get("token")
        if tokens is not None and token not in tokens:
            raise ServiceError(ERR_UNAUTHORIZED, "bad auth token")
        session.authenticated = True
        name = frame.header.get("name")
        if isinstance(name, str) and name:
            session.name = name[:64]
        minor = frame.header.get("protocol_minor")
        if type(minor) is int:  # not a bool: JSON ``true`` declares nothing
            session.protocol_minor = minor
        from .. import __version__

        return (
            {
                "client_id": session.client_id,
                "server_version": __version__,
                "protocol_version": frame.version,
                "protocol_minor": PROTOCOL_MINOR,
                "auth": tokens is not None,
                "max_frame_bytes": self.config.max_frame_bytes,
            },
            b"",
        )

    def _cmd_ping(self, request: _Request, frame: Frame):
        return ({"pong": True, "echo": frame.header.get("echo")}, b"")

    # -- capture (owner thread) ------------------------------------------
    def _cmd_submit_trace(self, request: _Request, frame: Frame):
        """Queue a capture under the runtime config as it is now."""
        self._owner.submit(
            request, self._owner.capture, frame.header, frame.payload,
            f"remote-{request.session.client_id}", tuple(self._filters.values()),
            self._cutoff, tuple(self._priorities.values()),
        )
        return DEFERRED

    # -- runtime config --------------------------------------------------
    def _cmd_install_filter(self, request: _Request, frame: Frame):
        expression = str(frame.header.get("expression", "")).strip()
        if not expression:
            raise ServiceError(ERR_BAD_REQUEST, "install_filter needs an expression")
        BPFFilter(expression)  # validate before accepting
        filter_id = self._next_filter_id
        self._next_filter_id += 1
        self._filters[filter_id] = expression
        return ({"filter_id": filter_id, "expression": expression}, b"")

    def _cmd_remove_filter(self, request: _Request, frame: Frame):
        filter_id = int(frame.header["filter_id"])
        if self._filters.pop(filter_id, None) is None:
            raise ServiceError(ERR_BAD_REQUEST, f"unknown filter {filter_id}")
        return ({"filter_id": filter_id, "removed": True}, b"")

    def _cmd_set_cutoff(self, request: _Request, frame: Frame):
        cutoff = frame.header.get("cutoff")
        if cutoff is not None:
            cutoff = int(cutoff)
            CutoffPolicy.validate(cutoff)  # every later capture would reject it
        self._cutoff = cutoff
        return ({"cutoff": self._cutoff}, b"")

    def _cmd_set_priority(self, request: _Request, frame: Frame):
        expression = str(frame.header.get("expression", ""))
        priority = int(frame.header.get("priority", 0))
        if priority < 0:
            raise ServiceError(ERR_BAD_REQUEST, "priority must be non-negative")
        BPFFilter(expression)  # validate before accepting
        priority_id = self._next_priority_id
        self._next_priority_id += 1
        self._priorities[priority_id] = (expression, priority)
        return ({"priority_id": priority_id, "priority": priority}, b"")

    def _cmd_remove_priority(self, request: _Request, frame: Frame):
        priority_id = int(frame.header["priority_id"])
        if self._priorities.pop(priority_id, None) is None:
            raise ServiceError(ERR_BAD_REQUEST, f"unknown priority {priority_id}")
        return ({"priority_id": priority_id, "removed": True}, b"")

    # -- subscriptions ---------------------------------------------------
    @staticmethod
    def _require_rows(request: _Request, command: str) -> None:
        """Refuse a command whose reply carries rows to an older client."""
        if request.session.protocol_minor < ROWS_MINOR:
            raise ServiceError(
                ERR_BAD_REQUEST,
                f"{command} needs protocol_minor >= {ROWS_MINOR} declared in hello "
                "(its replies carry binary rows)",
            )

    def _cmd_subscribe(self, request: _Request, frame: Frame):
        self._require_rows(request, "subscribe")
        session = request.session
        kinds = frame.header.get("events") or list(EVENT_KINDS)
        if not isinstance(kinds, list) or not kinds:
            raise ServiceError(ERR_BAD_REQUEST, "events must be a non-empty list")
        unknown = [kind for kind in kinds if kind not in EVENT_KINDS]
        if unknown:
            raise ServiceError(
                ERR_BAD_REQUEST,
                f"unknown event kinds {unknown}; valid: {list(EVENT_KINDS)}",
            )
        expression = str(frame.header.get("filter", ""))
        subscription = session.add_subscription(tuple(kinds), expression)
        if subscription is None:
            raise ServiceError(
                ERR_QUOTA,
                f"subscription quota reached "
                f"(max_subscriptions={session.quotas.max_subscriptions})",
            )
        return (
            {"subscription_id": subscription.subscription_id, "events": kinds},
            b"",
        )

    def _cmd_unsubscribe(self, request: _Request, frame: Frame):
        subscription_id = int(frame.header["subscription_id"])
        if not request.session.remove_subscription(subscription_id):
            raise ServiceError(
                ERR_BAD_REQUEST, f"unknown subscription {subscription_id}"
            )
        return ({"subscription_id": subscription_id, "removed": True}, b"")

    # -- store queries (owner thread) ------------------------------------
    def _require_store(self) -> None:
        if self.store is None:
            raise ServiceError(
                ERR_BAD_REQUEST, "daemon was started without a stream store"
            )

    def _cmd_query(self, request: _Request, frame: Frame):
        self._require_rows(request, "query")
        self._require_store()
        self._owner.submit(request, self._owner.query, frame.header)
        return DEFERRED

    # -- introspection and control --------------------------------------
    def _cmd_stats(self, request: _Request, frame: Frame):
        return (
            {
                "server": {
                    "captures": self._captures,
                    "active_clients": len(self._sessions),
                    "closing": self._closing,
                },
                "clients": [s.describe() for s in self._sessions.values()],
                "store": self._store_stats,
            },
            b"",
        )

    def _cmd_spans(self, request: _Request, frame: Frame):
        """Retained span records — all, one trace, or the slowest N traces."""
        header = frame.header
        _, records = SpanTreeReconstructor(self._obs.trace.events()).select(
            header.get("trace_id"), header.get("slowest"), header.get("limit")
        )
        return (
            {
                "spans": [record.as_fields() for record in records],
                "tracing": self._spans is not None,
            },
            b"",
        )

    def _cmd_telemetry(self, request: _Request, frame: Frame):
        """The telemetry ring's history and its counters' latest rates
        (optionally forcing a sample first)."""
        telemetry = self.telemetry
        if telemetry is None:
            return (
                {"telemetry": {"enabled": False, "cadence": None, "samples": []}},
                b"",
            )
        if frame.header.get("sample"):
            self._sample_telemetry(time.monotonic())
        payload = telemetry.as_dict()
        payload["enabled"] = True
        payload["rates"] = telemetry.rates()
        return ({"telemetry": payload}, b"")

    def _cmd_health(self, request: _Request, frame: Frame):
        """The health verdict, same shape ``/healthz`` serves."""
        return ({"health": self._health().as_dict()}, b"")

    def _require_control(self) -> None:
        if not self.config.allow_control:
            raise ServiceError(ERR_UNAUTHORIZED, "control commands are disabled")

    def _cmd_reload(self, request: _Request, frame: Frame):
        self._require_control()
        # Dispatch refuses `reload` unless the daemon is ready, so this
        # never completes before DEFERRED is returned.
        self._begin_reload(
            lambda report: self._resume(request, "ok", {"reloaded": True, **report})
        )
        return DEFERRED

    def _cmd_shutdown(self, request: _Request, frame: Frame):
        self._require_control()
        # Clients are drained only once the owner has stopped, so this
        # response is written long before its connection is closed.
        self._begin_shutdown(5.0)
        return ({"shutting_down": True}, b"")

    # ------------------------------------------------------------------
    # Lifecycle: reload and graceful shutdown
    # ------------------------------------------------------------------
    def _begin_reload(self, done: Callable[[Dict[str, int]], None]) -> None:
        if not self._ready():
            done({"sealed_segments": 0, "drained_clients": 0})
            return
        self._reload = reload = _Reload(done, time.monotonic() + RELOAD_DRAIN_SECONDS)
        self._owner.submit(reload, self._owner.flush)
        self._call_at(reload.deadline, self._reload_progress)

    def _reload_progress(self) -> None:
        """Finish the reload once the owner sealed the store and every
        client queue is empty (or the wait for them is over)."""
        reload = self._reload
        if reload is None or reload.sealed is None:
            return
        waiting = sum(
            1 for s in self._sessions.values() if s.queue_depth() or s.has_unsent
        )
        if waiting and time.monotonic() < reload.deadline:
            return
        self._reload = None
        reload.done(
            {
                "sealed_segments": reload.sealed,
                "drained_clients": len(self._sessions) - waiting,
            }
        )

    def _begin_shutdown(self, drain_timeout: float) -> None:
        """Refuse new work and stop the owner; the clients are drained
        when it reports back (:meth:`_on_owner_stopped`)."""
        if self._closing:
            return
        self._closing = True
        self._drain_timeout = drain_timeout
        for sock, label in self._listeners:
            self._selector.unregister(sock)
            sock.close()
            if label.startswith("unix:"):
                try:
                    os.unlink(label[len("unix:"):])
                except OSError:
                    pass
        self._listeners.clear()
        self._owner.stop()

    def _on_owner_stopped(self) -> None:
        """Every capture has finished and the store is sealed: give
        each client ``drain_timeout`` seconds for its last writes."""
        self._owner.thread.join()
        if self._reload is not None:
            self._reload.deadline = 0.0
            self._reload_progress()
        for session in list(self._sessions.values()):
            self._retire(session, self._drain_timeout)
        self._draining = True
        if not self._sessions:
            self._finish_shutdown()

    def _finish_shutdown(self) -> None:
        # HTTP is answered until here: /readyz says 503 while clients drain.
        if self._http_listener is not None:
            self._selector.unregister(self._http_listener)
            self._http_listener.close()
        for key in list(self._selector.get_map().values()):
            if type(key.data) is _HttpPeer:
                self._http_close(key.data)
        if self._obs.enabled:
            self._m_active.set(0)
        self._done = True
