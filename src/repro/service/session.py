"""Per-client session state: auth, quotas, subscriptions, event queue.

Each accepted connection gets one :class:`ClientSession`, and only the
daemon's loop thread ever touches it, so nothing here takes a lock.
Inbound bytes go into the session's
:class:`~repro.service.protocol.FrameReader`; outbound frames leave as
their parts (:func:`~repro.service.protocol.frame_parts`) through
non-blocking gathered writes that keep what the socket did not take in
an ordered tail of buffers, across frame boundaries, that the loop
finishes on write-readiness.  Responses (:meth:`ClientSession.send_bytes`)
join that tail; subscribed events wait behind it in a **bounded** queue
that :meth:`ClientSession.pump` empties one multi-event frame at a time,
so a slow client backpressures only itself.

Quota semantics (:class:`ClientQuotas`):

* ``max_subscriptions`` bounds live subscriptions per client;
* ``max_queued_events`` bounds the per-client event queue — when it is
  full the *oldest* queued event is dropped to admit the newest,
  mirroring the PPL discipline of sacrificing the oldest, least
  valuable unit first;
* ``eviction_drop_limit`` (optional) disconnects a client whose drop
  count proves it cannot keep up — the service-plane analogue of PPL
  evicting the lowest-priority stream under memory pressure.

A submitted pcap is one frame's payload, so its size is bounded by the
daemon's ``max_frame_bytes`` (named in its ``hello`` reply, so a client
sends frames up to it), not by a quota here.

Every enqueue/delivery/drop is ledgered: ``enqueued == delivered +
dropped + queued`` whenever the loop looks, and nothing is queued once
a session is closed — the balanced-ledger invariant the integration
tests and the CI soak check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from ..filters.bpf import BPFFilter
from ..netstack.flows import FiveTuple
from .protocol import (
    EVENT_ROW,
    Frame,
    FrameReader,
    FrameRejection,
    event_parts,
    frame_size,
    write_parts,
)

__all__ = ["ClientQuotas", "Subscription", "SessionLedger", "ClientSession"]

#: About how many bytes of queued events one frame (and so one write)
#: carries: payloads, and an ``EVENT_ROW`` for each event.
GATHER_BYTES = 1 << 16
_ROW_BYTES = EVENT_ROW.size


@dataclass(frozen=True)
class ClientQuotas:
    """Per-client resource bounds enforced by the daemon."""

    #: Live subscriptions one client may hold.
    max_subscriptions: int = 8
    #: Events queued (not yet written) per client before drop-oldest.
    max_queued_events: int = 1024
    #: Disconnect the client once this many of its events were dropped
    #: (None = never evict, only drop).
    eviction_drop_limit: Optional[int] = None

    def validate(self) -> None:
        """Raise ValueError on nonsensical bounds."""
        if self.max_subscriptions < 0:
            raise ValueError("max_subscriptions must be non-negative")
        if self.max_queued_events < 1:
            raise ValueError("max_queued_events must be positive")
        if self.eviction_drop_limit is not None and self.eviction_drop_limit < 1:
            raise ValueError("eviction_drop_limit must be positive")


@dataclass
class Subscription:  # scapcheck: single-owner
    """One client's standing request for stream events."""

    subscription_id: int
    kinds: Tuple[str, ...]
    expression: str = ""
    #: Monotone per-subscription sequence number (next to assign).
    next_seq: int = 0
    #: ``expression`` compiled when the subscription is built.
    bpf: BPFFilter = field(init=False)

    def __post_init__(self) -> None:
        self.bpf = BPFFilter(self.expression)

    def wants(self, kind: str, five_tuple: FiveTuple) -> bool:
        """True when this subscription selects ``kind`` events of the
        flow ``five_tuple``; the filter test is a library application's
        (:meth:`~repro.core.workers.SharedApplication.wants`)."""
        return kind in self.kinds and self.bpf.matches_five_tuple(five_tuple)


@dataclass
class SessionLedger:  # scapcheck: single-owner
    """The per-client event accounting the daemon must keep balanced."""

    enqueued: int = 0
    delivered: int = 0
    dropped: int = 0
    requests: int = 0
    errors: int = 0
    frames_rejected: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def balanced(self, pending: int = 0) -> bool:
        """True when enqueued == delivered + dropped + pending."""
        return self.enqueued == self.delivered + self.dropped + pending

    def as_dict(self) -> Dict[str, int]:
        """The ledger as a JSON-ready mapping."""
        return asdict(self)


class ClientSession:  # scapcheck: single-owner
    """One connected client: identity, quotas, queue, and ledger.

    Loop-thread state.  ``sock`` must be non-blocking; every write goes
    through :meth:`send_bytes` or :meth:`pump`, so frames reach the wire
    whole and in the order they were handed over.  ``sock`` needs
    ``send`` and ``sendmsg``.
    """

    def __init__(
        self,
        client_id: int,
        sock,
        quotas: ClientQuotas,
        peer: str = "",
        on_send: Optional[Callable[[int], None]] = None,
    ):
        self.client_id = client_id
        self.sock = sock
        self.quotas = quotas
        self.peer = peer
        self.name = f"client-{client_id}"
        self.authenticated = False
        #: The protocol minor the client declared in ``hello`` (0: none).
        self.protocol_minor = 0
        self.ledger = SessionLedger()
        #: Inbound: the scanner, and what it completed that the loop has
        #: not dispatched yet (requests behind a deferred one).
        self.reader = FrameReader()
        self.backlog: Deque[Union[Frame, FrameRejection]] = deque()
        #: Malformed frames since the last well-formed one.
        self.consecutive_rejections = 0
        #: The request whose response is still to come (from the owner
        #: thread, or a reload); nothing more is read until it is answered.
        self.inflight: Optional[object] = None
        #: Events waiting for the socket (bounded, drop-oldest), each
        #: ``(subscription_id, seq, event)`` with ``event`` the daemon's
        #: ``(kind, capture, flow, direction, stream_id, offset, payload)``.
        self._queue: Deque[Tuple[int, int, tuple]] = deque()
        #: The buffers of the frames handed over that the socket has not
        #: taken yet, a partly taken one as a view of its rest (no
        #: copies); the bytes handed over in all; for each event frame in
        #: that tail, where its last byte is in the byte stream (as
        #: ``ledger.bytes_sent`` counts it) and its events; and where the
        #: last response handed over ends.
        self._unsent: List = []
        self._handed = 0
        self._frame_ends: Deque[Tuple[int, int]] = deque()
        self._response_end = 0
        self._closing = False
        self._closed = False
        self._dead = False
        self.evicted = False
        self.subscriptions: Dict[int, Subscription] = {}
        self._next_subscription_id = 1
        self._on_send = on_send
        #: Called (count) after events are delivered / dropped — the
        #: daemon points these at its metrics.
        self.on_delivered: Optional[Callable[[int], None]] = None
        self.on_dropped: Optional[Callable[[int], None]] = None
        #: Loop bookkeeping: the registered selector mask (0 = none)
        #: and, once closing, the ``time.monotonic()`` at which
        #: patience runs out.
        self.mask = 0
        self.deadline: Optional[float] = None

    # ------------------------------------------------------------------
    # Outbound half
    # ------------------------------------------------------------------
    def send_bytes(self, frame: List) -> bool:
        """Hand one whole frame, the list of buffers it is the join of
        (:func:`~repro.service.protocol.frame_parts`), to the socket
        (False on a dead peer).

        Never blocks: what is not taken now joins the unsent tail.
        """
        if self._dead:
            return False
        if self._unsent or len(frame) > 1:
            idle = not self._unsent
            self._hand(frame, 0)
            self._response_end = self._handed
            if idle:
                self._flush()
            return not self._dead
        # One buffer with nothing ahead of it (a ping's reply): one plain
        # ``send``, none of the tail's bookkeeping.
        head = frame[0]
        self._handed += len(head)
        self._response_end = self._handed
        try:
            sent = self.sock.send(head)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._abandon()
            return False
        self.ledger.bytes_sent += sent
        if self._on_send is not None:
            self._on_send(sent)
        if sent < len(head):
            self._unsent.append(memoryview(head)[sent:])
        return True

    def _hand(self, frame: List, events: int) -> None:
        """Put ``frame``'s buffers at the end of the tail, and mark where
        it ends in the byte stream."""
        self._unsent.extend(frame)
        self._handed += frame_size(frame)
        if events:
            self._frame_ends.append((self._handed, events))

    def _flush(self) -> bool:
        """Write the tail while the socket takes all it is offered; True
        once the tail is empty.  An event frame's events count as
        delivered when its last byte is taken."""
        unsent = self._unsent
        ledger = self.ledger
        ends = self._frame_ends
        while unsent:
            try:
                sent, whole = write_parts(self.sock, unsent)
            except BlockingIOError:
                return False
            except OSError:
                self._abandon()
                return False
            ledger.bytes_sent += sent
            if self._on_send is not None:
                self._on_send(sent)
            while ends and ends[0][0] <= ledger.bytes_sent:
                self._count_delivered(ends.popleft()[1])
            if not whole:
                return False
        return True

    def _abandon(self) -> None:
        """Nothing more can be written: what is queued is dropped."""
        self._dead = True
        self._closing = True
        abandoned = self._queued()
        self._queue.clear()
        self._unsent.clear()
        self._frame_ends.clear()
        self._handed = self._response_end = self.ledger.bytes_sent
        self._count_dropped(abandoned)

    def _count_dropped(self, count: int) -> None:
        if count:
            self.ledger.dropped += count
            if self.on_dropped is not None:
                self.on_dropped(count)

    def _count_delivered(self, count: int) -> None:
        if count:
            self.ledger.delivered += count
            if self.on_delivered is not None:
                self.on_delivered(count)

    @property
    def has_unsent(self) -> bool:
        """True while the socket has not taken all that was handed over."""
        return bool(self._unsent)

    @property
    def response_unsent(self) -> bool:
        """True while the tail holds response bytes (a client not taking
        its answers is not read from)."""
        return self._response_end > self.ledger.bytes_sent

    def pump(self) -> None:
        """Write what the socket takes now: the unsent tail, then events.

        Events leave the queue oldest first, and only while no tail is
        pending: each write is one frame carrying the run of one
        subscription's events at the head of the queue, up to about
        ``GATHER_BYTES``.  A frame's events count as delivered when its
        last byte is taken, whatever is queued behind it; a frame a short
        write stops in becomes the tail (its events still queued), and
        what is queued behind it can still be dropped.
        """
        if not self._flush():
            return
        queue = self._queue
        while queue:
            subscription_id, first_seq, _ = queue[0]
            run = []
            size = 0
            for entry_subscription, _, event in queue:
                if entry_subscription != subscription_id:
                    break
                run.append(event)
                size += len(event[6]) + _ROW_BYTES
                if size >= GATHER_BYTES:
                    break
            frame = event_parts(subscription_id, first_seq, run)
            for _ in run:
                queue.popleft()
            self._hand(frame, len(run))
            if not self._flush():
                return

    # ------------------------------------------------------------------
    # Event queue (bounded, drop-oldest)
    # ------------------------------------------------------------------
    def mark_evicted(self, drop_limit: int) -> bool:
        """Flip the evicted flag once drops cross ``drop_limit``.

        Returns True exactly once — on the call that performs the
        transition — so the daemon counts each eviction a single time.
        """
        if self.evicted or self.ledger.dropped < drop_limit:
            return False
        self.evicted = True
        return True

    def enqueue_event(self, subscription: Subscription, event: tuple) -> Tuple[int, int]:
        """Queue one event, ``(kind, capture, flow, direction, stream_id,
        offset, payload)``; returns (enqueued, dropped) deltas.

        A full queue drops the *oldest* queued event (never the new
        one), so the client observes the freshest window of the stream
        — the PPL lowest-priority-oldest discipline applied to the
        client plane.
        """
        if self._closing:
            return (0, 0)
        seq = subscription.next_seq
        subscription.next_seq = seq + 1
        dropped = 0
        if len(self._queue) >= self.quotas.max_queued_events:
            self._queue.popleft()
            dropped = 1
        self._queue.append((subscription.subscription_id, seq, event))
        self.ledger.enqueued += 1
        self._count_dropped(dropped)
        return (1, dropped)

    def drop_oldest(self, count: int = 1) -> int:
        """Evict up to ``count`` oldest queued events (global pressure)."""
        evicted = min(count, len(self._queue))
        for _ in range(evicted):
            self._queue.popleft()
        self._count_dropped(evicted)
        return evicted

    def queue_depth(self) -> int:
        """Events currently queued and not yet written."""
        return len(self._queue)

    def _queued(self) -> int:
        """Events not yet delivered: queued, or in a frame not wholly taken."""
        return len(self._queue) + sum(events for _, events in self._frame_ends)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def add_subscription(
        self, kinds: Tuple[str, ...], expression: str = ""
    ) -> Optional[Subscription]:
        """Register a subscription (None when over quota)."""
        if len(self.subscriptions) >= self.quotas.max_subscriptions:
            return None
        subscription = Subscription(
            subscription_id=self._next_subscription_id,
            kinds=kinds,
            expression=expression,
        )
        self._next_subscription_id += 1
        self.subscriptions[subscription.subscription_id] = subscription
        return subscription

    def remove_subscription(self, subscription_id: int) -> bool:
        """Drop a subscription; False when the id is unknown."""
        return self.subscriptions.pop(subscription_id, None) is not None

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def begin_close(self) -> None:
        """Stop accepting events; what is queued may still be written."""
        self._closing = True

    def drain(self, timeout: float = 0.0) -> bool:
        """One step of closing the outbound half; True once it is closed.

        Writes what the socket takes now.  ``timeout`` is the patience
        left (the loop passes the time to the session's deadline): with
        none, what is still queued is accounted as dropped.
        """
        self.pump()
        if timeout <= 0.0 and (self._queue or self._unsent):
            self._abandon()
        if not self._queue and not self._unsent:
            self._closed = True
        return self._closed

    @property
    def closed(self) -> bool:
        """True once the outbound queue is fully drained or abandoned."""
        return self._closed

    def describe(self) -> Dict[str, object]:
        """JSON-ready session summary for the ``stats`` command."""
        return {
            "client_id": self.client_id,
            "name": self.name,
            "peer": self.peer,
            "authenticated": self.authenticated,
            "subscriptions": len(self.subscriptions),
            "queued": self._queued(),
            "evicted": self.evicted,
            "ledger": self.ledger.as_dict(),
        }
