"""Unit tests for the per-client session: queue, quotas, ledger."""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

import pytest

from repro.netstack import FiveTuple
from repro.service.protocol import (
    EVENT_ROW,
    IOV_MAX,
    MSG_EVENT,
    MSG_RESPONSE,
    FrameReader,
    event_parts,
    frame_parts,
    split_events,
)
from repro.service.session import ClientQuotas, ClientSession, SessionLedger

FLOW = (0x0A000001, 1234, 0x0A000002, 80, 6)


def _event(offset=0, size=0):
    """One ``data`` event; ``offset`` tells events apart."""
    return ("data", 1, FLOW, 0, 1, offset, b"x" * size)


class FakeSocket:
    """A non-blocking socket that takes ``chunk`` bytes per send();
    can be told to start failing."""

    def __init__(self, chunk=1 << 20):
        self.sent = bytearray()
        self.fail = False
        self.chunk = chunk

    def send(self, data):
        if self.fail:
            raise OSError("peer gone")
        taken = bytes(data[: self.chunk])
        self.sent.extend(taken)
        return len(taken)

    def sendmsg(self, buffers):
        return self.send(b"".join(buffers))

    def close(self):
        pass


def _session(quotas=None):
    return ClientSession(1, FakeSocket(), quotas or ClientQuotas(), peer="test")


def test_quota_validation():
    with pytest.raises(ValueError):
        ClientQuotas(max_queued_events=0).validate()
    with pytest.raises(ValueError):
        ClientQuotas(eviction_drop_limit=0).validate()
    ClientQuotas().validate()


def test_ledger_balance_invariant():
    ledger = SessionLedger(enqueued=10, delivered=7, dropped=3)
    assert ledger.balanced()
    assert not SessionLedger(enqueued=10, delivered=7).balanced()
    assert SessionLedger(enqueued=10, delivered=7).balanced(pending=3)


def test_drop_oldest_when_queue_full():
    session = _session(ClientQuotas(max_queued_events=3))
    sub = session.add_subscription(("data",))
    dropped_total = 0
    for i in range(10):
        enq, dropped = session.enqueue_event(sub, _event(i))
        assert enq == 1
        dropped_total += dropped
    assert session.queue_depth() == 3
    assert dropped_total == 7
    assert session.ledger.enqueued == 10
    assert session.ledger.dropped == 7
    assert session.ledger.balanced(pending=session.queue_depth())
    # The survivors are the three *newest* events, in order.  The
    # socket takes 7 bytes a time, so every frame goes out over several
    # write-readiness steps.
    session.sock.chunk = 7
    session.begin_close()
    while not session.drain(timeout=5.0):
        pass
    assert session.ledger.balanced()
    frames = FrameReader().feed(bytes(session.sock.sent))
    assert len(frames) == 1 and frames[0].msg_type == MSG_EVENT
    events = split_events(frames[0])
    assert [e.header["offset"] for e in events] == [7, 8, 9]
    assert all(e.msg_type == MSG_EVENT for e in events)
    # Sequence numbers were assigned at enqueue time, in order.
    assert [e.header["seq"] for e in events] == [7, 8, 9]


def test_dead_peer_counts_drops_and_balances():
    session = _session()
    sub = session.add_subscription(("data",))
    session.sock.fail = True
    for i in range(5):
        session.enqueue_event(sub, _event(i))
    session.pump()  # the first write fails: everything queued is dropped
    assert session.ledger.enqueued == 5
    assert session.ledger.delivered == 0
    assert session.ledger.dropped == 5
    assert session.ledger.balanced()


def test_enqueue_refused_after_close():
    session = _session()
    sub = session.add_subscription(("data",))
    session.begin_close()
    session.drain(timeout=1.0)
    enq, dropped = session.enqueue_event(sub, _event())
    assert (enq, dropped) == (0, 0)
    assert session.ledger.enqueued == 0


def test_subscription_quota_and_removal():
    session = _session(ClientQuotas(max_subscriptions=2))
    a = session.add_subscription(("created",))
    b = session.add_subscription(("data", "closed"))
    assert session.add_subscription(("data",)) is None
    flow = FiveTuple(*FLOW)
    assert a.wants("created", flow) and not a.wants("data", flow)
    assert b.wants("closed", flow)
    assert session.remove_subscription(a.subscription_id)
    assert not session.remove_subscription(a.subscription_id)
    assert session.add_subscription(("data",)) is not None


def test_subscription_filter_is_compiled_when_built():
    session = _session()
    web = session.add_subscription(("data",), "tcp port 80")
    dns = session.add_subscription(("data",), "udp port 53")
    blank = session.add_subscription(("data",), "   ")
    flow = FiveTuple(*FLOW)
    assert web.wants("data", flow) and not web.wants("closed", flow)
    assert not dns.wants("data", flow)
    assert blank.wants("data", flow)
    with pytest.raises(ValueError):
        session.add_subscription(("data",), "port")


def test_mark_evicted_fires_once():
    session = _session()
    session.ledger.dropped = 5
    assert not session.mark_evicted(10)
    session.ledger.dropped = 10
    assert session.mark_evicted(10)
    assert not session.mark_evicted(10)  # already evicted
    assert session.evicted


def test_drop_callbacks_fire():
    dropped_counts = []
    session = _session(ClientQuotas(max_queued_events=1))
    session.on_dropped = dropped_counts.append
    sub = session.add_subscription(("data",))
    session.enqueue_event(sub, _event())
    session.enqueue_event(sub, _event())
    assert dropped_counts == [1]
    assert session.drop_oldest(5) == 1
    assert dropped_counts == [1, 1]


# ----------------------------------------------------------------------
# The multi-event frame: one ledger, whatever the socket takes per call
# ----------------------------------------------------------------------
class CountingSocket(FakeSocket):
    """Also remembers what every send() was offered and took."""

    def __init__(self, chunk):
        super().__init__(chunk)
        self.offered = []
        self.block = False

    def send(self, data):
        if self.block:
            raise BlockingIOError
        self.offered.append(len(data))
        return super().send(data)


#: Events of growing payload size, so every frame has its own length.
EVENTS = [_event(i, 3 * i) for i in range(5)]
#: A frame bound under which the five events make frames of 2, 2 and 1
#: (each event counts its payload and its row).
SMALL_GATHER = 2 * EVENT_ROW.size + 3
RUNS = [(0, 2), (2, 4), (4, 5)]


def _queued_session(sock=None, quotas=None):
    """A session with :data:`EVENTS` queued on one subscription."""
    session = ClientSession(1, sock or CountingSocket(1 << 20), quotas or ClientQuotas())
    sub = session.add_subscription(("data",))
    for event in EVENTS:
        session.enqueue_event(sub, event)
    return session


def _frames(runs):
    """The frames ``pump`` writes for :data:`EVENTS` cut into ``runs``."""
    return [b"".join(event_parts(1, start, EVENTS[start:end])) for start, end in runs]


def _queued(session):
    return session.describe()["queued"]


def test_gathered_write_ledger_for_every_socket_appetite():
    (wire,) = _frames([(0, 5)])
    for k in range(1, len(wire) + 1):
        session = _queued_session(sock=CountingSocket(k))
        delivered_calls = []
        session.on_delivered = delivered_calls.append
        calls = 0
        while session.queue_depth() or session.has_unsent:
            session.pump()
            calls += 1
            assert calls <= len(wire) + 1, k
            sent = len(session.sock.sent)
            # delivered moves exactly when the frame's last byte has left;
            # until then the tail's events count as queued ...
            assert session.ledger.delivered == (5 if sent == len(wire) else 0), (k, sent)
            assert _queued(session) == (0 if sent == len(wire) else 5), (k, sent)
            # ... and the ledger balances after every call.
            assert session.ledger.enqueued == 5
            assert session.ledger.balanced(pending=_queued(session)), (k, sent)
            assert session.ledger.bytes_sent == sent
        assert bytes(session.sock.sent) == wire, k  # one frame, whole
        assert session.ledger.delivered == 5 and session.ledger.dropped == 0
        assert delivered_calls == [5]
    # A socket that takes everything is offered the one frame in one write.
    assert session.sock.offered == [len(wire)]


def test_drop_oldest_never_takes_a_frame_that_has_begun_to_leave(monkeypatch):
    monkeypatch.setattr("repro.service.session.GATHER_BYTES", SMALL_GATHER)
    frames = _frames(RUNS)
    assert len(frames[0]) < len(frames[1])
    for k in (1, 7, len(frames[0]) - 1, len(frames[0]), len(frames[1]) - 1):
        session = _queued_session(sock=CountingSocket(k))
        session.pump()  # whole frames gone, then one cut, the rest queued
        whole = 1 if k >= len(frames[0]) else 0
        dropped = session.drop_oldest(10)
        # Everything behind the frame the write stopped in goes; none of
        # that frame's events do.
        kept = RUNS[whole][1]
        assert dropped == 5 - kept, k
        session.sock.chunk = 1 << 20
        session.pump()
        assert bytes(session.sock.sent) == b"".join(frames[: whole + 1]), k
        assert session.ledger.delivered == kept
        assert session.ledger.dropped == dropped
        assert session.ledger.balanced()


def test_a_refused_write_pins_only_the_frame_it_was_about_to_send(monkeypatch):
    """EAGAIN with nothing taken: the head frame becomes the tail the
    loop waits on write-readiness for; everything behind it can go."""
    monkeypatch.setattr("repro.service.session.GATHER_BYTES", SMALL_GATHER)
    sock = CountingSocket(1 << 20)
    sock.block = True
    session = _queued_session(sock=sock)
    session.pump()
    assert session.has_unsent and session.queue_depth() == 3
    assert _queued(session) == 5 and session.ledger.balanced(pending=5)
    assert session.drop_oldest(10) == 3
    sock.block = False
    session.pump()
    assert bytes(sock.sent) == _frames(RUNS)[0]
    assert (session.ledger.delivered, session.ledger.dropped) == (2, 3)
    assert session.ledger.balanced()


def test_abandon_mid_gather_counts_the_half_written_frame_once(monkeypatch):
    monkeypatch.setattr("repro.service.session.GATHER_BYTES", SMALL_GATHER)
    frames = _frames(RUNS)
    assert len(frames[1]) > len(frames[0]) + 4
    session = _queued_session(sock=CountingSocket(len(frames[0]) + 4))
    dropped_calls = []
    session.on_dropped = dropped_calls.append
    session.pump()  # frame 0 gone, frame 1 cut
    assert session.ledger.delivered == 2 and session.has_unsent
    assert _queued(session) == 3
    session.sock.fail = True
    session.pump()
    assert session.ledger.delivered == 2
    assert session.ledger.dropped == 3  # the cut frame's two, and the one behind
    assert dropped_calls == [3]
    assert session.ledger.balanced() and _queued(session) == 0
    assert session.drain(0.0)


def test_peer_lost_on_a_gathered_write_drops_the_whole_batch_once():
    session = _queued_session()
    session.sock.fail = True
    session.pump()
    assert (session.ledger.delivered, session.ledger.dropped) == (0, 5)
    assert session.ledger.balanced()


def test_gathered_writes_are_bounded(monkeypatch):
    sock = CountingSocket(1 << 20)
    _queued_session(sock=sock).pump()
    assert sock.offered == [len(_frames([(0, 5)])[0])]  # under the bound: one frame
    monkeypatch.setattr("repro.service.session.GATHER_BYTES", SMALL_GATHER)
    sock = CountingSocket(1 << 20)
    _queued_session(sock=sock).pump()
    # A frame stops growing once it has reached the byte bound.
    frames = _frames(RUNS)
    assert sock.offered == [len(frame) for frame in frames]
    assert bytes(sock.sent) == b"".join(frames)


def test_a_frame_carries_one_subscription_and_seq_runs_on():
    session = ClientSession(1, CountingSocket(1 << 20), ClientQuotas())
    a = session.add_subscription(("data",))
    b = session.add_subscription(("data",))
    for sub in (a, a, b, a):
        session.enqueue_event(sub, _event())
    session.pump()
    frames = FrameReader().feed(bytes(session.sock.sent))
    assert [(f.header["sub"], f.header["seq"], f.header["events"]) for f in frames] == [
        (a.subscription_id, 0, 2), (b.subscription_id, 0, 1), (a.subscription_id, 2, 1),
    ]
    assert session.ledger.delivered == 4 and session.ledger.balanced()


def test_an_event_for_a_closing_session_is_not_encoded(monkeypatch):
    session = _session()
    sub = session.add_subscription(("data",))
    session.begin_close()

    def no_encoding(*_args, **_kwargs):
        raise AssertionError("encoded an event nobody will get")

    monkeypatch.setattr("repro.service.session.event_parts", no_encoding)
    assert session.enqueue_event(sub, _event(size=7)) == (0, 0)
    assert sub.next_seq == 0


def test_an_event_frame_counts_as_delivered_at_its_last_byte_with_a_response_behind():
    sock = CountingSocket(10)
    session = ClientSession(1, sock, ClientQuotas())
    sub = session.add_subscription(("data",))
    for event in EVENTS[:3]:
        session.enqueue_event(sub, event)
    session.pump()  # 10 bytes of the event frame leave
    (wire,) = _frames([(0, 3)])
    response = frame_parts(MSG_RESPONSE, 1, {"ok": True}, b"r" * 1000)
    reply = b"".join(response)
    assert session.send_bytes(response)
    assert session.response_unsent and _queued(session) == 3
    sock.chunk = len(wire) - 10 + 100  # the event frame's tail, then part of the reply
    session.pump()
    assert session.ledger.delivered == 3 and _queued(session) == 0
    assert session.ledger.balanced()
    assert session.has_unsent and session.response_unsent
    sock.chunk = 1 << 20
    session.pump()
    assert not session.has_unsent and not session.response_unsent
    assert bytes(sock.sent) == wire + reply


class GatherSocket(CountingSocket):
    """Also remembers how many buffers every sendmsg() was offered, and
    joins only as many of them as it takes."""

    def __init__(self, chunk):
        super().__init__(chunk)
        self.buffers = []

    def sendmsg(self, buffers):
        buffers = list(buffers)
        self.buffers.append(len(buffers))
        ends = list(accumulate(map(len, buffers)))
        return self.send(b"".join(buffers[: bisect_left(ends, self.chunk) + 1]))


def test_a_reply_of_more_than_iov_max_parts_leaves_whole_for_every_socket_appetite():
    payload = [bytes([i % 256]) * (1000 + i % 7 * 500) for i in range(IOV_MAX + 76)]
    response = frame_parts(MSG_RESPONSE, 5, {"streams": len(payload)}, payload)
    assert len(response) > IOV_MAX
    reply = b"".join(response)
    (events,) = _frames([(0, 5)])
    for k in (1000, 4096, 1 << 16, len(reply) // 3, len(reply) + len(events)):
        sock = GatherSocket(k)
        session = _queued_session(sock=sock)
        sock.block = True
        session.pump()  # the events' frame is cut before its first byte
        sock.block = False
        session.send_bytes(response)
        calls = 0
        while session.has_unsent or session.queue_depth():
            session.pump()
            calls += 1
            assert session.ledger.balanced(pending=_queued(session)), (k, calls)
            assert session.ledger.bytes_sent == len(sock.sent)
        assert bytes(sock.sent) == events + reply, k
        assert session.ledger.delivered == 5
        assert max(sock.buffers) <= IOV_MAX
