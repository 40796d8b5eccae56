"""Unit tests for the per-client session: queue, quotas, ledger."""

from __future__ import annotations

import pytest

from repro.service.protocol import MSG_EVENT, FrameReader
from repro.service.session import ClientQuotas, ClientSession, SessionLedger


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
        enq, dropped = session.enqueue_event(sub, {"event": "data", "i": i}, b"")
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
    reader = FrameReader()
    frames = reader.feed(bytes(session.sock.sent))
    assert [f.header["i"] for f in frames] == [7, 8, 9]
    assert all(f.msg_type == MSG_EVENT for f in frames)
    # Sequence numbers were assigned at enqueue time, in order.
    assert [f.header["seq"] for f in frames] == [7, 8, 9]


def test_dead_peer_counts_drops_and_balances():
    session = _session()
    sub = session.add_subscription(("data",))
    session.sock.fail = True
    for i in range(5):
        session.enqueue_event(sub, {"event": "data", "i": i}, b"")
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
    enq, dropped = session.enqueue_event(sub, {"event": "data"}, b"")
    assert (enq, dropped) == (0, 0)
    assert session.ledger.enqueued == 0


def test_subscription_quota_and_removal():
    session = _session(ClientQuotas(max_subscriptions=2))
    a = session.add_subscription(("created",))
    b = session.add_subscription(("data", "closed"))
    assert session.add_subscription(("data",)) is None
    assert a.wants("created") and not a.wants("data")
    assert b.wants("closed")
    assert session.remove_subscription(a.subscription_id)
    assert not session.remove_subscription(a.subscription_id)
    assert session.add_subscription(("data",)) is not None


def test_feed_quota():
    session = _session(ClientQuotas(max_feed_bytes=10))
    feed = session.open_feed()
    assert session.append_feed(feed, b"12345")
    assert not session.append_feed(feed, b"123456")  # would exceed 10
    assert session.append_feed(feed, b"67890")
    assert session.close_feed(feed) == b"1234567890"
    with pytest.raises(KeyError):
        session.append_feed(feed, b"x")


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
    session.enqueue_event(sub, {"event": "data"}, b"")
    session.enqueue_event(sub, {"event": "data"}, b"")
    assert dropped_counts == [1]
    assert session.drop_oldest(5) == 1
    assert dropped_counts == [1, 1]
