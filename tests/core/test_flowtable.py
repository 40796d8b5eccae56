"""Tests for the stream table and access-list expiration."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flowtable import FlowTable
from repro.netstack import FiveTuple, IPProtocol
from repro.sanitizers import SanitizerContext


def _ft(index, port=80):
    return FiveTuple(100 + index, 1000 + index, 200, port, IPProtocol.TCP)


class TestLookup:
    def test_create_and_find(self):
        table = FlowTable()
        pair, created, evicted = table.lookup_or_create(_ft(1), now=1.0)
        assert created and not evicted
        same, created2, _ = table.lookup_or_create(_ft(1), now=2.0)
        assert same is pair and not created2
        assert len(table) == 1
        assert table.created_total == 1

    def test_both_directions_find_same_pair(self):
        table = FlowTable()
        pair, _, _ = table.lookup_or_create(_ft(1), now=0.0)
        reverse, created, _ = table.lookup_or_create(_ft(1).reversed(), now=1.0)
        assert reverse is pair and not created

    def test_direction_resolution(self):
        table = FlowTable()
        pair, _, _ = table.lookup_or_create(_ft(1), now=0.0)
        assert pair.direction_of(_ft(1)) == 0
        assert pair.direction_of(_ft(1).reversed()) == 1
        assert pair.descriptor(0) is pair.client
        assert pair.descriptor(1) is pair.server

    def test_descriptors_linked(self):
        table = FlowTable()
        pair, _, _ = table.lookup_or_create(_ft(2), now=0.0)
        assert pair.client.opposite is pair.server
        assert pair.server.opposite is pair.client
        assert pair.client.five_tuple == pair.server.five_tuple.reversed()

    def test_get_without_create(self):
        table = FlowTable()
        assert table.get(_ft(3)) is None
        table.lookup_or_create(_ft(3), now=0.0)
        assert table.get(_ft(3)) is not None
        assert table.get(_ft(3).reversed()) is not None


class TestEviction:
    def test_record_budget_evicts_oldest(self):
        table = FlowTable(max_streams=2)
        a, _, _ = table.lookup_or_create(_ft(1), now=1.0)
        b, _, _ = table.lookup_or_create(_ft(2), now=2.0)
        # Touch A so B becomes the oldest.
        table.lookup_or_create(_ft(1), now=3.0)
        _, created, evicted = table.lookup_or_create(_ft(3), now=4.0)
        assert created
        assert evicted == [b]
        assert table.evicted_total == 1
        assert table.get(_ft(1)) is a

    def test_unlimited_by_default(self):
        table = FlowTable()
        for i in range(500):
            table.lookup_or_create(_ft(i), now=float(i))
        assert len(table) == 500


class TestExpiration:
    def test_idle_streams_expire(self):
        table = FlowTable()
        table.lookup_or_create(_ft(1), now=0.0)
        table.lookup_or_create(_ft(2), now=5.0)
        expired = table.expire_idle(now=12.0, default_timeout=10.0)
        assert [pair.key for pair in expired] == [_ft(1).canonical()]
        assert len(table) == 1

    def test_access_refresh_prevents_expiry(self):
        table = FlowTable()
        pair, _, _ = table.lookup_or_create(_ft(1), now=0.0)
        table.touch(pair, now=9.0)
        assert table.expire_idle(now=12.0, default_timeout=10.0) == []

    def test_per_stream_timeout_override(self):
        table = FlowTable()
        pair, _, _ = table.lookup_or_create(_ft(1), now=0.0)
        pair.client.inactivity_timeout = 100.0
        table.lookup_or_create(_ft(2), now=0.0)
        expired = table.expire_idle(now=20.0, default_timeout=10.0)
        assert [p.key for p in expired] == [_ft(2).canonical()]
        assert table.get(_ft(1)) is not None

    def test_drain_returns_everything(self):
        table = FlowTable()
        for i in range(5):
            table.lookup_or_create(_ft(i), now=0.0)
        drained = table.drain()
        assert len(drained) == 5 and len(table) == 0

    def test_expiration_scan_stops_early(self):
        table = FlowTable()
        for i in range(100):
            table.lookup_or_create(_ft(i), now=float(i))
        # Only the first 10 are older than the cutoff.
        expired = table.expire_idle(now=20.0, default_timeout=10.0)
        assert len(expired) == 10


class TestStreamIdAllocation:
    def test_stream_ids_restart_per_table(self):
        """Stream ids are a per-table sequence, not a process-global one.

        Id-derived decisions (the recorder's stream-to-writer-queue
        mapping, worker affinity) must be identical when the same
        workload is captured twice in one process; a module-global
        counter broke exactly that (caught by the chaos soak's
        cross-run digest check).
        """
        def ids_for(table):
            out = []
            for i in range(4):
                pair, _, _ = table.lookup_or_create(_ft(i), now=0.0)
                out.append((pair.client.stream_id, pair.server.stream_id))
            return out

        first = ids_for(FlowTable())
        second = ids_for(FlowTable())
        assert first == second
        assert first[0][0] == 0

    def test_ids_unique_and_dense_within_table(self):
        table = FlowTable()
        ids = []
        for i in range(6):
            pair, _, _ = table.lookup_or_create(_ft(i), now=0.0)
            ids.extend([pair.client.stream_id, pair.server.stream_id])
        assert sorted(ids) == list(range(12))


# ----------------------------------------------------------------------
# The directional index: both directions of every live pair resolve to
# that pair's records, and no tuple of a departed pair resolves.
# ----------------------------------------------------------------------
_SLOTS = 6  # connections the operations draw from; few, so keys get reused

_SLOT = st.integers(0, _SLOTS - 1)
# Per-stream inactivity timeouts below and above the defaults ``expire``
# uses: the larger ones put default-expired pairs on the requeue branch.
_OVERRIDE = st.sampled_from([None, 2.0, 30.0, 500.0])
_OPEN = st.tuples(st.just("open"), _SLOT, st.booleans(), _OVERRIDE)
_OPERATIONS = st.one_of(
    _OPEN,
    _OPEN,  # twice: most other operations need something live
    st.tuples(st.just("touch"), _SLOT),
    st.tuples(st.just("remove"), _SLOT),
    st.tuples(st.just("override"), _SLOT, _OVERRIDE),
    st.tuples(st.just("expire"), st.sampled_from([0.5, 5.0, 15.0])),
    st.tuples(st.just("drain")),
)


def _assert_index_matches(table, live):
    assert {id(pair) for pair in table} == {id(pair) for pair in live.values()}
    for slot in range(_SLOTS):
        pair = live.get(slot)
        for five_tuple in (_ft(slot), _ft(slot).reversed()):
            record = table.lookup(five_tuple)
            if pair is None:
                assert record is None, "a departed pair's tuple still resolves"
                assert table.get(five_tuple) is None
                continue
            # ``open`` may have come from the reverse side: the creating
            # tuple is the client, whichever way the slot's tuple points.
            expected = pair.records[pair.direction_of(five_tuple)]
            assert record is expected
            assert record.pair is pair and table.get(five_tuple) is pair
            assert record.stream is pair.descriptor(record.direction)
            assert record.stream.five_tuple == five_tuple
            assert record.label == str(five_tuple)
        if pair is not None:
            assert pair.records[0].stream is pair.client
            assert pair.records[1].stream is pair.server


class TestDirectionalIndex:
    @settings(max_examples=200, deadline=None)
    @given(
        operations=st.lists(_OPERATIONS, min_size=4, max_size=40),
        max_streams=st.sampled_from([None, 1, 3]),
        gaps=st.lists(st.sampled_from([0.0, 1.0, 7.0, 20.0]), min_size=40, max_size=40),
    )
    def test_index_tracks_every_arrival_and_departure(
        self, operations, max_streams, gaps
    ):
        # Sanitized: a hit on an unindexed-but-listed (or the reverse)
        # record raises ``flow-cache-coherence`` by itself.
        table = FlowTable(max_streams=max_streams, sanitizers=SanitizerContext())
        live = {}  # slot -> pair, as told by the table's return values
        now = 0.0

        def depart(pairs):
            for slot in [s for s, pair in live.items() if any(pair is p for p in pairs)]:
                del live[slot]

        for operation, gap in zip(operations, gaps):
            now += gap
            kind = operation[0]
            if kind == "open":
                _, slot, from_server, override = operation
                five_tuple = _ft(slot).reversed() if from_server else _ft(slot)
                pair, created, evicted = table.lookup_or_create(five_tuple, now)
                assert created == (slot not in live)
                if created:
                    pair.server.inactivity_timeout = override
                depart(evicted)
                live[slot] = pair
            elif kind == "touch" and operation[1] in live:
                table.touch(live[operation[1]], now)
            elif kind == "remove" and operation[1] in live:
                table.remove(live.pop(operation[1]))
            elif kind == "override" and operation[1] in live:
                live[operation[1]].server.inactivity_timeout = operation[2]
            elif kind == "expire":
                expired = table.expire_idle(now, default_timeout=operation[1])
                for pair in expired:
                    override = pair.server.inactivity_timeout
                    assert now - pair.last_access > max(operation[1], override or 0.0)
                depart(expired)
            elif kind == "drain":
                drained = table.drain()
                assert len(drained) == len(live)
                live.clear()
            _assert_index_matches(table, live)

    def test_removing_a_stale_pair_leaves_its_successor_alone(self):
        table = FlowTable()
        old, _, _ = table.lookup_or_create(_ft(1), now=0.0)
        table.remove(old)
        new, created, _ = table.lookup_or_create(_ft(1), now=1.0)
        assert created and new is not old
        table.remove(old)  # e.g. a second termination of the dead pair
        assert table.get(_ft(1)) is new
        assert table.lookup(_ft(1).reversed()) is new.records[1]
