"""Tests for the two virtual-time primitives: the FIFO queue server and
the stream-memory ledger, each also checked against a brute-force
oracle kept in the test."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory import StreamMemory
from repro.kernelsim import QueueServer


class TestQueueServer:
    def test_basic_fifo_timing(self):
        server = QueueServer(10)
        finish_a = server.push(0.0, 1, 2.0)
        finish_b = server.push(1.0, 1, 2.0)
        assert finish_a == 2.0
        assert finish_b == 4.0  # waits for A to finish

    def test_idle_gap_resets_start(self):
        server = QueueServer(10)
        server.push(0.0, 1, 1.0)
        finish = server.push(5.0, 1, 1.0)
        assert finish == 6.0

    def test_occupancy_and_capacity(self):
        server = QueueServer(3)
        server.push(0.0, 2, 10.0)
        assert server.occupancy(0.0) == 2
        assert server.would_accept(0.0, 1)
        assert not server.would_accept(0.0, 2)
        server.push(0.0, 1, 10.0)
        assert not server.would_accept(0.0, 1)
        # After everything finishes, capacity frees up.
        assert server.would_accept(100.0, 3)
        assert server.occupancy(100.0) == 0

    def test_utilization(self):
        server = QueueServer(10)
        server.push(0.0, 1, 3.0)
        assert server.utilization(10.0) == pytest.approx(0.3)
        assert server.utilization(1.0) == 1.0  # capped

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            QueueServer(0)

    @settings(max_examples=50, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(st.floats(0, 10), st.floats(0.001, 1.0)), min_size=1, max_size=50
        )
    )
    def test_conservation_property(self, jobs):
        """Busy time equals the sum of accepted service times, and the
        last finish is at least arrival + service for every job."""
        server = QueueServer(1e9)
        jobs = sorted(jobs)
        total = 0.0
        for arrival, service in jobs:
            finish = server.push(arrival, 1, service)
            total += service
            assert finish >= arrival + service - 1e-12
        assert server.busy_seconds == pytest.approx(total)


    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, 3),  # time step (ties included)
                st.booleans(),  # ask would_accept before pushing
                st.integers(1, 5),  # units
                st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]),  # service seconds
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_brute_force_oracle(self, ops):
        """Whether or not each push follows a would_accept, every read
        equals the sum of units of the jobs still unfinished at ``t``."""
        capacity = 12
        server = QueueServer(capacity)
        jobs = []  # (finish_time, units) of every job ever pushed
        busy_until = 0.0
        now = 0.0

        def unfinished(t):
            return sum(units for finish, units in jobs if finish > t)

        for step, checked, units, service in ops:
            now += step
            if checked:
                fits = unfinished(now) + units <= capacity
                assert server.would_accept(now, units) == fits
                if not fits:
                    continue
            finish = server.push(now, units, service)
            busy_until = max(now, busy_until) + service
            assert finish == busy_until
            jobs.append((finish, units))
            assert server.occupancy(now) == unfinished(now)
            assert server.would_accept(now, units) == (
                unfinished(now) + units <= capacity
            )


class TestMemoryPool:
    """The stream-memory pool: :class:`StreamMemory`'s byte ledger."""

    def test_allocate_and_release(self):
        pool = StreamMemory(100)
        assert pool.try_store(0.0, 60)
        assert not pool.try_store(0.0, 50)
        pool.schedule_release(5.0, 60)
        assert pool.fraction_used(1.0) == pytest.approx(0.6)
        assert pool.try_store(6.0, 50)  # released at t=5
        assert pool.peak_used == 60

    def test_release_now(self):
        pool = StreamMemory(100)
        pool.try_store(0.0, 80)
        pool.release_now(1.0, 30)
        assert pool.used == pytest.approx(50)

    def test_release_never_goes_negative(self):
        pool = StreamMemory(100)
        pool.try_store(0.0, 10)
        pool.release_now(0.0, 50)
        assert pool.used == 0.0

    def test_zero_release_ignored(self):
        pool = StreamMemory(100)
        pool.schedule_release(1.0, 0)
        pool.advance(2.0)
        assert pool.used == 0.0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            StreamMemory(0)

    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.floats(0, 100), st.integers(1, 40)), min_size=1, max_size=60
        )
    )
    def test_occupancy_never_exceeds_capacity(self, ops):
        pool = StreamMemory(100)
        for time_point, nbytes in sorted(ops):
            if pool.try_store(time_point, nbytes):
                pool.schedule_release(time_point + 1.0, nbytes)
            assert 0 <= pool.used <= 100

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["store", "schedule", "release_now", "fraction"]),
                st.integers(0, 3),  # time step (ties included)
                st.integers(0, 60),  # bytes
                st.integers(0, 5),  # release delay for "schedule"
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_matches_brute_force_ledger(self, ops):
        """After every operation at nondecreasing times, ``used``,
        ``peak_used`` and each ``try_store`` verdict equal a ledger
        recomputed from scratch: bytes charged (net of immediate,
        clamped releases) minus every scheduled release already due."""
        capacity = 100
        pool = StreamMemory(capacity)
        ledger = []  # (release_time, bytes) of every scheduled release
        charged = 0  # stores minus immediate releases
        peak = 0
        now = 0.0

        def used_at(t):
            return charged - sum(nbytes for due, nbytes in ledger if due <= t)

        for kind, step, nbytes, delay in ops:
            now += step
            if kind == "store":
                fits = used_at(now) + nbytes <= capacity
                assert pool.try_store(now, nbytes) == fits
                if fits:
                    charged += nbytes
                    peak = max(peak, used_at(now))
            elif kind == "schedule":
                pool.schedule_release(now + delay, nbytes)
                ledger.append((now + delay, nbytes))
            elif kind == "release_now":
                before = used_at(now)
                pool.release_now(now, nbytes)
                charged += max(0, before - nbytes) - before
            else:
                assert pool.fraction_used(now) == used_at(now) / capacity
            pool.advance(now)
            assert pool.used == used_at(now)
            assert pool.peak_used == peak
