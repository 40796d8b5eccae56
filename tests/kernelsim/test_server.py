"""Tests for the virtual-time queueing primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernelsim import MemoryPool, QueueServer


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

    def test_backlog(self):
        server = QueueServer(100)
        server.push(0.0, 1, 5.0)
        assert server.backlog_seconds(1.0) == pytest.approx(4.0)
        assert server.backlog_seconds(10.0) == 0.0

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


class TestMemoryPool:
    def test_allocate_and_release(self):
        pool = MemoryPool(100)
        assert pool.try_allocate(0.0, 60)
        assert not pool.try_allocate(0.0, 50)
        pool.schedule_release(5.0, 60)
        assert pool.fraction_used(1.0) == pytest.approx(0.6)
        assert pool.try_allocate(6.0, 50)  # released at t=5
        assert pool.peak_used == 60

    def test_release_now(self):
        pool = MemoryPool(100)
        pool.try_allocate(0.0, 80)
        pool.release_now(1.0, 30)
        assert pool.used == pytest.approx(50)

    def test_release_never_goes_negative(self):
        pool = MemoryPool(100)
        pool.try_allocate(0.0, 10)
        pool.release_now(0.0, 50)
        assert pool.used == 0.0

    def test_zero_release_ignored(self):
        pool = MemoryPool(100)
        pool.schedule_release(1.0, 0)
        pool.advance(2.0)
        assert pool.used == 0.0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            MemoryPool(0)

    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.floats(0, 100), st.integers(1, 40)), min_size=1, max_size=60
        )
    )
    def test_occupancy_never_exceeds_capacity(self, ops):
        pool = MemoryPool(100)
        for time_point, nbytes in sorted(ops):
            if pool.try_allocate(time_point, nbytes):
                pool.schedule_release(time_point + 1.0, nbytes)
            assert 0 <= pool.used <= 100
