"""Unit tests for the worker pool, runtime, and load balancer."""

import pytest

from repro.core import (
    Callbacks,
    Event,
    EventType,
    LoadBalancer,
    ScapConfig,
    ScapRuntime,
    StreamDescriptor,
    StreamMemory,
    WorkerPool,
)
from repro.core.memory import Chunk
from repro.kernelsim import DEFAULT_COST_MODEL, LocalityProfile
from repro.netstack import FiveTuple, IPProtocol
from repro.traffic import campus_mix


def _pool(worker_count=2, callbacks=None, capacity=16):
    return WorkerPool(
        worker_count=worker_count,
        cost_model=DEFAULT_COST_MODEL,
        locality=LocalityProfile(),
        event_queue_capacity=capacity,
        memory=StreamMemory(1 << 20),
        callbacks=callbacks or Callbacks(),
    )


def _stream(stream_id_hint=0):
    ft = FiveTuple(1, 1000 + stream_id_hint, 2, 80, IPProtocol.TCP)
    client = StreamDescriptor(ft, 0, IPProtocol.TCP)
    server = StreamDescriptor(ft.reversed(), 1, IPProtocol.TCP)
    client.opposite = server
    server.opposite = client
    return client


def _data_event(stream, payload=b"0123456789", at=0.0):
    chunk = Chunk(stream_offset=0)
    chunk.append(payload)
    chunk.accounted_bytes = len(payload)
    return Event(EventType.STREAM_DATA, stream, at, chunk=chunk)


class TestWorkerPool:
    def test_data_callback_sees_chunk(self):
        captured = {}

        def on_data(sd):
            captured["data"] = bytes(sd.data)
            captured["len"] = sd.data_len
            captured["offset"] = sd.data_offset

        pool = _pool(callbacks=Callbacks(on_data=on_data))
        stream = _stream()
        pool.dispatch(0, _data_event(stream), ready_time=0.0)
        assert captured == {"data": b"0123456789", "len": 10, "offset": 0}
        # The descriptor is scrubbed after the callback.
        assert stream.data == b"" and stream.data_len == 0
        assert pool.bytes_delivered == 10
        assert stream.processing_time > 0

    def test_cost_hook_charged(self):
        hooks = Callbacks(data_cost=lambda event: 1e9)
        pool = _pool(callbacks=hooks)
        pool.dispatch(0, _data_event(_stream()), ready_time=0.0)
        assert pool.busy_seconds() >= 0.5  # 1e9 cycles at 2 GHz

    def test_queue_overflow_drops_event_and_frees_memory(self):
        pool = _pool(worker_count=1, capacity=1)
        stream = _stream()
        # Occupy the single slot with a long service.
        hooks = pool.callbacks
        hooks.data_cost = lambda event: 1e12
        pool.dispatch(0, _data_event(stream), ready_time=0.0)
        pool.memory.try_allocate = lambda *a: True  # isolate accounting
        pool.dispatch(0, _data_event(stream), ready_time=0.0)
        assert pool.events_dropped == 1

    def test_creation_and_termination_callbacks(self):
        log = []
        hooks = Callbacks(
            on_creation=lambda sd: log.append("create"),
            on_termination=lambda sd: log.append("close"),
        )
        pool = _pool(callbacks=hooks)
        stream = _stream()
        pool.dispatch(0, Event(EventType.STREAM_CREATED, stream, 0.0), 0.0)
        pool.dispatch(0, Event(EventType.STREAM_TERMINATED, stream, 0.0), 0.0)
        assert log == ["create", "close"]

    def test_connection_round_robin_balances(self):
        pool = _pool(worker_count=3)
        counts = [0, 0, 0]
        for i in range(90):
            worker = pool.worker_for_event(0, _data_event(_stream(i)))
            counts[worker] += 1
        assert min(counts) > 15, counts

    def test_single_worker_gets_everything(self):
        pool = _pool(worker_count=1)
        assert pool.worker_for_event(5, _data_event(_stream(3))) == 0

    def test_utilization_bounds(self):
        pool = _pool()
        assert pool.utilization(1.0) == 0.0
        pool.dispatch(0, _data_event(_stream()), 0.0)
        assert 0.0 < pool.utilization(1e-9) <= 1.0

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            _pool(worker_count=0)


class TestLoadBalancer:
    def test_no_redirect_when_few_streams(self):
        balancer = LoadBalancer(4)
        assert balancer.on_stream_created(0) is None

    def test_redirect_from_hot_core(self):
        balancer = LoadBalancer(2, threshold=1.2)
        target = None
        for _ in range(40):
            target = balancer.on_stream_created(0)
            if target is not None:
                break
        assert target == 1

    def test_moved_accounting(self):
        balancer = LoadBalancer(2)
        balancer.counts = [10, 2]
        balancer.moved(0, 1)
        assert balancer.counts == [9, 3]
        assert balancer.redirections == 1

    def test_termination_decrements(self):
        balancer = LoadBalancer(2)
        balancer.counts = [5, 5]
        balancer.on_stream_terminated(0)
        assert balancer.counts[0] == 4
        balancer.counts = [0, 0]
        balancer.on_stream_terminated(0)  # never negative
        assert balancer.counts[0] == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            LoadBalancer(4, threshold=1.0)


class TestRuntimeLoadBalancing:
    def test_balancer_evens_stream_counts(self):
        trace = campus_mix(flow_count=120, seed=31)
        runtime = ScapRuntime(
            ScapConfig(memory_size=1 << 22),
            enable_load_balancing=True,
        )
        runtime.run(trace, 1e9)
        balancer = runtime.balancer
        assert balancer is not None
        # Some redirects happened, or the natural split was already
        # within threshold for every core (rare with 120 streams).
        fair = sum(balancer.counts) / len(balancer.counts) if sum(balancer.counts) else 0
        assert all(count <= 2.2 * max(fair, 1) for count in balancer.counts)

    def test_default_no_balancer(self):
        runtime = ScapRuntime(ScapConfig(memory_size=1 << 22))
        assert runtime.balancer is None
