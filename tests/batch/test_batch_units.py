"""Unit tests for the hot path's batching building blocks.

The pipeline defers observability to per-batch flushes; these tests
pin the bit-identity contract of each primitive (``inc_many``,
``observe_many``, ``record_seq``/``record_wait_seq``, the stream-memory
batch window), the faulted workload's batched replay, timeline reset,
and the one remaining knob: ``batch_size``, packets per batch.
"""

from __future__ import annotations

import random

import pytest

from repro.core.memory import StreamMemory
from repro.core import ScapRuntime
from repro.core.runtime import DEFAULT_BATCH_SIZE
from repro.faultinject import FaultInjector, FaultPlan, WireFaults
from repro.observability import STAGE_EVENT_DEQUEUE, Observability
from repro.traffic import campus_mix


def _values(count=200, seed=3):
    rng = random.Random(seed)
    # Spread magnitudes so naive re-association would actually round
    # differently — the equality below is therefore a real bit check.
    return [rng.random() * 10.0 ** rng.randint(-9, 3) for _ in range(count)]


class TestCounterIncMany:
    def test_bit_identical_to_repeated_inc(self):
        registry = Observability(enabled=True).registry
        one_by_one = registry.counter("a_total", "")
        batched = registry.counter("b_total", "")
        values = _values()
        for value in values:
            one_by_one.inc(value)
        batched.inc_many(values)
        assert batched.value == one_by_one.value  # exact, not approx

    def test_empty_is_noop_and_negative_raises(self):
        registry = Observability(enabled=True).registry
        counter = registry.counter("c_total", "")
        counter.inc_many([])
        assert counter.value == 0.0
        with pytest.raises(ValueError):
            counter.inc_many([1.0, -0.5])

    def test_disabled_registry_ignores(self):
        registry = Observability(enabled=False).registry
        counter = registry.counter("d_total", "")
        counter.inc_many([1.0, 2.0])
        assert counter.value == 0.0


class TestHistogramObserveMany:
    def test_matches_repeated_observe_exactly(self):
        registry = Observability(enabled=True).registry
        one_by_one = registry.histogram("a_seconds", "")
        batched = registry.histogram("b_seconds", "")
        values = _values()
        for value in values:
            one_by_one.observe(value)
        batched.observe_many(values)
        assert batched.sum == one_by_one.sum
        assert batched.counts == one_by_one.counts
        assert batched.total == one_by_one.total


class TestProfilerSeq:
    def test_record_seq_replays_per_sample_adds(self):
        reference = Observability(enabled=True).profiler
        batched = Observability(enabled=True).profiler
        cores = [index % 3 for index in range(len(_values()))]
        values = _values()
        for core, value in zip(cores, values):
            reference.record(STAGE_EVENT_DEQUEUE, core, value)
        batched.record_seq(STAGE_EVENT_DEQUEUE, cores, values)
        assert batched.service_seconds[STAGE_EVENT_DEQUEUE] == (
            reference.service_seconds[STAGE_EVENT_DEQUEUE]
        )
        assert batched.per_core_seconds[STAGE_EVENT_DEQUEUE] == (
            reference.per_core_seconds[STAGE_EVENT_DEQUEUE]
        )
        assert batched.samples[STAGE_EVENT_DEQUEUE] == reference.samples[STAGE_EVENT_DEQUEUE]

    def test_record_wait_seq_replays_per_sample_adds(self):
        reference = Observability(enabled=True).profiler
        batched = Observability(enabled=True).profiler
        values = _values(seed=5)
        for value in values:
            reference.record_wait(STAGE_EVENT_DEQUEUE, 0, value)
        batched.record_wait_seq(STAGE_EVENT_DEQUEUE, values)
        assert batched.wait_seconds[STAGE_EVENT_DEQUEUE] == reference.wait_seconds[STAGE_EVENT_DEQUEUE]
        assert batched.wait_samples[STAGE_EVENT_DEQUEUE] == reference.wait_samples[STAGE_EVENT_DEQUEUE]

    def test_empty_seq_is_noop(self):
        profiler = Observability(enabled=True).profiler
        profiler.record_seq(STAGE_EVENT_DEQUEUE, [], [])
        profiler.record_wait_seq(STAGE_EVENT_DEQUEUE, [])
        assert profiler.samples[STAGE_EVENT_DEQUEUE] == 0
        assert profiler.wait_samples[STAGE_EVENT_DEQUEUE] == 0


class TestMemoryBatchWindow:
    def _memories(self):
        return (
            StreamMemory(1 << 16, observability=Observability(enabled=True)),
            StreamMemory(1 << 16, observability=Observability(enabled=True)),
        )

    def test_batched_stores_match_unbatched(self):
        unbatched, batched = self._memories()
        sizes = [100, 5000, 60000, 1200, 60000]  # the 60000s exhaust it
        for size in sizes:
            unbatched.try_store(0.0, size)
        batched.begin_batch()
        for size in sizes:
            batched.try_store(0.0, size)
        batched.end_batch()
        assert batched.pool.used == unbatched.pool.used
        assert batched.allocation_failures == unbatched.allocation_failures
        assert batched._m_stored.value == unbatched._m_stored.value
        assert batched._m_occupancy.counts == unbatched._m_occupancy.counts
        assert batched._m_occupancy.sum == unbatched._m_occupancy.sum
        assert batched._m_failures.value == unbatched._m_failures.value

    def test_end_batch_without_begin_is_noop(self):
        memory = StreamMemory(1 << 16, observability=Observability(enabled=True))
        memory.end_batch()
        assert memory._m_stored.value == 0.0


class TestFaultedBatchedReplay:
    def _plan(self):
        return FaultPlan(
            seed=7,
            wire=WireFaults(drop_rate=0.05, duplicate_rate=0.05),
        )

    def _trace(self):
        return campus_mix(flow_count=10, max_flow_bytes=40_000, seed=13)

    def test_batches_flatten_to_the_faulted_stream(self):
        wrapped_a = FaultInjector(self._plan()).wrap_workload(self._trace())
        wrapped_b = FaultInjector(self._plan()).wrap_workload(self._trace())
        per_packet = list(wrapped_a.replay(1e9))
        batches = list(wrapped_b.replay_batches(1e9, 16))
        flattened = [packet for batch in batches for packet in batch]
        assert len(flattened) == len(per_packet)
        assert all(len(batch) <= 16 for batch in batches)
        assert [p.timestamp for p in flattened] == [
            p.timestamp for p in per_packet
        ]
        assert [bytes(p.payload) for p in flattened] == [
            bytes(p.payload) for p in per_packet
        ]

    def test_faulted_stream_differs_from_clean_trace(self):
        # Guards the __getattr__ regression: batched replay must come
        # from the fault plane, not be delegated to the clean trace.
        wrapped = FaultInjector(self._plan()).wrap_workload(self._trace())
        faulted = sum(len(batch) for batch in wrapped.replay_batches(1e9, 16))
        assert faulted != len(self._trace())

    def test_invalid_batch_size_rejected(self):
        wrapped = FaultInjector(self._plan()).wrap_workload(self._trace())
        with pytest.raises(ValueError):
            next(wrapped.replay_batches(1e9, 0))


class TestTimelineReset:
    def test_reset_restores_native_timestamps(self):
        trace = campus_mix(flow_count=5, max_flow_bytes=20_000, seed=3)
        native = [packet.timestamp for packet in trace.packets]
        for _ in trace.replay(9e9):
            pass
        assert [p.timestamp for p in trace.packets] != native
        trace.reset_timeline()
        assert [p.timestamp for p in trace.packets] == native


class TestBatchSizeSwitch:
    """``batch_size`` is packets per batch, 1 and up — nothing else."""

    def test_unset_selects_default(self, monkeypatch):
        monkeypatch.delenv("SCAP_BATCH", raising=False)
        assert ScapRuntime().batch_size == DEFAULT_BATCH_SIZE == 64

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("SCAP_BATCH", "32")
        assert ScapRuntime(batch_size=8).batch_size == 8
        assert ScapRuntime(batch_size=1).batch_size == 1

    @pytest.mark.parametrize("size", [0, -1, -64])
    def test_sizes_below_one_rejected(self, size):
        with pytest.raises(ValueError):
            ScapRuntime(batch_size=size)

    @pytest.mark.parametrize(
        "raw", ["0", "1", "2", "128", "", "nonsense"],
        ids=["0", "1", "2", "128", "empty", "nonsense"],
    )
    def test_environment_has_no_effect(self, monkeypatch, raw):
        monkeypatch.setenv("SCAP_BATCH", raw)
        assert ScapRuntime().batch_size == DEFAULT_BATCH_SIZE
