"""Unit tests for the hot path's batching building blocks.

The faulted workload's batched replay, timeline reset, and the one
remaining knob: ``batch_size``, packets per batch.
"""

from __future__ import annotations

import pytest

from repro.core import ScapRuntime
from repro.core.runtime import DEFAULT_BATCH_SIZE
from repro.faultinject import FaultInjector, FaultPlan, WireFaults
from repro.traffic import campus_mix


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
