"""Per-queue sharding: partitioning, the serial run, merge math."""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from repro.apps import StreamDeliveryApp
from repro.core import (
    ScapSocket,
    ShardedCapture,
    partition_trace,
    scap_get_stats,
)
from repro.core.shards import _merge_results
from repro.nic.rss import RSSHasher
from repro.results import RunResult
from repro.traffic import campus_mix

RATE = 2e9
MEMORY = 1 << 21


def _trace(flow_count=40, seed=11):
    return campus_mix(flow_count=flow_count, max_flow_bytes=100_000, seed=seed)


class TestPartition:
    def test_partition_covers_every_packet_exactly_once(self):
        trace = _trace()
        shards = partition_trace(trace, 4)
        assert sum(len(shard) for shard in shards) == len(trace)
        original = {id(packet) for packet in trace.packets}
        sharded = {id(packet) for shard in shards for packet in shard.packets}
        assert sharded == original

    def test_both_directions_of_a_connection_share_a_shard(self):
        trace = _trace()
        shards = partition_trace(trace, 4)
        owner = {}
        for index, shard in enumerate(shards):
            for packet in shard.packets:
                five_tuple = packet.five_tuple
                if five_tuple is None:
                    continue
                key = five_tuple.canonical()
                assert owner.setdefault(key, index) == index, (
                    "connection split across shards"
                )

    def test_partition_matches_symmetric_rss(self):
        trace = _trace()
        shards = partition_trace(trace, 4)
        hasher = RSSHasher(4)
        for index, shard in enumerate(shards):
            for packet in shard.packets:
                if packet.five_tuple is not None:
                    assert hasher.queue_for(packet.five_tuple) == index

    def test_flows_reindexed_per_shard(self):
        trace = _trace()
        shards = partition_trace(trace, 4)
        assert sum(len(shard.flows) for shard in shards) == len(trace.flows)
        for shard in shards:
            for position, flow in enumerate(shard.flows):
                assert flow.index == position
                for match in flow.planted:
                    assert match.flow_index == flow.index

    def test_partition_ignores_prior_replay_rescaling(self):
        trace = _trace()
        before = [
            [packet.timestamp for packet in shard.packets]
            for shard in partition_trace(trace, 3)
        ]
        for _ in trace.replay(8e9):  # rescales timestamps in place
            pass
        after = [
            [packet.timestamp for packet in shard.packets]
            for shard in partition_trace(trace, 3)
        ]
        assert after == before

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            partition_trace(_trace(), 0)


class TestShardedCapture:
    def test_serial_run_accounts_every_packet(self):
        trace = _trace()
        sharded = ShardedCapture(
            trace, 3, rate_bps=RATE, memory_size=MEMORY
        ).run()
        assert sharded.shard_count == 3
        assert sharded.result.offered_packets == len(trace)
        assert sharded.result.delivered_events > 0
        assert sum(outcome.packets for outcome in sharded.shards) == len(trace)

    def test_app_factory_builds_one_app_per_shard(self):
        apps = []

        def factory():
            apps.append(StreamDeliveryApp())
            return apps[-1]

        sharded = ShardedCapture(
            _trace(), 3, rate_bps=RATE, memory_size=MEMORY, app_factory=factory
        ).run()
        assert len(apps) == sharded.shard_count == 3
        seen = [set(app.bytes_per_stream) for app in apps]
        assert all(seen)
        # Symmetric RSS: no connection reaches two shards' apps.
        assert sum(map(len, seen)) == len(set().union(*seen))

    def test_one_shard_equals_unsharded_single_queue(self):
        sharded = ShardedCapture(
            _trace(), 1, rate_bps=RATE, memory_size=MEMORY
        ).run(name="one")
        socket = ScapSocket(
            _trace(), memory_size=MEMORY, rate_bps=RATE, core_count=1
        )
        result = socket.start_capture(name="one-shard0")
        stats = scap_get_stats(socket)
        socket.close()
        merged = asdict(sharded.result)
        merged.pop("system")
        unsharded = asdict(result)
        unsharded.pop("system")
        assert merged == unsharded
        assert asdict(sharded.stats) == asdict(stats)

    def test_rejects_bad_configuration(self):
        trace = _trace(flow_count=5)
        with pytest.raises(ValueError):
            ShardedCapture(trace, 0, rate_bps=RATE, memory_size=MEMORY)
        with pytest.raises(ValueError):
            ShardedCapture(trace, 2, rate_bps=0.0, memory_size=MEMORY)
        with pytest.raises(ValueError):
            ShardedCapture(
                trace, 2, rate_bps=RATE, memory_size=MEMORY, core_count=2
            )


class TestMergeMath:
    def _result(self, **overrides):
        base = RunResult(system="s", rate_bps=RATE, duration=1.0)
        return replace(base, **overrides)

    def test_additive_fields_sum(self):
        merged = _merge_results(
            [
                self._result(offered_packets=3, delivered_bytes=10),
                self._result(offered_packets=4, delivered_bytes=20),
            ],
            RATE,
            "m",
        )
        assert merged.offered_packets == 7
        assert merged.delivered_bytes == 30

    def test_duration_is_max_and_utilization_weighted(self):
        merged = _merge_results(
            [
                self._result(duration=2.0, user_utilization=0.5),
                self._result(duration=6.0, user_utilization=0.1),
            ],
            RATE,
            "m",
        )
        assert merged.duration == 6.0
        assert merged.user_utilization == pytest.approx(
            (0.5 * 2.0 + 0.1 * 6.0) / 8.0
        )

    def test_priority_dicts_merge_keywise_sorted(self):
        merged = _merge_results(
            [
                self._result(packets_by_priority={2: 5}),
                self._result(packets_by_priority={1: 3, 2: 1}),
            ],
            RATE,
            "m",
        )
        assert merged.packets_by_priority == {1: 3, 2: 6}
        assert list(merged.packets_by_priority) == [1, 2]

    def test_cache_misses_weighted_by_offered_packets(self):
        merged = _merge_results(
            [
                self._result(offered_packets=10, cache_misses_per_packet=2.0),
                self._result(offered_packets=30, cache_misses_per_packet=6.0),
                self._result(offered_packets=5),  # None: excluded
            ],
            RATE,
            "m",
        )
        assert merged.cache_misses_per_packet == pytest.approx(
            (2.0 * 10 + 6.0 * 30) / 40
        )

    def test_memory_peak_is_max(self):
        merged = _merge_results(
            [
                self._result(memory_peak_fraction=0.2),
                self._result(memory_peak_fraction=0.9),
            ],
            RATE,
            "m",
        )
        assert merged.memory_peak_fraction == 0.9
