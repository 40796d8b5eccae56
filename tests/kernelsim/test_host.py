"""Tests for the Host model and cost model."""

import pytest

from repro.kernelsim import DEFAULT_COST_MODEL, CostModel, Host


class TestCostModel:
    def test_seconds_conversion(self):
        model = CostModel(core_hz=2e9)
        assert model.seconds(2e9) == pytest.approx(1.0)

    def test_copy_cost_linear(self):
        model = CostModel()
        assert model.copy_cost(1000) == pytest.approx(model.copy_per_byte * 1000)

    def test_miss_cost(self):
        model = CostModel()
        assert model.miss_cost(10) == pytest.approx(model.cache_miss_penalty * 10)

    def test_wakeup_amortized(self):
        model = CostModel(syscall_poll=640.0, user_batch_packets=32.0)
        assert model.user_wakeup_cost() == pytest.approx(20.0)

    def test_default_is_shared_instance(self):
        assert DEFAULT_COST_MODEL.core_hz == 2.0e9


class TestHost:
    def test_softirq_load_aggregates_cores(self):
        host = Host(core_count=4)
        host.softirq[0].push(0.0, 1, 1.0)
        host.softirq[1].push(0.0, 1, 1.0)
        # 2 busy seconds over 4 cores x 1 second.
        assert host.softirq_load(1.0) == pytest.approx(0.5)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            Host(core_count=0)

    def test_zero_duration_load(self):
        assert Host().softirq_load(0.0) == 0.0
