"""Tests for cutoff resolution and prioritized packet loss."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.constants import SCAP_UNLIMITED_CUTOFF
from repro.core.cutoff import CutoffPolicy
from repro.core.ppl import PPLDecision, PrioritizedPacketLoss
from repro.core.stream import StreamDescriptor
from repro.filters import BPFFilter
from repro.netstack import FiveTuple, IPProtocol


def _stream(port=80, direction=0):
    ft = FiveTuple(1, 40000, 2, port, IPProtocol.TCP)
    return StreamDescriptor(five_tuple=ft, direction=direction, protocol=IPProtocol.TCP)


class TestCutoffPolicy:
    def test_default_unlimited(self):
        policy = CutoffPolicy()
        stream = _stream()
        assert policy.effective_cutoff(stream) == SCAP_UNLIMITED_CUTOFF
        assert not policy.is_exceeded(stream, 10**9)
        assert policy.remaining(stream, 0) is None

    def test_global_default(self):
        policy = CutoffPolicy()
        policy.set_default(1000)
        stream = _stream()
        assert policy.effective_cutoff(stream) == 1000
        assert policy.remaining(stream, 400) == 600
        assert policy.is_exceeded(stream, 1000)
        assert not policy.is_exceeded(stream, 999)

    def test_direction_overrides_default(self):
        policy = CutoffPolicy()
        policy.set_default(1000)
        policy.add_direction_cutoff(50, direction=1)
        assert policy.effective_cutoff(_stream(direction=1)) == 50
        assert policy.effective_cutoff(_stream(direction=0)) == 1000

    def test_class_overrides_direction(self):
        policy = CutoffPolicy()
        policy.add_direction_cutoff(50, direction=0)
        policy.add_class_cutoff(9999, BPFFilter("tcp port 80"))
        assert policy.effective_cutoff(_stream(port=80)) == 9999
        assert policy.effective_cutoff(_stream(port=25)) == 50

    def test_first_matching_class_wins(self):
        policy = CutoffPolicy()
        policy.add_class_cutoff(111, BPFFilter("tcp"))
        policy.add_class_cutoff(222, BPFFilter("port 80"))
        assert policy.effective_cutoff(_stream()) == 111

    def test_per_stream_beats_everything(self):
        policy = CutoffPolicy()
        policy.set_default(1000)
        policy.add_class_cutoff(500, BPFFilter("tcp"))
        stream = _stream()
        stream.cutoff = 7
        assert policy.effective_cutoff(stream) == 7

    def test_zero_cutoff(self):
        policy = CutoffPolicy()
        policy.set_default(0)
        stream = _stream()
        assert policy.is_exceeded(stream, 0)
        assert policy.remaining(stream, 0) == 0

    def test_validation(self):
        policy = CutoffPolicy()
        with pytest.raises(ValueError):
            policy.set_default(-2)
        with pytest.raises(ValueError):
            policy.add_direction_cutoff(10, direction=2)


class TestPPL:
    def test_no_drops_below_base(self):
        ppl = PrioritizedPacketLoss(base_threshold=0.5)
        assert not ppl.check(0.49, priority=0, stream_offset=10**9).drop

    def test_single_priority_watermark_is_full_memory(self):
        ppl = PrioritizedPacketLoss(base_threshold=0.5, priority_levels=1)
        assert ppl.watermark(0) == pytest.approx(1.0)
        assert not ppl.check(0.99, 0, 0).drop

    def test_two_priorities_watermarks(self):
        ppl = PrioritizedPacketLoss(base_threshold=0.5, priority_levels=2)
        assert ppl.watermark(0) == pytest.approx(0.75)
        assert ppl.watermark(1) == pytest.approx(1.0)
        assert ppl.check(0.80, 0, 0).drop  # low priority above its mark
        assert not ppl.check(0.80, 1, 0).drop  # high priority rides on

    def test_overload_cutoff_band(self):
        ppl = PrioritizedPacketLoss(
            base_threshold=0.5, overload_cutoff=1000, priority_levels=2
        )
        # In the band below its watermark: drop only beyond the cutoff.
        decision_near = ppl.check(0.6, 0, stream_offset=10)
        decision_far = ppl.check(0.6, 0, stream_offset=5000)
        assert not decision_near.drop
        assert decision_far.drop and decision_far.reason == "overload_cutoff"
        # High priority in its band (0.75..1.0): same rule.
        assert ppl.check(0.9, 1, 5000).drop
        assert not ppl.check(0.9, 1, 10).drop

    def test_drop_accounting(self):
        ppl = PrioritizedPacketLoss(base_threshold=0.1, priority_levels=2)
        decisions = [ppl.check(0.99, 0, 0), ppl.check(0.99, 0, 0)]
        assert all(d.drop and d.reason == "watermark" for d in decisions)
        assert ppl.checked == 2

    def test_pass_is_one_shared_immutable_value(self):
        """Admitting a packet allocates nothing; both pass exits share it."""
        ppl = PrioritizedPacketLoss(base_threshold=0.5, overload_cutoff=1000)
        below_base = ppl.check(0.1, 0, 0)
        in_band = ppl.check(0.9, 0, 10)
        assert below_base is in_band and not below_base.drop
        assert below_base == PPLDecision(drop=False)
        with pytest.raises(dataclasses.FrozenInstanceError):
            below_base.drop = True

    def test_ensure_level_grows(self):
        ppl = PrioritizedPacketLoss()
        ppl.ensure_level(3)
        assert ppl.priority_levels == 4
        ppl.ensure_level(1)
        assert ppl.priority_levels == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            PrioritizedPacketLoss(base_threshold=1.0)
        with pytest.raises(ValueError):
            PrioritizedPacketLoss(priority_levels=0)

    @given(
        base=st.floats(0.0, 0.95),
        levels=st.integers(1, 6),
        fraction=st.floats(0.0, 1.0),
        offset=st.integers(0, 10**6),
    )
    def test_higher_priority_never_worse(self, base, levels, fraction, offset):
        """Monotonicity: if priority p survives, p+1 must survive too."""
        ppl = PrioritizedPacketLoss(
            base_threshold=base, overload_cutoff=1000, priority_levels=levels
        )
        for priority in range(levels - 1):
            low = ppl.check(fraction, priority, offset).drop
            high = ppl.check(fraction, priority + 1, offset).drop
            if high:
                assert low, (fraction, priority)
