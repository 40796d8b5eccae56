"""Each sanitizer must fire on a deliberately broken harness and stay
silent on a correct pipeline."""

import pytest

from repro.core import ScapConfig, ScapKernelModule, ScapRuntime, ScapSocket
from repro.core.memory import StreamMemory
from repro.core.ppl import PPLDecision, PrioritizedPacketLoss
from repro.core.reassembly import TCPDirectionReassembler
from repro.kernelsim import DEFAULT_COST_MODEL
from repro.nic.fdir import FdirFilter, FlowDirectorTable
from repro.netstack import FiveTuple, IPProtocol, TCPFlags, make_tcp_packet
from repro.nic import SimulatedNIC
from repro.observability import Observability
from repro.sanitizers import (
    SANITIZE_ENV,
    InvariantViolation,
    SanitizerContext,
    sanitize_enabled,
    sanitizers_from_env,
)
from repro.traffic import campus_mix
from tests.kernel_driver import feed_kernel


@pytest.fixture
def san():
    return SanitizerContext()


def _tuple(port=1234):
    return FiveTuple(1, port, 2, 80, IPProtocol.TCP)


class TestMemoryAccounting:
    def test_unbalanced_teardown_raises(self, san):
        memory = StreamMemory(1 << 20, sanitizers=san)
        assert memory.try_store(0.0, 100)
        memory.release_now(0.0, 40)
        with pytest.raises(InvariantViolation) as excinfo:
            san.memory.check_teardown(memory)
        assert excinfo.value.invariant == "memory-accounting"
        assert excinfo.value.details["outstanding"] == 60

    def test_over_release_raises(self, san):
        memory = StreamMemory(1 << 20, sanitizers=san)
        assert memory.try_store(0.0, 10)
        with pytest.raises(InvariantViolation):
            memory.release_now(0.0, 11)

    def test_balanced_teardown_passes(self, san):
        memory = StreamMemory(1 << 20, sanitizers=san)
        assert memory.try_store(0.0, 100)
        memory.schedule_release(5.0, 100)
        san.memory.check_teardown(memory)
        assert san.memory.outstanding == 0


class TestReassemblyOrder:
    def test_regressing_delivery_raises(self, san):
        tracked = TCPDirectionReassembler()
        san.reassembly.on_deliver(tracked, 0, 100)
        with pytest.raises(InvariantViolation) as excinfo:
            san.reassembly.on_deliver(tracked, 50, 60)
        assert excinfo.value.invariant == "reassembly-order"

    def test_empty_range_raises(self, san):
        tracked = TCPDirectionReassembler()
        with pytest.raises(InvariantViolation):
            san.reassembly.on_deliver(tracked, 10, 10)

    def test_real_reassembler_under_sanitizer_is_clean(self, san):
        reassembler = TCPDirectionReassembler(sanitizers=san)
        reassembler.set_isn(100)
        # Out-of-order arrival with retransmission and final flush.
        reassembler.on_segment(111, b"klmno")
        reassembler.on_segment(101, b"abcde")
        reassembler.on_segment(101, b"abcde")
        reassembler.on_segment(106, b"fghij")
        delivered = b"".join(
            piece.data for piece in reassembler.flush(now=1.0)
        )
        assert reassembler.counters.delivered_bytes + len(delivered) >= 15


class TestFdirState:
    def test_tampered_count_raises(self, san):
        table = FlowDirectorTable(capacity=4, sanitizers=san)
        table.add(FdirFilter(five_tuple=_tuple(), action_queue=0, timeout_at=1.0))
        table._count += 1  # simulate a lost update
        with pytest.raises(InvariantViolation) as excinfo:
            table.add(
                FdirFilter(five_tuple=_tuple(2), action_queue=0, timeout_at=2.0)
            )
        assert excinfo.value.invariant == "fdir-state"

    def test_eviction_picks_smallest_timeout(self, san):
        table = FlowDirectorTable(capacity=2, sanitizers=san)
        table.add(FdirFilter(five_tuple=_tuple(1), action_queue=0, timeout_at=5.0))
        table.add(FdirFilter(five_tuple=_tuple(2), action_queue=0, timeout_at=1.0))
        # Legal eviction: the min-timeout filter goes; sanitizer silent.
        table.add(FdirFilter(five_tuple=_tuple(3), action_queue=0, timeout_at=9.0))
        assert len(table) == 2

    def test_wrong_victim_raises(self, san):
        table = FlowDirectorTable(capacity=4)
        late = FdirFilter(five_tuple=_tuple(1), action_queue=0, timeout_at=9.0)
        table.add(late)
        table.add(FdirFilter(five_tuple=_tuple(2), action_queue=0, timeout_at=1.0))
        with pytest.raises(InvariantViolation):
            san.fdir.on_evict(late, table)

    def test_install_must_double_previous_interval(self, san):
        san.fdir.on_install("key", 10.0, 0.0, 10.0)  # first install
        san.fdir.on_install("key", 20.0, 10.0, 10.0)  # legal doubling
        with pytest.raises(InvariantViolation) as excinfo:
            san.fdir.on_install("key", 30.0, 20.0, 10.0)  # not a doubling
        assert "double" in str(excinfo.value)

    def test_first_install_must_use_initial(self, san):
        with pytest.raises(InvariantViolation):
            san.fdir.on_install("key", 15.0, 0.0, 10.0)

    def test_premature_timeout_raises(self, san):
        nic_filter = FdirFilter(five_tuple=_tuple(), action_queue=0, timeout_at=5.0)
        with pytest.raises(InvariantViolation):
            san.fdir.on_timeout(nic_filter, now=4.0)
        san.fdir.on_timeout(nic_filter, now=5.0)  # at the deadline: legal


class TestPplBands:
    def test_admission_above_watermark_raises(self, san):
        ppl = PrioritizedPacketLoss(
            base_threshold=0.5, priority_levels=2, sanitizers=san
        )
        # watermark(0) = 0.75; claiming "admitted" at 0.9 is illegal.
        with pytest.raises(InvariantViolation) as excinfo:
            san.ppl.on_check(ppl, 0.9, 0, PPLDecision(drop=False))
        assert excinfo.value.invariant == "ppl-bands"

    def test_watermark_drop_below_band_raises(self, san):
        ppl = PrioritizedPacketLoss(
            base_threshold=0.5, priority_levels=2, sanitizers=san
        )
        with pytest.raises(InvariantViolation):
            san.ppl.on_check(
                ppl, 0.6, 0, PPLDecision(drop=True, reason="watermark")
            )

    def test_real_ppl_decisions_are_clean(self, san):
        ppl = PrioritizedPacketLoss(
            base_threshold=0.5, priority_levels=4, sanitizers=san
        )
        for fraction in (0.0, 0.4, 0.55, 0.7, 0.85, 0.99):
            for priority in range(4):
                ppl.check(fraction, priority, stream_offset=0)

    def test_shrinking_levels_raise(self, san):
        ppl = PrioritizedPacketLoss(
            base_threshold=0.5, priority_levels=3, sanitizers=san
        )
        ppl.check(0.2, 0, 0)
        ppl.priority_levels = 2  # bands must only grow
        with pytest.raises(InvariantViolation):
            ppl.check(0.2, 0, 0)


class TestFlowCacheCoherence:
    def _data(self, seq):
        return make_tcp_packet(
            1, 1234, 2, 80, seq=seq, flags=TCPFlags.ACK, payload=b"x" * 100
        )

    def test_stale_cached_entry_raises(self, san):
        kernel = ScapKernelModule(
            ScapConfig(), SimulatedNIC(queue_count=1), DEFAULT_COST_MODEL,
            sanitizers=san,
        )
        feed_kernel(kernel, self._data(1), 0)  # installs both directions
        feed_kernel(kernel, self._data(101), 0)  # a coherent hit is silent
        # Break the table: take the pair off the access list behind the
        # index's back, as a removal path that forgot to unindex would.
        pair = kernel.flows.get(_tuple())
        del kernel.flows._table[pair.key]
        with pytest.raises(InvariantViolation) as excinfo:
            feed_kernel(kernel, self._data(201), 0)
        assert excinfo.value.invariant == "flow-cache-coherence"


class TestTraceTail:
    def test_violation_carries_trace_ring_tail(self):
        obs = Observability(enabled=True, trace_capacity=64)
        san = SanitizerContext(observability=obs)
        for i in range(20):
            obs.trace.emit(float(i), "memory_exhausted", bytes=i)
        memory = StreamMemory(1 << 20, observability=obs, sanitizers=san)
        assert memory.try_store(0.0, 7)
        with pytest.raises(InvariantViolation) as excinfo:
            san.memory.check_teardown(memory)
        tail = excinfo.value.trace_tail
        assert len(tail) == 16  # default SCAP_SANITIZE_TRACE_TAIL
        assert tail[-1].fields["bytes"] == 19
        assert "trace tail" in str(excinfo.value)

    def test_no_observability_means_empty_tail(self, san):
        memory = StreamMemory(1 << 20, sanitizers=san)
        assert memory.try_store(0.0, 7)
        with pytest.raises(InvariantViolation) as excinfo:
            san.memory.check_teardown(memory)
        assert excinfo.value.trace_tail == ()


class TestEnvGating:
    def test_env_flag_parsing(self, monkeypatch):
        for value, expected in (
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("", False), ("off", False),
        ):
            monkeypatch.setenv(SANITIZE_ENV, value)
            assert sanitize_enabled() is expected
        monkeypatch.delenv(SANITIZE_ENV)
        assert sanitize_enabled() is False

    def test_sanitizers_from_env(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert sanitizers_from_env() is None
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert isinstance(sanitizers_from_env(), SanitizerContext)

    def test_runtime_picks_up_env(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        runtime = ScapRuntime(core_count=2)
        assert runtime.sanitizers is not None
        monkeypatch.delenv(SANITIZE_ENV)
        runtime = ScapRuntime(core_count=2)
        assert runtime.sanitizers is None


class TestEndToEnd:
    def test_full_capture_under_sanitizers_is_clean(self):
        """A real capture run violates no invariant and balances memory."""
        san = SanitizerContext()
        trace = campus_mix(flow_count=40, seed=11)
        runtime = ScapRuntime(
            config=ScapConfig(memory_size=1 << 22),
            core_count=4,
            sanitizers=san,
        )
        result = runtime.run(trace, rate_bps=2e9)
        assert result.delivered_bytes > 0
        assert san.memory.outstanding == 0

    def test_socket_passes_sanitizers_through(self):
        san = SanitizerContext()
        trace = campus_mix(flow_count=20, seed=3)
        socket = ScapSocket(trace, rate_bps=1e9, sanitizers=san)
        socket.start_capture(name="sanitized")
        assert san.memory.stored_total > 0
        assert san.memory.outstanding == 0
