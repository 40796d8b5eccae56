"""Tests for stream descriptors, events, config, and constants."""

import pytest

from repro.core import (
    SCAP_TCP_FAST,
    SCAP_UNLIMITED_CUTOFF,
    DataReason,
    Event,
    EventType,
    ReassemblyPolicy,
    ScapConfig,
    StreamDescriptor,
    StreamError,
    StreamStatus,
)
from repro.core.memory import Chunk
from repro.netstack import FiveTuple, IPProtocol


def _stream(direction=0):
    return StreamDescriptor(
        FiveTuple(0x0A000001, 1234, 0x0A000002, 80, IPProtocol.TCP),
        direction,
        IPProtocol.TCP,
    )


class TestStreamDescriptor:
    def test_unique_ids(self):
        assert _stream().stream_id != _stream().stream_id

    def test_address_properties(self):
        stream = _stream()
        assert stream.src_ip == 0x0A000001
        assert stream.dst_port == 80

    def test_error_flags(self):
        stream = _stream()
        assert stream.error == StreamError.NONE
        stream.set_error(StreamError.REASSEMBLY_HOLE)
        stream.set_error(StreamError.INCOMPLETE_HANDSHAKE)
        assert stream.has_error(StreamError.REASSEMBLY_HOLE)
        assert stream.has_error(StreamError.INCOMPLETE_HANDSHAKE)
        assert not stream.has_error(StreamError.INVALID_SEQUENCE)

    def test_status_lifecycle(self):
        stream = _stream()
        assert stream.is_active
        stream.status = StreamStatus.CUTOFF
        assert stream.is_active  # monitoring continues past a cutoff
        stream.status = StreamStatus.CLOSED
        assert not stream.is_active

    def test_duration(self):
        stream = _stream()
        stream.stats.start, stream.stats.end = 2.0, 5.0
        assert stream.duration == 3.0
        stream.stats.end = 1.0
        assert stream.duration == 0.0

    def test_defaults(self):
        stream = _stream()
        assert stream.cutoff == SCAP_UNLIMITED_CUTOFF
        assert stream.priority == 0
        assert stream.chunk_size is None
        assert stream.user is None

    def test_str(self):
        assert "stream#" in str(_stream())


class TestEvent:
    def test_data_len(self):
        chunk = Chunk(0)
        chunk.append(b"12345")
        event = Event(EventType.STREAM_DATA, _stream(), 1.0, chunk=chunk,
                      reason=DataReason.CHUNK_FULL)
        assert event.data_len == 5
        assert Event(EventType.STREAM_CREATED, _stream(), 1.0).data_len == 0


class TestScapConfig:
    def test_defaults_match_paper(self):
        config = ScapConfig()
        assert config.memory_size == 1 << 30  # 1 GB
        assert config.chunk_size == 16 * 1024
        assert config.reassembly_mode == SCAP_TCP_FAST
        assert config.inactivity_timeout == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"memory_size": 0},
            {"chunk_size": 0},
            {"overlap_size": 16 * 1024},
            {"worker_threads": 0},
            {"inactivity_timeout": 0},
        ],
    )
    def test_validation(self, kwargs):
        config = ScapConfig(**kwargs)
        with pytest.raises(ValueError):
            config.validate()


class TestReassemblyPolicy:
    def test_coarse_winner_mapping(self):
        assert ReassemblyPolicy.winner(ReassemblyPolicy.WINDOWS) == "first"
        assert ReassemblyPolicy.winner(ReassemblyPolicy.LAST) == "last"
        assert ReassemblyPolicy.winner(ReassemblyPolicy.LINUX) == "first"

    def test_position_dependent_matrix(self):
        wins = ReassemblyPolicy.new_segment_wins
        # old segment starts at 10; new copies at 8 / 10 / 12.
        for policy, expected in (
            (ReassemblyPolicy.WINDOWS, (False, False, False)),
            (ReassemblyPolicy.SOLARIS, (False, False, False)),
            (ReassemblyPolicy.LAST, (True, True, True)),
            (ReassemblyPolicy.BSD, (True, False, False)),
            (ReassemblyPolicy.LINUX, (True, True, False)),
        ):
            got = tuple(wins(policy, 10, new) for new in (8, 10, 12))
            assert got == expected, policy

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            ReassemblyPolicy.winner("templeos")
        with pytest.raises(ValueError):
            ReassemblyPolicy.validate("templeos")
