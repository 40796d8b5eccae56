"""Property-based TCP reassembly tests (hypothesis).

Two families of properties:

* **Reconstruction identity** — any segmentation of a stream, under
  any arrival order, with duplicated and re-sliced (byte-identical)
  overlapping segments mixed in, reassembles to exactly the original
  byte string in ``SCAP_TCP_STRICT`` mode (and in ``SCAP_TCP_FAST``
  while its out-of-order bounds are not exceeded).
* **Byte-map oracle across a sequence wrap** — the same schedules with
  an initial sequence number just below 2**32: STRICT + ``flush()``
  returns the string; FAST under hole pressure may skip bytes but puts
  every byte it does deliver at that byte's own offset, once.
* **Overlap policy matrix** — when two buffered copies of a range
  *conflict*, the surviving copy per target OS matches the
  Novak–Sturges target-based model the paper (and Snort's Stream5)
  implements, byte for byte, for every relative segment placement.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constants import SCAP_TCP_FAST, SCAP_TCP_STRICT, ReassemblyPolicy
from repro.core.reassembly import TCPDirectionReassembler

# The Novak–Sturges matrix, restated independently of the
# implementation: does the NEW copy of a conflicting overlap win,
# given where each segment starts?
NOVAK_STURGES = {
    ReassemblyPolicy.FIRST: lambda old, new: False,
    ReassemblyPolicy.WINDOWS: lambda old, new: False,
    ReassemblyPolicy.SOLARIS: lambda old, new: False,
    ReassemblyPolicy.LAST: lambda old, new: True,
    ReassemblyPolicy.BSD: lambda old, new: new < old,
    ReassemblyPolicy.LINUX: lambda old, new: new <= old,
}

ALL_POLICIES = sorted(NOVAK_STURGES)


def _collect(pieces):
    return b"".join(piece.data for piece in pieces)


# ----------------------------------------------------------------------
# Reconstruction identity
# ----------------------------------------------------------------------
@st.composite
def segmented_stream(draw):
    """A payload plus a shuffled, duplicated, re-sliced segmentation."""
    payload = bytes(draw(st.lists(st.integers(0, 255), min_size=1, max_size=300)))
    n = len(payload)
    # A primary segmentation from random cut points (covers everything).
    cuts = sorted(set(draw(st.lists(st.integers(1, max(1, n - 1)),
                                    max_size=8)) + [0, n]))
    segments = [
        (start, payload[start:end]) for start, end in zip(cuts, cuts[1:])
    ]
    # Extra byte-identical slices: retransmissions straddling the
    # primary segment boundaries.
    extra_count = draw(st.integers(0, 4))
    for _ in range(extra_count):
        start = draw(st.integers(0, n - 1))
        end = draw(st.integers(start + 1, n))
        segments.append((start, payload[start:end]))
    # Plain duplicates of primary segments.
    for index in draw(st.lists(st.integers(0, len(segments) - 1), max_size=3)):
        segments.append(segments[index])
    order = draw(st.permutations(segments))
    return payload, list(order)


@settings(max_examples=60, deadline=None)
@given(segmented_stream(), st.sampled_from([SCAP_TCP_STRICT, SCAP_TCP_FAST]))
def test_any_arrival_order_reconstructs_identically(case, mode):
    payload, segments = case
    reassembler = TCPDirectionReassembler(mode)
    reassembler.set_isn(0)
    delivered = b""
    for offset, data in segments:
        delivered += _collect(reassembler.on_segment(1 + offset, data))
    assert delivered == payload
    assert reassembler.next_offset == len(payload)
    assert reassembler.buffered_bytes == 0
    # Identical copies never conflict, whatever the overlap geometry.
    assert reassembler.counters.conflicting_bytes == 0


@settings(max_examples=40, deadline=None)
@given(segmented_stream(), st.sampled_from(ALL_POLICIES))
def test_reconstruction_is_policy_independent(case, policy):
    """Without conflicting bytes, every OS policy yields the same stream."""
    payload, segments = case
    reassembler = TCPDirectionReassembler(SCAP_TCP_STRICT, policy=policy)
    reassembler.set_isn(0)
    delivered = b""
    for offset, data in segments:
        delivered += _collect(reassembler.on_segment(1 + offset, data))
    assert delivered == payload


# ----------------------------------------------------------------------
# Byte-map oracle, sequence numbers wrapping
# ----------------------------------------------------------------------
#: Initial sequence numbers that put the wrap inside a 300-byte stream.
wrapping_isn = st.integers(2**32 - 301, 2**32 - 1)


def _wire_seq(isn, offset):
    return (isn + 1 + offset) % 2**32


@settings(max_examples=60, deadline=None)
@given(segmented_stream(), wrapping_isn)
def test_strict_with_flush_returns_the_string_across_a_wrap(case, isn):
    payload, segments = case
    reassembler = TCPDirectionReassembler(SCAP_TCP_STRICT)
    reassembler.set_isn(isn)
    delivered = b""
    for offset, data in segments:
        delivered += _collect(reassembler.on_segment(_wire_seq(isn, offset), data))
    delivered += _collect(reassembler.flush())
    assert delivered == payload
    assert reassembler.counters.delivered_bytes == len(payload)
    assert reassembler.counters.stalled_bytes_dropped == 0


# One row per stream offset; the only states a byte can be in.
_MISSING, _WAITING, _DELIVERED, _SKIPPED = "missing", "waiting", "delivered", "skipped"


@settings(max_examples=80, deadline=None)
@given(
    segmented_stream(),
    wrapping_isn,
    st.integers(1, 64),  # fast_hole_bytes
    st.integers(1, 3),  # fast_hole_segments
)
def test_fast_mode_delivers_every_byte_at_its_own_offset(case, isn, hole_bytes, hole_segments):
    """The oracle is a table of per-offset states, not interval code.

    A byte is *waiting* once a segment carried it at or beyond the
    delivery point; whatever one call releases is one contiguous run
    ending at the new delivery point; a byte passed over while missing
    is *skipped* for good (its late copies are duplicates).
    """
    payload, segments = case
    reassembler = TCPDirectionReassembler(
        SCAP_TCP_FAST, fast_hole_bytes=hole_bytes, fast_hole_segments=hole_segments
    )
    reassembler.set_isn(isn)
    state = [_MISSING] * len(payload)

    def account(run, end):
        """``run`` (pieces of one contiguous release) ended at ``end``."""
        data = _collect(run)
        start = end - len(data)
        assert data == payload[start:end]
        for position in range(start, end):
            assert state[position] == _WAITING, (position, state[position])
            state[position] = _DELIVERED
        for position in range(start):
            if state[position] == _MISSING:
                state[position] = _SKIPPED
            assert state[position] != _WAITING, position  # nothing left behind

    for offset, data in segments:
        before = reassembler.next_offset
        for position in range(max(offset, before), offset + len(data)):
            if state[position] == _MISSING:
                state[position] = _WAITING
        released = reassembler.on_segment(_wire_seq(isn, offset), data)
        assert all(not piece.follows_hole for piece in released[1:])
        if released:
            account(released, reassembler.next_offset)
        else:
            assert reassembler.next_offset == before

    # flush(): every maximal run of waiting rows, ascending, each flagged.
    waiting_runs = []
    for position, row in enumerate(state):
        if row == _WAITING:
            if waiting_runs and waiting_runs[-1][1] == position:
                waiting_runs[-1][1] = position + 1
            else:
                waiting_runs.append([position, position + 1])
    flushed_runs = []
    for piece in reassembler.flush():
        if piece.follows_hole:
            flushed_runs.append([])
        flushed_runs[-1].append(piece)
    assert len(flushed_runs) == len(waiting_runs)
    for run, (start, end) in zip(flushed_runs, waiting_runs):
        assert len(_collect(run)) == end - start
        account(run, end)
    assert set(state) <= {_DELIVERED, _SKIPPED}
    assert reassembler.next_offset == len(payload)
    assert reassembler.buffered_bytes == 0
    assert reassembler.counters.delivered_bytes == state.count(_DELIVERED)
    assert reassembler.counters.holes_skipped >= (1 if _SKIPPED in state else 0)


# ----------------------------------------------------------------------
# Conflicting overlaps: the Novak–Sturges matrix, end to end
# ----------------------------------------------------------------------
@st.composite
def conflicting_overlap(draw):
    """Two out-of-order segments with different bytes on a shared range."""
    old_start = draw(st.integers(1, 20))
    old_len = draw(st.integers(1, 20))
    # Force a nonempty intersection with the old segment's range.
    new_start = draw(st.integers(max(1, old_start - 20), old_start + old_len - 1))
    new_end = draw(st.integers(max(new_start + 1, old_start + 1),
                               old_start + old_len + 20))
    return old_start, old_len, new_start, new_end - new_start


@settings(max_examples=80, deadline=None)
@given(conflicting_overlap(), st.sampled_from(ALL_POLICIES))
def test_overlap_resolution_matches_novak_sturges(case, policy):
    old_start, old_len, new_start, new_len = case
    old = bytes([0xAA]) * old_len
    new = bytes([0xBB]) * new_len
    reassembler = TCPDirectionReassembler(SCAP_TCP_STRICT, policy=policy)
    reassembler.set_isn(0)
    # Both arrive out of order (offset 0 still missing), so both buffer
    # and the overlap is resolved by the target-based policy.
    assert reassembler.on_segment(1 + old_start, old) == []
    assert reassembler.on_segment(1 + new_start, new) == []
    assert reassembler.counters.conflicting_bytes == (
        min(old_start + old_len, new_start + new_len)
        - max(old_start, new_start)
    )
    # Fill the hole; everything buffered drains in order.
    anchor = min(old_start, new_start)
    prefix = bytes([0xCC]) * anchor
    delivered = _collect(reassembler.on_segment(1, prefix))

    new_wins = NOVAK_STURGES[policy](old_start, new_start)
    union_end = max(old_start + old_len, new_start + new_len)
    expected = bytearray(prefix)
    for position in range(anchor, union_end):
        in_old = old_start <= position < old_start + old_len
        in_new = new_start <= position < new_start + new_len
        if in_old and in_new:
            expected.append(0xBB if new_wins else 0xAA)
        elif in_old:
            expected.append(0xAA)
        else:
            expected.append(0xBB)
    assert delivered == bytes(expected)


def test_matrix_oracle_agrees_with_implementation():
    """The implementation's decision function IS the published matrix."""
    for policy, oracle in NOVAK_STURGES.items():
        for old_start in range(0, 4):
            for new_start in range(0, 4):
                assert ReassemblyPolicy.new_segment_wins(
                    policy, old_start, new_start
                ) == oracle(old_start, new_start), (policy, old_start, new_start)


# ----------------------------------------------------------------------
# Whole schedules against a brute-force per-offset byte map
# ----------------------------------------------------------------------
class _ByteMap:
    """The reassembler restated as one table entry per stream offset.

    ``buffered`` maps each waiting offset to its byte; a buffered
    *interval* is a maximal run of consecutive waiting offsets, found by
    scanning the table, never stored.  An in-order segment is released
    at once and swallows whatever it covers; an out-of-order one keeps,
    per overlapped run, the copy the Novak–Sturges matrix picks (by the
    run's and the segment's start); FAST mode under hole pressure jumps
    to the first run and releases it.
    """

    def __init__(self, mode, policy, hole_bytes, hole_segments):
        self.mode = mode
        self.policy = policy
        self.hole_bytes = hole_bytes
        self.hole_segments = hole_segments
        self.next = 0
        self.buffered = {}
        self.delivered_bytes = 0
        self.duplicate_bytes = 0

    def runs(self):
        runs = []
        for position in sorted(self.buffered):
            if runs and runs[-1][1] == position:
                runs[-1][1] += 1
            else:
                runs.append([position, position + 1])
        return runs

    def _take(self, start, end):
        return bytes(self.buffered.pop(position) for position in range(start, end))

    def segment(self, offset, data):
        """Feed one segment; return the released ``(offset, bytes)`` or None."""
        end = offset + len(data)
        if end <= self.next:
            self.duplicate_bytes += len(data)
            return None
        if offset < self.next:
            self.duplicate_bytes += self.next - offset
            data = data[self.next - offset:]
            offset = self.next
        if offset == self.next:
            released = bytearray(data)
            self.next = end
            for start, stop in self.runs():
                if start > self.next:
                    break
                covered = min(stop, self.next) - start
                self.duplicate_bytes += covered
                self._take(start, start + covered)
                released += self._take(self.next, stop)
                self.next = max(self.next, stop)
            self.delivered_bytes += len(released)
            return offset, bytes(released)
        data = bytearray(data)
        for start, stop in self.runs():
            low, high = max(start, offset), min(stop, end)
            if low >= high:
                continue
            self.duplicate_bytes += high - low
            if not NOVAK_STURGES[self.policy](start, offset):
                data[low - offset:high - offset] = bytes(
                    self.buffered[position] for position in range(low, high)
                )
        for position in range(offset, end):
            self.buffered[position] = data[position - offset]
        runs = self.runs()
        if self.mode == SCAP_TCP_FAST and (
            len(self.buffered) > self.hole_bytes or len(runs) > self.hole_segments
        ):
            return self._skip(runs[0])
        return None

    def _skip(self, run):
        start, stop = run
        self.next = stop
        released = self._take(start, stop)
        self.delivered_bytes += len(released)
        return start, released

    def flush(self):
        """Release (FAST) or drop (STRICT) everything still waiting."""
        if self.mode == SCAP_TCP_STRICT:
            self.buffered.clear()
            return []
        return [self._skip(run) for run in self.runs()]


@st.composite
def whole_schedule(draw):
    """Segments of a short stream: any offset, 1-byte ones likely, and
    every copy carrying its own random bytes (so a retransmit that is
    partly old, or overlaps buffered data, conflicts)."""
    length = draw(st.integers(1, 40))
    segments = []
    for _ in range(draw(st.integers(1, 14))):
        offset = draw(st.integers(0, length - 1))
        size = draw(st.one_of(st.just(1), st.integers(1, min(10, length - offset))))
        segments.append((offset, draw(st.binary(min_size=size, max_size=size))))
    return segments


@pytest.mark.parametrize("mode", [SCAP_TCP_STRICT, SCAP_TCP_FAST])
@pytest.mark.parametrize("policy", ALL_POLICIES)
@settings(max_examples=40, deadline=None)
@given(
    segments=whole_schedule(),
    isn=st.one_of(wrapping_isn, st.integers(0, 2**32 - 1)),
    hole_bytes=st.integers(1, 24),
    hole_segments=st.integers(1, 3),
)
def test_whole_schedule_matches_the_byte_map(mode, policy, segments, isn, hole_bytes, hole_segments):
    reassembler = TCPDirectionReassembler(
        mode, policy=policy, fast_hole_bytes=hole_bytes, fast_hole_segments=hole_segments
    )
    reassembler.set_isn(isn)
    oracle = _ByteMap(mode, policy, hole_bytes, hole_segments)
    for offset, data in segments:
        pieces = reassembler.on_segment(_wire_seq(isn, offset), data)
        expected = oracle.segment(offset, data)
        released = _collect(pieces)
        assert reassembler.next_offset == oracle.next
        if expected is None:
            assert pieces == []
        else:
            assert (reassembler.next_offset - len(released), released) == expected
            assert [piece.follows_hole for piece in pieces[1:]] == [False] * (len(pieces) - 1)
        assert reassembler.buffered_bytes == len(oracle.buffered)
        assert reassembler.counters.delivered_bytes == oracle.delivered_bytes
        assert reassembler.counters.duplicate_bytes == oracle.duplicate_bytes
    # flush(): one run per skipped hole, each starting with a flagged piece.
    flushed = []
    for piece in reassembler.flush():
        if piece.follows_hole or not flushed:
            flushed.append(b"")
        flushed[-1] += piece.data
    expected_runs = oracle.flush()
    assert flushed == [data for _, data in expected_runs]
    if expected_runs:
        assert reassembler.next_offset == expected_runs[-1][0] + len(expected_runs[-1][1])
    assert reassembler.buffered_bytes == 0
    assert reassembler.counters.delivered_bytes == oracle.delivered_bytes
    assert reassembler.counters.duplicate_bytes == oracle.duplicate_bytes


@pytest.mark.parametrize("policy,expected", [
    (ReassemblyPolicy.FIRST, b"ABBBA"),
    (ReassemblyPolicy.WINDOWS, b"ABBBA"),
    (ReassemblyPolicy.SOLARIS, b"ABBBA"),
    (ReassemblyPolicy.LAST, b"AXXXA"),
    (ReassemblyPolicy.BSD, b"ABBBA"),   # equal starts: old wins under BSD
    (ReassemblyPolicy.LINUX, b"AXXXA"),  # ... but the new copy wins on Linux
])
def test_canonical_midstream_retransmission(policy, expected):
    """The classic one-byte-in overlap example, pinned per policy."""
    reassembler = TCPDirectionReassembler(SCAP_TCP_STRICT, policy=policy)
    reassembler.set_isn(0)
    reassembler.on_segment(2, b"BBB")      # offsets 1-3 buffered
    reassembler.on_segment(2, b"XXX")      # conflicting retransmission
    delivered = _collect(reassembler.on_segment(1, b"A"))
    delivered += _collect(reassembler.on_segment(5, b"A"))
    assert delivered == expected
