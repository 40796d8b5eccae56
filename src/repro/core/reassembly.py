"""TCP stream reassembly (§2.3, §5.2).

One :class:`TCPDirectionReassembler` tracks a single direction of a TCP
connection.  It normalizes the segment stream — duplicates dropped,
out-of-order segments buffered, overlapping retransmissions resolved by
the stream's target-based *policy* — and emits bytes in stream order.

Two modes, as in the paper:

* ``SCAP_TCP_STRICT`` — bytes are only released in-sequence; holes
  (lost segments) stall delivery until they are filled, and data after
  an unfilled hole is delivered only at stream end, flagged.
* ``SCAP_TCP_FAST`` — best-effort: the engine follows strict semantics
  (retransmissions, reordering, overlaps) while it can, but when the
  out-of-order buffer exceeds a bound it *skips* the hole, delivers
  what it has, and flags the chunk (``had_hole``) instead of waiting —
  the property that makes Scap resilient to packet loss under overload.

Sequence numbers are converted to absolute stream offsets on entry
(wrap-safe via :func:`~repro.netstack.tcp.seq_diff`), so all interval
arithmetic below is plain integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..netstack.tcp import SEQ_MOD, seq_add
from ..observability import (
    HOOK_HOLE_SKIPPED,
    HOOK_OVERLAP_RESOLVED,
    NULL_OBSERVABILITY,
    Observability,
)
from .constants import SCAP_TCP_FAST, SCAP_TCP_STRICT, ReassemblyPolicy

__all__ = [
    "DeliveredData",
    "ReassemblyCounters",
    "ReassemblyInstruments",
    "TCPDirectionReassembler",
]


@dataclass
class DeliveredData:
    """In-order bytes released by the reassembler.

    ``follows_hole`` marks data delivered immediately after a skipped
    hole (FAST mode), so the chunk it lands in can be flagged.
    """

    data: bytes
    follows_hole: bool = False


@dataclass
class ReassemblyCounters:
    """Normalization statistics for one direction."""

    segments: int = 0
    delivered_bytes: int = 0
    duplicate_bytes: int = 0
    conflicting_bytes: int = 0  # overlap bytes that differed between copies
    out_of_order_segments: int = 0
    holes_skipped: int = 0
    stalled_bytes_dropped: int = 0  # strict mode: bytes after a hole at EOF


@dataclass
class _Interval:
    start: int
    data: bytearray

    @property
    def end(self) -> int:
        return self.start + len(self.data)


class ReassemblyInstruments:
    """One registry's reassembly metrics, resolved once and shared.

    Building it registers the three ``scap_reassembly_*`` families, so
    whoever owns the reassemblers builds it with the first of them (a
    capture without TCP then exports none of the families) and hands the
    same object to every later one: constructing a reassembler costs no
    registry call.
    """

    __slots__ = ("obs", "overlap_new", "overlap_existing", "holes", "ooo_depth")

    def __init__(self, observability: Observability):
        self.obs = observability
        registry = observability.registry
        overlaps = registry.counter(
            "scap_reassembly_overlap_decisions_total",
            "overlapping-retransmission resolutions, by which copy won",
            labels=("winner",),
        )
        # Pre-resolved winner children (registry contract: no .labels()
        # lookups on the hot path).
        self.overlap_new = overlaps.labels("new")
        self.overlap_existing = overlaps.labels("existing")
        self.holes = registry.counter(
            "scap_reassembly_holes_skipped_total",
            "holes skipped by FAST-mode delivery",
        )
        self.ooo_depth = registry.histogram(
            "scap_reassembly_ooo_depth",
            "out-of-order buffer depth (intervals) after each insert",
            bounds=(1, 2, 4, 8, 16, 32, 64, 128),
        )


#: What a reassembler built outside a capture records into: nothing.
_NULL_INSTRUMENTS = ReassemblyInstruments(NULL_OBSERVABILITY)


class TCPDirectionReassembler:
    """Reassembles one direction of a TCP stream."""

    def __init__(
        self,
        mode: int = SCAP_TCP_FAST,
        policy: str = ReassemblyPolicy.LINUX,
        fast_hole_bytes: int = 65536,
        fast_hole_segments: int = 64,
        instruments: Optional[ReassemblyInstruments] = None,
        sanitizers: Optional[object] = None,
        stream_label: Optional[str] = None,
    ):
        if mode not in (SCAP_TCP_STRICT, SCAP_TCP_FAST):
            raise ValueError(f"unknown reassembly mode: {mode}")
        self._san = sanitizers
        self.mode = mode
        self.policy = ReassemblyPolicy.validate(policy)
        self._fast_hole_bytes = fast_hole_bytes
        self._fast_hole_segments = fast_hole_segments
        #: Wire sequence number of the next expected byte (None before SYN).
        self.expected_seq: Optional[int] = None
        #: Stream offset of the next in-order byte to be delivered.
        self.next_offset = 0
        self._intervals: List[_Interval] = []  # sorted, non-overlapping OOO data
        self._buffered_bytes = 0
        self.counters = ReassemblyCounters()
        self.mid_stream = False
        self._instruments = instruments or _NULL_INSTRUMENTS
        self._obs = self._instruments.obs
        #: The stream's directional five-tuple string, attached to trace
        #: events so the flight recorder can attribute them (None for a
        #: reassembler constructed outside a stream context).
        self._stream_label = stream_label
        self._now = 0.0  # simulated time injected per on_segment/flush call

    # ------------------------------------------------------------------
    def set_isn(self, isn: int) -> None:
        """Anchor the stream at SYN: first data byte is ``isn + 1``.

        Only while the direction has delivered nothing and buffers
        nothing: a SYN duplicated or reordered behind data must not
        move a stream that bytes were already placed in.
        """
        if not self.next_offset and not self._buffered_bytes:
            self.expected_seq = seq_add(isn, 1)

    @property
    def anchored(self) -> bool:
        return self.expected_seq is not None

    @property
    def buffered_bytes(self) -> int:
        return self._buffered_bytes

    # ------------------------------------------------------------------
    def on_segment(self, seq: int, payload: bytes, now: float = 0.0) -> List[DeliveredData]:
        """Feed one data segment; return any bytes released in order.

        ``now`` is the simulated arrival time, used only to timestamp
        trace events when observability is enabled.
        """
        if not payload:
            return []
        self._now = now
        counters = self.counters
        counters.segments += 1
        expected_seq = self.expected_seq
        if expected_seq is None:
            # Mid-stream pickup (no SYN observed): anchor here.
            expected_seq = self.expected_seq = seq
            self.next_offset = 0
            self.mid_stream = True
        expected = self.next_offset
        size = len(payload)
        # seq_diff(seq, expected_seq), inlined; pinned by test_inlined_model.py.
        offset = expected + ((seq - expected_seq + 2**31) % SEQ_MOD) - 2**31
        end = offset + size

        if end <= expected:
            # Entirely old: pure retransmission of delivered data.
            counters.duplicate_bytes += size
            return []
        if offset < expected:
            # Partially old: the delivered prefix cannot be rewritten.
            trim = expected - offset
            counters.duplicate_bytes += trim
            payload = payload[trim:]
            offset = expected

        if offset == expected:
            # In order: released at once, [expected, end) in one piece.
            if self._san is not None:
                self._san.reassembly.on_deliver(self, expected, end)
            self.next_offset = end
            self.expected_seq = (expected_seq + end - expected) % SEQ_MOD
            counters.delivered_bytes += end - expected
            delivered = [DeliveredData(payload)]
            if self._intervals:
                delivered.extend(self._drain_contiguous())
            return delivered
        counters.out_of_order_segments += 1
        self._insert_interval(offset, payload)
        if self.mode == SCAP_TCP_FAST and self._hole_pressure():
            return self._skip_hole()
        return []

    def flush(
        self, skip_holes: Optional[bool] = None, now: float = 0.0
    ) -> List[DeliveredData]:
        """Release remaining data at stream end.

        FAST mode (or ``skip_holes=True``) drains everything, flagging
        post-hole data; STRICT drops non-contiguous remainders and
        counts them in ``stalled_bytes_dropped``.
        """
        self._now = now
        if skip_holes is None:
            skip_holes = self.mode == SCAP_TCP_FAST
        delivered: List[DeliveredData] = []
        if skip_holes:
            while self._intervals:
                delivered.extend(self._skip_hole())
        else:
            self.counters.stalled_bytes_dropped += self._buffered_bytes
            self._intervals.clear()
            self._buffered_bytes = 0
        return delivered

    # ------------------------------------------------------------------
    def _drain_contiguous(self) -> List[DeliveredData]:
        delivered: List[DeliveredData] = []
        while self._intervals and self._intervals[0].start <= self.next_offset:
            interval = self._intervals.pop(0)
            self._buffered_bytes -= len(interval.data)
            start = self.next_offset
            skip = start - interval.start
            if skip >= len(interval.data):
                self.counters.duplicate_bytes += len(interval.data)
                continue
            if skip:
                self.counters.duplicate_bytes += skip
            data = bytes(interval.data[skip:])
            if self._san is not None:
                self._san.reassembly.on_deliver(self, start, start + len(data))
            self.next_offset = start + len(data)
            self.expected_seq = seq_add(self.expected_seq, len(data))
            self.counters.delivered_bytes += len(data)
            delivered.append(DeliveredData(data))
        return delivered

    def _hole_pressure(self) -> bool:
        return (
            self._buffered_bytes > self._fast_hole_bytes
            or len(self._intervals) > self._fast_hole_segments
        )

    def _skip_hole(self) -> List[DeliveredData]:
        """Advance past the first hole and release what follows it."""
        if not self._intervals:
            return []
        first = self._intervals[0]
        assert first.start > self.next_offset
        self.counters.holes_skipped += 1
        if self._obs.enabled:
            self._instruments.holes.inc()
            self._obs.trace.emit(
                self._now,
                HOOK_HOLE_SKIPPED,
                five_tuple=self._stream_label,
                hole_bytes=first.start - self.next_offset,
                resume_offset=first.start,
            )
        self.expected_seq = seq_add(self.expected_seq, first.start - self.next_offset)
        self.next_offset = first.start
        delivered = self._drain_contiguous()
        if delivered:
            delivered[0].follows_hole = True
        return delivered

    # ------------------------------------------------------------------
    def _insert_interval(self, start: int, payload: bytes) -> None:
        """Insert out-of-order data, resolving overlaps per policy."""
        new = _Interval(start, bytearray(payload))
        merged: List[_Interval] = []
        for existing in self._intervals:
            if existing.end <= new.start or existing.start >= new.end:
                merged.append(existing)
                continue
            # Overlap: compare the conflicting region, keep per policy.
            overlap_start = max(existing.start, new.start)
            overlap_end = min(existing.end, new.end)
            exist_slice = existing.data[
                overlap_start - existing.start : overlap_end - existing.start
            ]
            new_slice = new.data[overlap_start - new.start : overlap_end - new.start]
            if exist_slice != new_slice:
                self.counters.conflicting_bytes += overlap_end - overlap_start
            new_wins = ReassemblyPolicy.new_segment_wins(
                self.policy, existing.start, new.start
            )
            if self._obs.enabled:
                winner = "new" if new_wins else "existing"
                instruments = self._instruments
                winner_counter = (
                    instruments.overlap_new if new_wins else instruments.overlap_existing
                )
                winner_counter.inc()
                self._obs.trace.emit(
                    self._now,
                    HOOK_OVERLAP_RESOLVED,
                    five_tuple=self._stream_label,
                    winner=winner,
                    policy=self.policy,
                    start=overlap_start,
                    length=overlap_end - overlap_start,
                    conflicting=exist_slice != new_slice,
                )
            if not new_wins:
                # Existing bytes win: copy them into the new interval.
                new.data[overlap_start - new.start : overlap_end - new.start] = exist_slice
            self.counters.duplicate_bytes += overlap_end - overlap_start
            self._buffered_bytes -= len(existing.data)
            # Fold non-overlapping leftovers of the existing interval
            # into the new one so intervals stay non-overlapping.
            if existing.start < new.start:
                prefix = existing.data[: new.start - existing.start]
                new.data = prefix + new.data
                new.start = existing.start
            if existing.end > new.end:
                suffix = existing.data[new.end - existing.start :]
                new.data = new.data + suffix
        merged.append(new)
        merged.sort(key=lambda interval: interval.start)
        # Coalesce intervals that became contiguous.
        coalesced: List[_Interval] = []
        for interval in merged:
            if coalesced and coalesced[-1].end == interval.start:
                coalesced[-1].data += interval.data
            else:
                coalesced.append(interval)
        self._intervals = coalesced
        self._buffered_bytes = sum(len(interval.data) for interval in self._intervals)
        if self._obs.enabled:
            self._instruments.ooo_depth.observe(len(self._intervals))
        if self._san is not None:
            self._san.reassembly.on_intervals(
                self, self._intervals, self.next_offset
            )
