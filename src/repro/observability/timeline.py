"""The stream flight recorder: per-stream lifecycle timelines.

The trace ring records pipeline decisions in time order; this module
folds it back into *per-stream* stories, so "why did this stream lose
data?" becomes a one-command answer (``repro-scap timeline``).  Every
hook that concerns a specific stream carries its directional
five-tuple (see :mod:`~repro.observability.tracing`); the
reconstructor canonicalizes both directions onto one connection key
and orders each connection's events into a lifecycle:

    created -> [ppl drops, holes, overlaps, memory exhaustion]
            -> cutoff -> fdir install/evict/timeout -> terminated

with byte counters at each transition (captured bytes at the cutoff,
seq-recovered totals at termination).  Reconstruction is offline and
read-only — it never touches the capture hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .tracing import (
    HOOK_CUTOFF_REACHED,
    HOOK_EVENT_DROPPED,
    HOOK_FDIR_EVICT,
    HOOK_FDIR_INSTALL,
    HOOK_FDIR_TIMEOUT,
    HOOK_HOLE_SKIPPED,
    HOOK_MEMORY_EXHAUSTED,
    HOOK_OVERLAP_RESOLVED,
    HOOK_PPL_DROP,
    HOOK_STREAM_CREATED,
    HOOK_STREAM_TERMINATED,
    TraceEvent,
    canonical_tuple_str,
)

__all__ = ["StreamTimeline", "TimelineReconstructor", "canonical_tuple_str"]


@dataclass
class StreamTimeline:
    """One connection's reconstructed lifecycle.

    ``events`` is every trace event that named this connection, in
    time order; the summary fields below are derived from them during
    reconstruction.  ``recovered_bytes`` is the seq-recovered flow size
    reported at termination (§5.5: FIN/RST sequence numbers recover
    the length of data the NIC dropped after the cutoff), which is why
    it can exceed ``captured_bytes``.
    """

    key: str
    events: List[TraceEvent] = field(default_factory=list)
    created_at: Optional[float] = None
    cutoff_at: Optional[float] = None
    terminated_at: Optional[float] = None
    status: Optional[str] = None
    captured_bytes: int = 0
    recovered_bytes: int = 0
    ppl_drops: int = 0
    ppl_dropped_bytes: int = 0
    memory_drops: int = 0
    events_dropped: int = 0
    fdir_installs: int = 0
    fdir_evictions: int = 0
    fdir_timeouts: int = 0

    @property
    def complete(self) -> bool:
        """True when both creation and termination were retained."""
        return self.created_at is not None and self.terminated_at is not None

    def lost_data(self) -> bool:
        """Did this stream lose payload anywhere in the pipeline?"""
        return bool(self.ppl_drops or self.memory_drops or self.events_dropped)

    def summary(self) -> str:
        """One line: identity, lifetime, status, loss counters."""
        born = f"{self.created_at:.6f}" if self.created_at is not None else "?"
        died = f"{self.terminated_at:.6f}" if self.terminated_at is not None else "?"
        parts = [
            f"{self.key}",
            f"[{born}, {died}]",
            f"status={self.status or 'active'}",
            f"captured={self.captured_bytes}B",
        ]
        if self.recovered_bytes > self.captured_bytes:
            parts.append(f"recovered={self.recovered_bytes}B")
        if self.cutoff_at is not None:
            parts.append(f"cutoff@{self.cutoff_at:.6f}")
        if self.fdir_installs:
            parts.append(f"fdir={self.fdir_installs}")
        if self.lost_data():
            parts.append(
                f"lost(ppl={self.ppl_drops},mem={self.memory_drops},"
                f"evq={self.events_dropped})"
            )
        return "  ".join(parts)

    def format(self) -> str:
        """The full lifecycle: the summary line plus each transition."""
        lines = [self.summary()]
        for event in self.events:
            lines.append("  " + event.format())
        return "\n".join(lines)


#: Hooks whose events belong to a stream timeline when they carry a
#: ``five_tuple`` field.
_STREAM_HOOKS = frozenset(
    {
        HOOK_STREAM_CREATED,
        HOOK_STREAM_TERMINATED,
        HOOK_CUTOFF_REACHED,
        HOOK_FDIR_INSTALL,
        HOOK_FDIR_EVICT,
        HOOK_FDIR_TIMEOUT,
        HOOK_PPL_DROP,
        HOOK_MEMORY_EXHAUSTED,
        HOOK_EVENT_DROPPED,
        HOOK_HOLE_SKIPPED,
        HOOK_OVERLAP_RESOLVED,
    }
)


class TimelineReconstructor:
    """Folds a trace ring into per-stream :class:`StreamTimeline` objects.

    The source is any iterable of :class:`TraceEvent` records (a
    :class:`~repro.observability.tracing.TraceBuffer` iterates in time
    order).  Events without a ``five_tuple`` field cannot be attributed
    and are counted in ``unattributed``; with the ring sized below the
    run's event volume, early events may have been overwritten — the
    reconstructor works with whatever window was retained.
    """

    def __init__(self, events: Iterable[TraceEvent]):
        self._timelines: Dict[str, StreamTimeline] = {}
        self.unattributed = 0
        for event in events:
            self._fold(event)

    # ------------------------------------------------------------------
    def _fold(self, event: TraceEvent) -> None:
        if event.hook not in _STREAM_HOOKS:
            return
        label = event.fields.get("five_tuple")
        if not label or not isinstance(label, str):
            self.unattributed += 1
            return
        key = canonical_tuple_str(label)
        timeline = self._timelines.get(key)
        if timeline is None:
            timeline = StreamTimeline(key=key)
            self._timelines[key] = timeline
        timeline.events.append(event)
        hook = event.hook
        fields = event.fields
        if hook == HOOK_STREAM_CREATED:
            if timeline.created_at is None:
                timeline.created_at = event.time
        elif hook == HOOK_STREAM_TERMINATED:
            timeline.terminated_at = event.time
            status = fields.get("status")
            if isinstance(status, str):
                timeline.status = status
            timeline.captured_bytes = max(
                timeline.captured_bytes, int(fields.get("captured_bytes", 0) or 0)
            )
            timeline.recovered_bytes = max(
                timeline.recovered_bytes, int(fields.get("bytes", 0) or 0)
            )
        elif hook == HOOK_CUTOFF_REACHED:
            if timeline.cutoff_at is None:
                timeline.cutoff_at = event.time
            timeline.status = timeline.status or "cutoff"
            timeline.captured_bytes = max(
                timeline.captured_bytes, int(fields.get("captured_bytes", 0) or 0)
            )
        elif hook == HOOK_PPL_DROP:
            timeline.ppl_drops += 1
            timeline.ppl_dropped_bytes += int(fields.get("bytes", 0) or 0)
        elif hook == HOOK_MEMORY_EXHAUSTED:
            timeline.memory_drops += 1
        elif hook == HOOK_EVENT_DROPPED:
            timeline.events_dropped += 1
        elif hook == HOOK_FDIR_INSTALL:
            timeline.fdir_installs += 1
        elif hook == HOOK_FDIR_EVICT:
            timeline.fdir_evictions += 1
        elif hook == HOOK_FDIR_TIMEOUT:
            timeline.fdir_timeouts += 1

    # ------------------------------------------------------------------
    def timelines(self) -> List[StreamTimeline]:
        """Every reconstructed timeline, ordered by creation time."""
        return sorted(
            self._timelines.values(),
            key=lambda timeline: (
                timeline.created_at
                if timeline.created_at is not None
                else (timeline.events[0].time if timeline.events else 0.0)
            ),
        )

    def __len__(self) -> int:
        return len(self._timelines)

    def for_stream(self, five_tuple) -> Optional[StreamTimeline]:
        """The timeline of one connection (either direction), or None."""
        return self._timelines.get(canonical_tuple_str(five_tuple))
