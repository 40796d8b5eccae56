"""Trace-event ring buffer with named hook points.

Metrics answer "how many"; the trace answers "what happened, in
order".  Hot-path components emit :class:`TraceEvent` records at the
hook points below; the buffer is a fixed-capacity ring, so a long run
keeps only the most recent window (and counts what it overwrote).

Timestamps are always the *simulated* clock, injected by the caller —
the tracer itself never reads wall-clock time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

__all__ = [
    "TraceEvent",
    "TraceBuffer",
    "canonical_tuple_str",
    "HOOK_PPL_DROP",
    "HOOK_MEMORY_EXHAUSTED",
    "HOOK_CUTOFF_REACHED",
    "HOOK_FDIR_INSTALL",
    "HOOK_FDIR_EVICT",
    "HOOK_FDIR_TIMEOUT",
    "HOOK_STREAM_CREATED",
    "HOOK_STREAM_TERMINATED",
    "HOOK_HOLE_SKIPPED",
    "HOOK_OVERLAP_RESOLVED",
    "HOOK_EVENT_DROPPED",
    "HOOK_FAULT_INJECTED",
    "HOOK_SPAN",
    "ALL_HOOKS",
]

# Named hook points, in pipeline order.
HOOK_STREAM_CREATED = "stream_created"
HOOK_STREAM_TERMINATED = "stream_terminated"
HOOK_PPL_DROP = "ppl_drop"
HOOK_MEMORY_EXHAUSTED = "memory_exhausted"
HOOK_CUTOFF_REACHED = "cutoff_reached"
HOOK_FDIR_INSTALL = "fdir_install"
HOOK_FDIR_EVICT = "fdir_evict"
HOOK_FDIR_TIMEOUT = "fdir_timeout"
HOOK_HOLE_SKIPPED = "hole_skipped"
HOOK_OVERLAP_RESOLVED = "overlap_resolved"
HOOK_EVENT_DROPPED = "event_dropped"
HOOK_FAULT_INJECTED = "fault_injected"
# Causal request spans (see repro.observability.spans).
HOOK_SPAN = "span"

ALL_HOOKS = (
    HOOK_STREAM_CREATED,
    HOOK_STREAM_TERMINATED,
    HOOK_PPL_DROP,
    HOOK_MEMORY_EXHAUSTED,
    HOOK_CUTOFF_REACHED,
    HOOK_FDIR_INSTALL,
    HOOK_FDIR_EVICT,
    HOOK_FDIR_TIMEOUT,
    HOOK_HOLE_SKIPPED,
    HOOK_OVERLAP_RESOLVED,
    HOOK_EVENT_DROPPED,
    HOOK_FAULT_INJECTED,
    HOOK_SPAN,
)


@dataclass
class TraceEvent:
    """One traced decision: when (simulated), where, and the details."""

    time: float
    hook: str
    fields: Dict[str, object] = field(default_factory=dict)

    def format(self) -> str:
        """One human-readable line for the CLI trace dump."""
        details = " ".join(f"{key}={value}" for key, value in self.fields.items())
        return f"{self.time:12.6f}  {self.hook:<18} {details}"


def canonical_tuple_str(five_tuple) -> str:
    """One direction-independent key for a five-tuple (or its string).

    Both directions of a connection map to the same key: the
    lexicographically smaller endpoint is printed first, mirroring
    :meth:`~repro.netstack.flows.FiveTuple.canonical`.
    """
    text = str(five_tuple)
    src, arrow, rest = text.partition(" > ")
    dst, _, proto = rest.rpartition("/")
    if not arrow or not dst or not proto:
        return text
    if dst < src:
        src, dst = dst, src
    return f"{src} > {dst}/{proto}"


class TraceBuffer:
    """Fixed-capacity ring of :class:`TraceEvent` records."""

    def __init__(self, capacity: int = 4096, enabled: bool = False):
        if capacity < 1:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self.enabled = enabled
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0
        self.overwritten = 0

    def emit(self, now: float, hook: str, **fields) -> None:
        """Record one event at simulated time ``now`` (no-op when disabled)."""
        if not self.enabled:
            return
        if len(self._events) == self.capacity:
            self.overwritten += 1
        self._events.append(TraceEvent(now, hook, fields))
        self.emitted += 1

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def events(self, hook: Optional[str] = None) -> List[TraceEvent]:
        """The retained events, optionally restricted to one hook."""
        if hook is None:
            return list(self._events)
        return [event for event in self._events if event.hook == hook]

    def by_hook(self, *hooks: str) -> List[TraceEvent]:
        """The retained events at any of the named hook points."""
        wanted = set(hooks)
        unknown = wanted - set(ALL_HOOKS)
        if unknown:
            raise ValueError(f"unknown hook(s): {sorted(unknown)}")
        return [event for event in self._events if event.hook in wanted]

    def clear(self) -> None:
        """Drop all retained events (counts are kept)."""
        self._events.clear()
