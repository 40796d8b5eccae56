"""Runtime invariant checkers ("sanitizers") for the capture pipeline.

Static analysis (``scapcheck``) proves structural properties; these
checkers watch the *dynamic* invariants the paper's correctness
arguments rest on, while the pipeline runs:

* **memory** — every byte charged to the stream-memory pool is
  eventually returned, and the pool balances to zero at teardown
  (kernel-side accounting, §5.3);
* **reassembly** — each TCP direction delivers strictly advancing,
  non-overlapping stream ranges (normalization, §5.2);
* **fdir** — the Flow Director table state machine stays legal:
  consistent counts, capacity respected, minimum-timeout eviction, and
  exact timeout doubling on re-install (§5.5);
* **ppl** — the Prioritized Packet Loss watermark bands stay monotone
  in priority and every drop decision is consistent with its band (§2.2).

Everything is **off by default**; enable it with ``SCAP_SANITIZE=1``
(every :class:`~repro.core.runtime.ScapRuntime` then builds a
:class:`SanitizerContext`) or pass a context explicitly.  A failed
invariant raises :class:`InvariantViolation` with the tail of the
observability trace ring attached, so the violation arrives with the
pipeline decisions that led to it.
"""

from __future__ import annotations

import os
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SANITIZE_ENV",
    "TRACE_TAIL_ENV",
    "InvariantViolation",
    "SanitizerContext",
    "MemoryAccountingChecker",
    "ReassemblyOrderChecker",
    "FdirStateChecker",
    "PplBandChecker",
    "StoreAccountingChecker",
    "sanitize_enabled",
    "sanitizers_from_env",
]

#: Environment flag that turns the sanitizers on for every runtime.
SANITIZE_ENV = "SCAP_SANITIZE"
#: Environment override for how many trace events a violation attaches.
TRACE_TAIL_ENV = "SCAP_SANITIZE_TRACE_TAIL"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitize_enabled() -> bool:
    """True when ``SCAP_SANITIZE`` asks for always-on invariant checks."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in _TRUTHY


class InvariantViolation(AssertionError):
    """A runtime invariant of the capture pipeline was broken.

    Carries the invariant's name, structured ``details``, and
    ``trace_tail`` — the most recent events of the observability trace
    ring at the moment of failure (empty when tracing was off).
    Subclassing :class:`AssertionError` keeps the contract obvious:
    this is a bug in the pipeline (or a deliberately broken test
    harness), never an input error.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        details: Optional[Dict[str, Any]] = None,
        trace_tail: Sequence[Any] = (),
    ):
        self.invariant = invariant
        self.details = dict(details or {})
        self.trace_tail = tuple(trace_tail)
        parts = [f"[{invariant}] {message}"]
        if self.details:
            rendered = " ".join(f"{key}={value}" for key, value in self.details.items())
            parts.append(f"  details: {rendered}")
        if self.trace_tail:
            parts.append(f"  trace tail ({len(self.trace_tail)} events):")
            for event in self.trace_tail:
                formatted = event.format() if hasattr(event, "format") else str(event)
                parts.append(f"    {formatted}")
        super().__init__("\n".join(parts))


class SanitizerContext:
    """One run's sanitizers plus the observability link for trace tails.

    Components hold ``Optional[SanitizerContext]`` and call their
    checker behind an ``is not None`` test, so the disabled fast path
    costs a single comparison — the same engineering rule the
    observability layer follows.
    """

    def __init__(self, observability: Any = None, trace_tail: Optional[int] = None):
        self.obs = observability
        if trace_tail is None:
            try:
                trace_tail = int(os.environ.get(TRACE_TAIL_ENV, "16"))
            except ValueError:
                trace_tail = 16
        self.trace_tail = max(0, trace_tail)
        self.memory = MemoryAccountingChecker(self)
        self.reassembly = ReassemblyOrderChecker(self)
        self.fdir = FdirStateChecker(self)
        self.ppl = PplBandChecker(self)
        self.store = StoreAccountingChecker(self)
        self.violations_raised = 0

    def fail(self, invariant: str, message: str, **details: Any) -> None:
        """Raise :class:`InvariantViolation` with the trace-ring tail."""
        tail: Tuple[Any, ...] = ()
        trace = getattr(self.obs, "trace", None)
        if trace is not None and self.trace_tail:
            events = trace.events()
            tail = tuple(events[-self.trace_tail :])
        self.violations_raised += 1
        raise InvariantViolation(invariant, message, details=details, trace_tail=tail)


def sanitizers_from_env(observability: Any = None) -> Optional[SanitizerContext]:
    """A fresh context when ``SCAP_SANITIZE`` is set, else None."""
    if sanitize_enabled():
        return SanitizerContext(observability=observability)
    return None


# ----------------------------------------------------------------------
# Memory accounting
# ----------------------------------------------------------------------
class MemoryAccountingChecker:
    """Ledger over the stream-memory pool: stores minus releases.

    ``on_store``/``on_release`` mirror every pool charge and return;
    the outstanding balance can never go negative mid-run and must be
    exactly zero at teardown, or chunk bytes leaked (e.g. a kept chunk
    whose accounting was dropped on merge).
    """

    invariant = "memory-accounting"

    def __init__(self, context: SanitizerContext):
        self._context = context
        self.stored_total = 0
        self.released_total = 0

    @property
    def outstanding(self) -> int:
        return self.stored_total - self.released_total

    def on_store(self, nbytes: int) -> None:
        """A successful pool charge of ``nbytes``."""
        if nbytes < 0:
            self._context.fail(self.invariant, "negative store", nbytes=nbytes)
        self.stored_total += nbytes

    def on_release(self, nbytes: int, origin: str = "release") -> None:
        """``nbytes`` scheduled for return (or returned) to the pool."""
        if nbytes < 0:
            self._context.fail(
                self.invariant, "negative release", nbytes=nbytes, origin=origin
            )
        self.released_total += nbytes
        if self.released_total > self.stored_total:
            self._context.fail(
                self.invariant,
                "released more bytes than were ever stored",
                stored=self.stored_total,
                released=self.released_total,
                origin=origin,
            )

    def check_teardown(self, memory: Any = None) -> None:
        """At end of capture the ledger (and stream memory) must balance."""
        if self.outstanding != 0:
            self._context.fail(
                self.invariant,
                "stream-memory accounting did not balance to zero at teardown",
                stored=self.stored_total,
                released=self.released_total,
                outstanding=self.outstanding,
            )
        if memory is not None:
            memory.advance(float("inf"))
            if memory.used > 1e-9:
                self._context.fail(
                    self.invariant,
                    "memory pool still holds bytes after all releases drained",
                    pool_used=memory.used,
                )


# ----------------------------------------------------------------------
# Reassembly ordering
# ----------------------------------------------------------------------
class ReassemblyOrderChecker:
    """Per-direction delivery must advance strictly and never overlap."""

    invariant = "reassembly-order"

    def __init__(self, context: SanitizerContext):
        self._context = context
        self._last_end: "weakref.WeakKeyDictionary[Any, int]" = (
            weakref.WeakKeyDictionary()
        )

    def on_deliver(self, reassembler: Any, start: int, end: int) -> None:
        """One in-order range ``[start, end)`` released to the assembler."""
        if end <= start:
            self._context.fail(
                self.invariant,
                "delivered range is empty or reversed",
                start=start,
                end=end,
            )
        last_end = self._last_end.get(reassembler, 0)
        if start < last_end:
            self._context.fail(
                self.invariant,
                "delivered range regresses into already-delivered data",
                start=start,
                last_end=last_end,
            )
        self._last_end[reassembler] = end

    def on_intervals(self, reassembler: Any, intervals: Sequence[Any], expected: int) -> None:
        """The out-of-order buffer must stay sorted, disjoint, and
        strictly beyond the in-order delivery point."""
        previous_end: Optional[int] = None
        for interval in intervals:
            if interval.start <= expected:
                self._context.fail(
                    self.invariant,
                    "buffered interval does not lie beyond the delivery point",
                    interval_start=interval.start,
                    expected=expected,
                )
            if previous_end is not None and interval.start < previous_end:
                self._context.fail(
                    self.invariant,
                    "out-of-order buffer holds overlapping or unsorted intervals",
                    interval_start=interval.start,
                    previous_end=previous_end,
                )
            previous_end = interval.end


# ----------------------------------------------------------------------
# FDIR filter state machine
# ----------------------------------------------------------------------
class FdirStateChecker:
    """Install/evict/timeout legality for the Flow Director table."""

    invariant = "fdir-state"

    def __init__(self, context: SanitizerContext):
        self._context = context

    def on_table(self, table: Any) -> None:
        """After any mutation: counts consistent, capacity respected."""
        actual = sum(len(bucket) for bucket in table._by_tuple.values())
        if table._count != actual:
            self._context.fail(
                self.invariant,
                "filter count diverged from the table contents",
                count=table._count,
                actual=actual,
            )
        if not 0 <= table._count <= table.capacity:
            self._context.fail(
                self.invariant,
                "filter count escaped [0, capacity]",
                count=table._count,
                capacity=table.capacity,
            )

    def on_evict(self, victim: Any, table: Any) -> None:
        """Scap's policy evicts the filter with the smallest timeout."""
        smallest = min(
            (
                candidate.timeout_at
                for bucket in table._by_tuple.values()
                for candidate in bucket
            ),
            default=None,
        )
        if smallest is not None and victim.timeout_at > smallest:
            self._context.fail(
                self.invariant,
                "evicted a filter that was not the smallest-timeout one",
                victim_timeout=victim.timeout_at,
                smallest_timeout=smallest,
            )

    def on_install(
        self, key: Any, interval: float, previous: float, initial: float
    ) -> None:
        """First install uses the initial timeout; re-installs double it."""
        if previous <= 0:
            if interval != initial:
                self._context.fail(
                    self.invariant,
                    "first install must use the configured initial timeout",
                    key=str(key),
                    interval=interval,
                    initial=initial,
                )
        elif abs(interval - 2 * previous) > 1e-9 * max(1.0, abs(interval)):
            self._context.fail(
                self.invariant,
                "re-install must exactly double the timeout interval",
                key=str(key),
                interval=interval,
                previous=previous,
            )

    def on_timeout(self, nic_filter: Any, now: float) -> None:
        """A timeout removal must not fire before the filter's deadline."""
        if nic_filter.timeout_at > now:
            self._context.fail(
                self.invariant,
                "filter removed by timeout before its deadline",
                timeout_at=nic_filter.timeout_at,
                now=now,
            )


# ----------------------------------------------------------------------
# Stream-store writer accounting
# ----------------------------------------------------------------------
class StoreAccountingChecker:
    """Ledger over the store's writer: enqueues vs writes+drops.

    Every payload byte handed to the writer must end up either written
    into a segment file or counted as lost to a write error.
    ``on_enqueue``/``on_write``/``on_drop`` mirror the writer pipeline;
    the outstanding balance can never go negative mid-run and must be
    exactly zero at teardown (``StoreWriter.close``), or pending bytes
    silently vanished.
    """

    invariant = "store-accounting"

    def __init__(self, context: SanitizerContext):
        self._context = context
        self.enqueued_total = 0
        self.written_total = 0
        self.dropped_total = 0

    @property
    def outstanding(self) -> int:
        return self.enqueued_total - self.written_total - self.dropped_total

    def on_enqueue(self, nbytes: int) -> None:
        """``nbytes`` of payload handed to the writer."""
        if nbytes < 0:
            self._context.fail(self.invariant, "negative enqueue", nbytes=nbytes)
        self.enqueued_total += nbytes

    def on_write(self, nbytes: int) -> None:
        """``nbytes`` of payload appended to a segment file."""
        if nbytes < 0:
            self._context.fail(self.invariant, "negative write", nbytes=nbytes)
        self.written_total += nbytes
        self._check_balance("write")

    def on_drop(self, nbytes: int) -> None:
        """``nbytes`` of payload lost to a write error."""
        if nbytes < 0:
            self._context.fail(self.invariant, "negative drop", nbytes=nbytes)
        self.dropped_total += nbytes
        self._check_balance("drop")

    def _check_balance(self, origin: str) -> None:
        if self.outstanding < 0:
            self._context.fail(
                self.invariant,
                "wrote or dropped more bytes than were ever enqueued",
                enqueued=self.enqueued_total,
                written=self.written_total,
                dropped=self.dropped_total,
                origin=origin,
            )

    def check_teardown(self, writer: Any = None) -> None:
        """At writer close the ledger (and the write batches) must balance."""
        if self.outstanding != 0:
            self._context.fail(
                self.invariant,
                "store writer accounting did not balance to zero at teardown",
                enqueued=self.enqueued_total,
                written=self.written_total,
                dropped=self.dropped_total,
                outstanding=self.outstanding,
            )
        if writer is not None:
            if writer.queue_depth_bytes != 0:
                self._context.fail(
                    self.invariant,
                    "write batches still hold bytes after final drain",
                    queue_depth_bytes=writer.queue_depth_bytes,
                )
            if writer.outstanding_bytes != 0:
                self._context.fail(
                    self.invariant,
                    "writer's own enqueue/write/drop counters do not balance",
                    outstanding=writer.outstanding_bytes,
                )


# ----------------------------------------------------------------------
# PPL watermark bands
# ----------------------------------------------------------------------
class PplBandChecker:
    """Watermark bands monotone in priority; decisions consistent."""

    invariant = "ppl-bands"

    def __init__(self, context: SanitizerContext):
        self._context = context
        self._last_levels = 0

    def on_check(self, ppl: Any, fraction: float, priority: int, decision: Any) -> None:
        """Validate one admission decision against the band layout."""
        levels = ppl.priority_levels
        if levels < self._last_levels:
            self._context.fail(
                self.invariant,
                "priority levels shrank mid-run (bands must only grow)",
                levels=levels,
                previous=self._last_levels,
            )
        self._last_levels = levels
        previous_mark = ppl.base_threshold
        for level in range(levels):
            mark = ppl.watermark(level)
            if mark <= previous_mark:
                self._context.fail(
                    self.invariant,
                    "watermarks are not strictly increasing in priority",
                    level=level,
                    watermark=mark,
                    previous=previous_mark,
                )
            previous_mark = mark
        top = ppl.watermark(levels - 1)
        if abs(top - 1.0) > 1e-9:
            self._context.fail(
                self.invariant,
                "the highest priority's watermark must sit at 1.0",
                watermark=top,
            )
        mark = ppl.watermark(priority)
        if decision.drop and decision.reason == "watermark" and fraction <= mark:
            self._context.fail(
                self.invariant,
                "watermark drop below the priority's own watermark",
                fraction=fraction,
                watermark=mark,
                priority=priority,
            )
        if not decision.drop and fraction > mark:
            self._context.fail(
                self.invariant,
                "packet admitted above its priority's watermark",
                fraction=fraction,
                watermark=mark,
                priority=priority,
            )
