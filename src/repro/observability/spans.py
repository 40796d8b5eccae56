"""Causal request spans recorded over the trace-event ring.

A span is one timed hop of a request — the client call, the daemon
dispatch, the command handler, a store query — linked into a tree by
``trace_id``/``parent_id``.  Finished spans are emitted as ordinary
:data:`HOOK_SPAN` trace events, so they share the ring's capacity
accounting, survive in the same export paths, and cost nothing when
tracing is disabled.

Identifiers are deterministic: each :class:`SpanRecorder` stamps its
ids with a caller-chosen prefix (the client picks a per-connection
prefix, the daemon uses ``d``) followed by a monotonically increasing
counter, so ids are unique within a trace even when client and daemon
live in different processes, and tests see stable values.

Clocks are injected.  Library-mode recorders run on the simulated
clock; the daemon passes ``time.monotonic``.  A span's ``start`` and
``duration`` are therefore only comparable *within* one recorder,
which is why the tree reconstructor attributes time structurally
(parent links) rather than by aligning timestamps across hops.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .tracing import HOOK_SPAN, TraceBuffer, TraceEvent

__all__ = [
    "Span",
    "SpanRecord",
    "SpanRecorder",
    "SpanNode",
    "SpanTreeReconstructor",
    "span_records",
]

# Span kinds, loosely following the tracing vernacular.
KIND_CLIENT = "client"
KIND_SERVER = "server"
KIND_INTERNAL = "internal"
KIND_STORE = "store"


@dataclass
class SpanRecord:
    """One finished span, as retained in the ring or shipped on the wire."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    kind: str
    start: float
    duration: float
    status: str = "ok"
    fields: Dict[str, object] = field(default_factory=dict)

    def as_fields(self) -> Dict[str, object]:
        """Flatten to the dict carried by a trace event (and wire JSON)."""
        out: Dict[str, object] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
        }
        out.update(self.fields)
        return out

    @classmethod
    def from_fields(cls, fields: Dict[str, object]) -> "SpanRecord":
        """Rebuild a record from trace-event fields or wire JSON."""
        known = (
            "trace_id", "span_id", "parent_id", "name", "kind",
            "start", "duration", "status",
        )
        extra = {
            key: value for key, value in fields.items() if key not in known
        }
        return cls(
            trace_id=str(fields["trace_id"]),
            span_id=str(fields["span_id"]),
            parent_id=(
                None
                if fields.get("parent_id") is None
                else str(fields["parent_id"])
            ),
            name=str(fields.get("name", "?")),
            kind=str(fields.get("kind", KIND_INTERNAL)),
            start=float(fields.get("start", 0.0)),
            duration=float(fields.get("duration", 0.0)),
            status=str(fields.get("status", "ok")),
            fields=extra,
        )


class Span:
    """An open span handle; :meth:`end` records it."""

    __slots__ = (
        "_recorder", "trace_id", "span_id", "parent_id",
        "name", "kind", "start", "fields", "_ended",
    )

    def __init__(self, recorder, trace_id, span_id, parent_id,
                 name, kind, start, fields):
        self._recorder = recorder
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.fields = fields
        self._ended = False

    def annotate(self, **fields) -> None:
        """Attach extra key/value detail to the eventual record."""
        self.fields.update(fields)

    def end(self, status: str = "ok") -> SpanRecord:
        """Close the span, record it, and return the finished record."""
        record = self._recorder._finish(self, status)
        return record


class SpanRecorder:
    """Allocates span ids and records finished spans into a trace ring.

    The buffer attribute is named ``trace`` and every emission is
    guarded by ``self.trace.enabled`` so the scapcheck SC002
    guarded-hook rule covers these call sites.
    """

    def __init__(
        self,
        trace: TraceBuffer,
        clock: Callable[[], float],
        prefix: str = "s",
    ):
        self.trace = trace
        self.clock = clock
        self.prefix = prefix
        # A client's caller threads share its recorder; the daemon's is
        # the loop thread's alone.
        self._lock = threading.Lock()
        self._next_id = 0
        self.recorded = 0

    def _allocate_id(self) -> str:
        with self._lock:
            self._next_id += 1
            return f"{self.prefix}{self._next_id}"

    def new_trace_id(self) -> str:
        """A fresh trace id, unique for this recorder."""
        return f"t-{self._allocate_id()}"

    def start_span(
        self,
        name: str,
        kind: str = KIND_INTERNAL,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **fields,
    ) -> Span:
        """Open a span; a missing ``trace_id`` starts a new trace."""
        if trace_id is None:
            trace_id = self.new_trace_id()
        return Span(
            recorder=self,
            trace_id=trace_id,
            span_id=self._allocate_id(),
            parent_id=parent_id,
            name=name,
            kind=kind,
            start=self.clock(),
            fields=dict(fields),
        )

    def record(
        self, name: str, kind: str, parent: Span, start: float, end: float,
        status: str = "ok", **fields,
    ) -> SpanRecord:
        """Record a child of ``parent`` that ran from ``start`` to ``end``
        on this recorder's clock, timed by another thread (the daemon's
        owner times its commands; the loop records them)."""
        span = Span(self, parent.trace_id, self._allocate_id(), parent.span_id,
                    name, kind, start, fields)
        return self._finish(span, status, end)

    def _finish(self, span: Span, status: str, end: Optional[float] = None) -> SpanRecord:
        duration = (self.clock() if end is None else end) - span.start
        record = SpanRecord(
            trace_id=span.trace_id,
            span_id=span.span_id,
            parent_id=span.parent_id,
            name=span.name,
            kind=span.kind,
            start=span.start,
            duration=max(0.0, duration),
            status=status,
            fields=span.fields,
        )
        if span._ended:
            return record
        span._ended = True
        if self.trace.enabled:
            self.trace.emit(record.start, HOOK_SPAN, **record.as_fields())
        self.recorded += 1
        return record


def span_records(events: Iterable[TraceEvent]) -> List[SpanRecord]:
    """Extract :class:`SpanRecord` items from a trace-event stream."""
    return [
        SpanRecord.from_fields(event.fields)
        for event in events
        if event.hook == HOOK_SPAN and "trace_id" in event.fields
    ]


@dataclass
class SpanNode:
    """One span in a reconstructed tree, with its children attached."""

    record: SpanRecord
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def child_seconds(self) -> float:
        return sum(child.record.duration for child in self.children)

    @property
    def self_seconds(self) -> float:
        """Time attributed to this hop alone (duration minus children).

        Client and daemon clocks are unrelated, so a remote child's
        duration can exceed the local parent's when network time
        dominates; attribution is floored at zero rather than going
        negative.
        """
        return max(0.0, self.record.duration - self.child_seconds)

    def format(self, indent: int = 0) -> List[str]:
        """Indented lines for the CLI tree rendering."""
        record = self.record
        line = (
            f"{'  ' * indent}{record.name} [{record.kind}] "
            f"span={record.span_id} "
            f"{record.duration * 1e3:.3f}ms "
            f"(self {self.self_seconds * 1e3:.3f}ms) "
            f"status={record.status}"
        )
        lines = [line]
        for child in self.children:
            lines.extend(child.format(indent + 1))
        return lines


class SpanTreeReconstructor:
    """Fold span records (events, records, or wire dicts) into trees.

    Mirrors :class:`~repro.observability.timeline.TimelineReconstructor`:
    construct with the raw material, query reconstructed shapes.
    Parents missing from the retained window leave their children as
    additional roots rather than dropping them.
    """

    def __init__(self, sources: Iterable):
        records: List[SpanRecord] = []
        for item in sources:
            if isinstance(item, SpanRecord):
                records.append(item)
            elif isinstance(item, TraceEvent):
                if item.hook == HOOK_SPAN and "trace_id" in item.fields:
                    records.append(SpanRecord.from_fields(item.fields))
            elif isinstance(item, dict) and "trace_id" in item:
                records.append(SpanRecord.from_fields(item))
        # Last write wins for duplicate span ids (client + daemon may
        # both report the same span when merging local and remote).
        by_id: Dict[Tuple[str, str], SpanRecord] = {}
        for record in records:
            by_id[(record.trace_id, record.span_id)] = record
        self._records = list(by_id.values())

    def trace_ids(self) -> List[str]:
        """All trace ids present, in first-seen order."""
        seen: List[str] = []
        for record in self._records:
            if record.trace_id not in seen:
                seen.append(record.trace_id)
        return seen

    def records(self, trace_id: Optional[str] = None) -> List[SpanRecord]:
        """The retained records, optionally for one trace."""
        if trace_id is None:
            return list(self._records)
        return [r for r in self._records if r.trace_id == trace_id]

    def tree(self, trace_id: str) -> List[SpanNode]:
        """Root nodes for one trace, children nested and time-sorted."""
        nodes = {
            record.span_id: SpanNode(record)
            for record in self._records
            if record.trace_id == trace_id
        }
        roots: List[SpanNode] = []
        for node in nodes.values():
            parent = node.record.parent_id
            if parent is not None and parent in nodes:
                nodes[parent].children.append(node)
            else:
                roots.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda child: child.record.start)
        roots.sort(key=lambda node: node.record.start)
        return roots

    def traces(self) -> Dict[str, List[SpanNode]]:
        """Every trace id mapped to its reconstructed roots."""
        return {trace_id: self.tree(trace_id) for trace_id in self.trace_ids()}

    def slowest(self, count: int = 5) -> List[Tuple[str, float]]:
        """``(trace_id, root_seconds)`` pairs, slowest first.

        A trace's cost is the sum of its root spans' durations (client
        and daemon clocks cannot be aligned, so roots are additive).
        """
        totals: Dict[str, float] = {}
        for trace_id in self.trace_ids():
            totals[trace_id] = sum(
                node.record.duration for node in self.tree(trace_id)
            )
        ranked = sorted(totals.items(), key=lambda item: -item[1])
        return ranked[: max(0, count)]

    def select(
        self,
        trace_id: Optional[str] = None,
        slowest: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> Tuple[List[str], List[SpanRecord]]:
        """Answer a span query: one trace, the ``slowest`` N, or all.

        Returns the chosen trace ids in rendering order (slowest first
        for ``slowest``) and their records in retention order, cut to
        the last ``limit``.
        """
        if trace_id is not None:
            wanted = [str(trace_id)]
        elif slowest is not None:
            wanted = [pair[0] for pair in self.slowest(int(slowest))]
        else:
            wanted = self.trace_ids()
        chosen = set(wanted)
        records = [r for r in self._records if r.trace_id in chosen]
        if limit is not None:
            records = records[-int(limit):]
        return wanted, records

    def format_trace(self, trace_id: str) -> str:
        """The whole tree for one trace as indented text."""
        lines = [f"trace {trace_id}"]
        for root in self.tree(trace_id):
            lines.extend(root.format(indent=1))
        return "\n".join(lines)
