"""Runtime race detector (``SCAP_RACE=1``) — the dynamic half of SC003/SC007.

The lockset rules in :mod:`repro.staticcheck.rules` check each class's
concurrency discipline on paper; this module watches the shared-state
touchpoints while the pipeline actually runs.  A
resource (flow table, stream-memory ledger, metrics registry structure,
store writer) is claimed by the first thread that touches it; any touch
from a second thread is a violation.  This is the runtime form of
``# scapcheck: single-owner``: claiming happens at the first check, not
at registration, so an object may be built on one thread and handed to
the thread that then drives it.

A violation raises :class:`InvariantViolation` carrying **both
conflicting stack tails** plus a digest over their frames — the digest
is deterministic across runs (it hashes ``basename:function:line``
only, never thread ids or addresses), which is what lets a test provoke
one race three times and assert the *same* digest each time.

Everything is off unless ``SCAP_RACE`` is truthy; instrumented classes
hold ``Optional`` detector references behind ``is not None`` guards, so
the disabled fast path costs one comparison, as with ``SCAP_SANITIZE``.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import traceback
from typing import Dict, Optional, Tuple

from .invariants import InvariantViolation

__all__ = [
    "RACE_ENV",
    "STACK_TAIL_DEPTH",
    "RaceDetector",
    "race_enabled",
    "race_detector_from_env",
    "reset_race_detector",
    "stack_digest",
]

#: Environment flag that turns the race detector on for every runtime.
RACE_ENV = "SCAP_RACE"
#: Frames kept per conflicting stack tail.
STACK_TAIL_DEPTH = 5

_TRUTHY = frozenset({"1", "true", "yes", "on"})

StackTail = Tuple[Tuple[str, str, int], ...]


def race_enabled() -> bool:
    """True when ``SCAP_RACE`` asks for always-on race detection."""
    return os.environ.get(RACE_ENV, "").strip().lower() in _TRUTHY


def _stack_tail() -> StackTail:
    """The last few frames of the current stack, detector frames removed."""
    frames = traceback.extract_stack()
    tail = [
        (os.path.basename(frame.filename), frame.name, frame.lineno or 0)
        for frame in frames
        if os.path.basename(frame.filename) != "race.py"
    ]
    return tuple(tail[-STACK_TAIL_DEPTH:])


def _render_tail(tail: StackTail) -> str:
    return " <- ".join(f"{base}:{func}:{line}" for base, func, line in reversed(tail))


def stack_digest(first: StackTail, second: StackTail) -> str:
    """Deterministic digest over two conflicting stack tails.

    Hashes only ``(basename, function, line)`` frames — no thread ids,
    no object addresses — so the same race reported from the same code
    paths digests identically run over run.
    """
    digest = hashlib.sha256()
    for tail in (first, second):
        for base, func, line in tail:
            digest.update(f"{base}:{func}:{line};".encode())
        digest.update(b"||")
    return digest.hexdigest()[:16]


class _Resource:
    """Per-resource tracking state (guarded by the detector's lock)."""

    __slots__ = ("label", "owner_ident", "owner_name", "owner_tail")

    def __init__(self, label: str):
        self.label = label
        self.owner_ident: Optional[int] = None
        self.owner_name = ""
        self.owner_tail: StackTail = ()


class RaceDetector:
    """Owner-thread checker over registered single-owner resources.

    Resources get unique integer tokens from a monotonic counter (never
    ``id()`` — object ids are reused after collection, which would let
    a dead resource's history convict a fresh one).
    """

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self._resources: Dict[int, _Resource] = {}
        self._tokens = itertools.count(1)
        self.violations = 0

    def register(self, label: str) -> int:
        """Track a new resource; returns its token for :meth:`check`."""
        token = next(self._tokens)
        with self._guard:
            self._resources[token] = _Resource(label)
        return token

    def check(self, token: int, op: str = "write") -> None:
        """Record one access to the resource; raise on a detected race."""
        ident = threading.get_ident()
        name = threading.current_thread().name
        tail = _stack_tail()
        with self._guard:
            resource = self._resources[token]
            if resource.owner_ident is None:
                resource.owner_ident = ident
                resource.owner_name = name
            if ident == resource.owner_ident:
                resource.owner_tail = tail
                return
            self.violations += 1
            self._fail(resource, op, second_thread=name, second_tail=tail)

    def _fail(
        self, resource: _Resource, op: str, second_thread: str, second_tail: StackTail
    ) -> None:
        digest = stack_digest(resource.owner_tail, second_tail)
        raise InvariantViolation(
            "race",
            f"owner-mode race on {resource.label} ({op}): owned by another thread",
            details={
                "resource": resource.label,
                "mode": "owner",
                "digest": digest,
                "first_thread": resource.owner_name,
                "first_stack": _render_tail(resource.owner_tail),
                "second_thread": second_thread,
                "second_stack": _render_tail(second_tail),
            },
        )

    def reset(self) -> None:
        """Forget every registered resource (test isolation)."""
        with self._guard:
            self._resources.clear()
            self.violations = 0


_GLOBAL_DETECTOR: Optional[RaceDetector] = None


def race_detector_from_env() -> Optional[RaceDetector]:
    """The process-wide detector when ``SCAP_RACE`` is set, else None.

    One shared detector (not one per instrumented object) so that two
    components touching the same logical resource still meet in one
    place; each instrumented instance registers its own token.
    """
    global _GLOBAL_DETECTOR
    if not race_enabled():
        return None
    if _GLOBAL_DETECTOR is None:
        _GLOBAL_DETECTOR = RaceDetector()
    return _GLOBAL_DETECTOR


def reset_race_detector() -> None:
    """Drop the process-wide detector (tests flip ``SCAP_RACE`` around)."""
    global _GLOBAL_DETECTOR
    _GLOBAL_DETECTOR = None
