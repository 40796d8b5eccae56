"""Stream cutoff resolution (§2.1, §3.1).

A cutoff truncates a stream to its first N bytes; everything past it is
*discarded* (not "dropped" — discarding is intentional and costs almost
nothing because it happens in the kernel or at the NIC).  Cutoffs can
be set at four scopes, resolved most-specific-first:

1. per-stream (``scap_set_stream_cutoff``),
2. per traffic class (``scap_add_cutoff_class`` with a BPF filter),
3. per direction (``scap_add_cutoff_direction``),
4. socket-wide default (``scap_set_cutoff``).

``SCAP_UNLIMITED_CUTOFF`` (−1) means "no cutoff"; 0 means "statistics
only, discard all data".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..filters.bpf import BPFFilter
from .constants import SCAP_UNLIMITED_CUTOFF
from .stream import StreamDescriptor

__all__ = ["CutoffPolicy"]


@dataclass
class _ClassCutoff:
    bpf: BPFFilter
    cutoff: int


class CutoffPolicy:
    """Resolves the effective cutoff for a stream."""

    def __init__(self, default: int = SCAP_UNLIMITED_CUTOFF):
        self.default = default
        self._per_direction: dict = {}
        self._classes: List[_ClassCutoff] = []
        #: The policies a union resolves over (see :meth:`union`).
        self._parts: List[CutoffPolicy] = []

    @classmethod
    def union(cls, policies: Sequence["CutoffPolicy"]) -> "CutoffPolicy":
        """The policy that keeps of every stream what the most generous
        of ``policies`` keeps: the largest effective cutoff, unlimited
        winning (§5.6).  One policy is its own union."""
        if len(policies) == 1:
            return policies[0]
        if any(policy.is_trivial for policy in policies):
            return cls()
        merged = cls(_largest(policy.default for policy in policies))
        merged._parts = list(policies)
        return merged

    def set_default(self, cutoff: int) -> None:
        """Set the socket-wide default cutoff."""
        self.validate(cutoff)
        self.default = cutoff

    def add_direction_cutoff(self, cutoff: int, direction: int) -> None:
        """Set a cutoff for one stream direction."""
        self.validate(cutoff)
        if direction not in (0, 1):
            raise ValueError(f"invalid direction: {direction}")
        self._per_direction[direction] = cutoff

    def add_class_cutoff(self, cutoff: int, bpf: BPFFilter) -> None:
        """Set a cutoff for a BPF-defined traffic class."""
        self.validate(cutoff)
        self._classes.append(_ClassCutoff(bpf, cutoff))

    @staticmethod
    def validate(cutoff: int) -> None:
        """Raise ValueError unless ``cutoff`` is a byte count or unlimited (−1)."""
        if cutoff < SCAP_UNLIMITED_CUTOFF:
            raise ValueError(f"invalid cutoff: {cutoff}")

    @property
    def is_trivial(self) -> bool:
        """True when no scope can impose a cutoff except per-stream.

        The hot path uses this to skip cutoff resolution for
        streams whose own cutoff is unlimited: with no class, direction,
        or default cutoff configured, ``remaining()`` is None for them
        by construction.
        """
        return (
            self.default == SCAP_UNLIMITED_CUTOFF
            and not self._classes
            and not self._per_direction
            and not self._parts
        )

    # ------------------------------------------------------------------
    def effective_cutoff(self, stream: StreamDescriptor) -> int:
        """The cutoff that applies to ``stream`` right now."""
        if stream.cutoff != SCAP_UNLIMITED_CUTOFF:
            return stream.cutoff
        if self._parts:
            return _largest(part.effective_cutoff(stream) for part in self._parts)
        for class_cutoff in self._classes:
            if class_cutoff.bpf.matches_five_tuple(stream.five_tuple):
                return class_cutoff.cutoff
        if stream.direction in self._per_direction:
            return self._per_direction[stream.direction]
        return self.default

    def is_exceeded(self, stream: StreamDescriptor, next_offset: int) -> bool:
        """True once a stream's delivered bytes reach its cutoff."""
        cutoff = self.effective_cutoff(stream)
        if cutoff == SCAP_UNLIMITED_CUTOFF:
            return False
        return next_offset >= cutoff

    def remaining(self, stream: StreamDescriptor, next_offset: int) -> Optional[int]:
        """Bytes still capturable before the cutoff; None if unlimited."""
        cutoff = self.effective_cutoff(stream)
        if cutoff == SCAP_UNLIMITED_CUTOFF:
            return None
        return max(0, cutoff - next_offset)


def _largest(cutoffs: Iterable[int]) -> int:
    """The cutoff that keeps the most: unlimited, else the largest."""
    values = list(cutoffs)
    return SCAP_UNLIMITED_CUTOFF if SCAP_UNLIMITED_CUTOFF in values else max(values)
