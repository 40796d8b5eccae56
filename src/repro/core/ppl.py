"""Prioritized Packet Loss (§2.2, analyzed in §7).

Under overload the stream-memory pool fills; instead of dropping
whatever arrives next (what a full PF_PACKET ring does), PPL drops by
priority.  The memory *above* ``base_threshold`` is divided into one
band per priority level by equally spaced watermarks:

    watermark(p) = base + (p + 1) * (1 - base) / n      p = 0 .. n-1

A packet of priority ``p`` (higher value = more important) is dropped
outright when used memory exceeds ``watermark(p)``; in the band just
below its watermark, the optional ``overload_cutoff`` applies — packets
beyond that many bytes into their stream are dropped, which is what
gives new and short streams preferential treatment under pressure.
Below ``base_threshold`` nothing is ever dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..observability import (
    DEFAULT_FRACTION_BUCKETS,
    NULL_OBSERVABILITY,
    Observability,
)

__all__ = ["PrioritizedPacketLoss", "PPLDecision"]


@dataclass(frozen=True)
class PPLDecision:
    """Outcome of one PPL check."""

    drop: bool
    reason: Optional[str] = None  # "watermark" | "overload_cutoff"


#: The one value every admitted packet gets (decisions are immutable).
_PASS = PPLDecision(drop=False)


class PrioritizedPacketLoss:
    """The PPL drop policy.

    ``priority_levels`` is the number of levels currently in use; the
    kernel module raises it automatically when an application assigns a
    new, higher priority to a stream.
    """

    def __init__(
        self,
        base_threshold: float = 0.5,
        overload_cutoff: Optional[int] = None,
        priority_levels: int = 1,
        observability: Optional[Observability] = None,
        sanitizers: Optional[object] = None,
    ):
        if not 0.0 <= base_threshold < 1.0:
            raise ValueError("base_threshold must be in [0, 1)")
        if priority_levels < 1:
            raise ValueError("need at least one priority level")
        self._san = sanitizers
        self.base_threshold = base_threshold
        self.overload_cutoff = overload_cutoff
        self.priority_levels = priority_levels
        self.checked = 0
        self._obs = observability or NULL_OBSERVABILITY
        registry = self._obs.registry
        self._m_checks = registry.counter(
            "scap_ppl_checks_total", "PPL admission decisions evaluated"
        )
        self._m_drops = registry.counter(
            "scap_ppl_drops_total",
            "packets dropped by PPL, by priority and reason",
            labels=("priority", "reason"),
        )
        self._m_fraction = registry.histogram(
            "scap_ppl_memory_fraction",
            "stream-memory occupancy observed at each PPL check",
            bounds=DEFAULT_FRACTION_BUCKETS,
        )
        self._m_band = registry.gauge(
            "scap_ppl_band",
            "watermark band of the last check (0 = below base threshold)",
        )
        # Pre-resolved (priority, reason) drop counters: one dict hit on
        # first use, then the enabled path is a bare Counter.inc.
        self._drop_counters: Dict[Tuple[int, str], object] = {}
        self._band_width = (1.0 - self.base_threshold) / self.priority_levels

    # ------------------------------------------------------------------
    def ensure_level(self, priority: int) -> None:
        """Grow the number of levels to cover ``priority``."""
        if priority + 1 > self.priority_levels:
            self.priority_levels = priority + 1
            self._band_width = (1.0 - self.base_threshold) / self.priority_levels

    def watermark(self, priority: int) -> float:
        """The memory fraction above which ``priority`` packets drop."""
        priority = min(max(priority, 0), self.priority_levels - 1)
        return self.base_threshold + (priority + 1) * self._band_width

    def band_index(self, fraction_used: float) -> int:
        """Which watermark band ``fraction_used`` falls in.

        0 means below the base threshold (nothing drops); ``k`` means
        the occupancy has crossed ``k`` of the equally spaced
        watermarks, so priorities ``0 .. k-1`` are dropping outright.
        """
        if fraction_used <= self.base_threshold:
            return 0
        crossed = int((fraction_used - self.base_threshold) / self._band_width)
        return min(crossed + 1, self.priority_levels)

    def check(
        self, fraction_used: float, priority: int, stream_offset: int
    ) -> PPLDecision:
        """Decide whether to drop a packet of ``priority`` whose payload
        would land at byte ``stream_offset`` of its stream."""
        self.checked += 1
        if self._obs.enabled:
            self._m_checks.inc()
            self._m_fraction.observe(fraction_used)
            self._m_band.set(self.band_index(fraction_used))
        decision = _PASS
        if fraction_used > self.base_threshold:
            mark = self.watermark(priority)
            if fraction_used > mark:
                self._count(priority, "watermark")
                decision = PPLDecision(drop=True, reason="watermark")
            elif (
                self.overload_cutoff is not None
                and fraction_used > mark - self._band_width
                and stream_offset >= self.overload_cutoff
            ):
                self._count(priority, "overload_cutoff")
                decision = PPLDecision(drop=True, reason="overload_cutoff")
        if self._san is not None:
            self._san.ppl.on_check(self, fraction_used, priority, decision)
        return decision

    def _count(self, priority: int, reason: str) -> None:
        # The per-priority drop ledger is KernelCounters.ppl_drops_by_priority;
        # this only feeds the labelled metric.
        if self._obs.enabled:
            drop_counter = self._drop_counters.get((priority, reason))
            if drop_counter is None:
                drop_counter = self._m_drops.labels(priority, reason)
                self._drop_counters[(priority, reason)] = drop_counter
            drop_counter.inc()
