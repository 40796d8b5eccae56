"""Flow Director (FDIR) hardware filters, as on the Intel 82599.

An FDIR *perfect-match* filter matches a packet's five-tuple plus an
optional *flexible 2-byte tuple* — two bytes at a fixed offset within
the first 64 bytes of the packet.  Matching packets are steered to a
hardware queue; steering to an unused queue drops them before they ever
reach main memory (the paper's "subzero copy", §2.1/§5.5).

Scap installs, per cut-off stream, two DROP filters whose flex tuple
matches the TCP data-offset/flags word: one for plain ACK segments and
one for ACK|PSH — so data is dropped in hardware while SYN/FIN/RST
still reach the kernel for termination tracking.

Capacity management mirrors §5.5: each filter carries a timeout; when
the table is full, the filter with the smallest timeout is evicted
(it does not correspond to a long-lived stream); reinstalled filters
get a doubled timeout so long-lived flows are evicted only a
logarithmic number of times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..netstack.flows import FiveTuple
from ..netstack.packet import Packet
from ..observability import HOOK_FDIR_EVICT, NULL_OBSERVABILITY, Observability

__all__ = [
    "FDIR_DROP",
    "FdirFilter",
    "FlowDirectorTable",
    "tcp_flags_word",
    "FLEX_OFFSET_TCP_FLAGS",
]

# Queue index used as the "drop" action: a queue no core ever reads.
FDIR_DROP = -1

# Byte offset (within the frame) of the TCP data-offset/flags 16-bit
# word: 14 (Ethernet) + 20 (IPv4) + 12.
FLEX_OFFSET_TCP_FLAGS = 46


def tcp_flags_word(packet: Packet) -> Optional[int]:
    """The 16-bit TCP offset/reserved/flags word, or None for non-TCP.

    For our option-less TCP headers the data offset is always 5, so the
    word is ``0x5000 | flags`` — the value the modified NIC driver
    extracts with the flexible 2-byte tuple at offset 46.
    """
    if packet.tcp is None:
        return None
    return (5 << 12) | packet.tcp.flags


@dataclass
class FdirFilter:
    """One perfect-match filter."""

    five_tuple: FiveTuple
    action_queue: int  # FDIR_DROP or an RX queue index
    flex_offset: Optional[int] = None
    flex_value: Optional[int] = None
    timeout_at: float = 0.0  # virtual time at which Scap removes it
    timeout_interval: float = 0.0  # current interval (doubles on re-install)


class FlowDirectorTable:  # scapcheck: single-owner
    """The NIC's filter table: add/remove/match with capacity + eviction.

    Matching is exact on the directional five-tuple; a filter with a
    flex tuple additionally requires the flex bytes to equal
    ``flex_value``.  Hardware matching costs the host nothing.

    Single-owner: only the simulated NIC (one per runtime) touches the
    table; there is no cross-core sharing to lock against.
    """

    def __init__(
        self,
        capacity: int = 8192,
        observability: Optional[Observability] = None,
        sanitizers: Optional[object] = None,
    ):
        if capacity < 1:
            raise ValueError("filter table capacity must be positive")
        self.capacity = capacity
        self._by_tuple: Dict[FiveTuple, List[FdirFilter]] = {}
        self._count = 0
        #: Coherence counter for batch classification: bumped on every
        #: table mutation (install, removal, eviction).  The runtime
        #: re-classifies the unconsumed tail of a batch whenever the
        #: version moved, so verdicts computed ahead of time equal
        #: classifying each packet right before its softirq.
        self.version = 0
        self.installed_total = 0
        self.evicted_total = 0
        self.matched_total = 0
        self._obs = observability or NULL_OBSERVABILITY
        self._san = sanitizers
        registry = self._obs.registry
        self._m_installs = registry.counter(
            "scap_fdir_installs_total", "FDIR filters installed"
        )
        self._m_evictions = registry.counter(
            "scap_fdir_evictions_total", "FDIR filters evicted (table full)"
        )
        self._m_active = registry.gauge(
            "scap_fdir_filters_active", "FDIR filters currently in the table"
        )
        self._m_matches = registry.counter(
            "scap_fdir_matches_total", "packets matched by an FDIR filter"
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def add(self, new_filter: FdirFilter, now: float = 0.0) -> bool:
        """Install a filter, evicting the smallest-timeout one if full.

        ``now`` (simulated time) is only used to timestamp trace events
        when observability is enabled.  Returns False only if the table
        is full of filters that all have *later* timeouts and eviction
        was impossible (never happens with Scap's policy, which always
        evicts; kept for API completeness).
        """
        if self._count >= self.capacity:
            self._evict_smallest_timeout(now)
        bucket = self._by_tuple.setdefault(new_filter.five_tuple, [])
        bucket.append(new_filter)
        self._count += 1
        self.version += 1
        self.installed_total += 1
        if self._obs.enabled:
            self._m_installs.inc()
            self._m_active.set(self._count)
        if self._san is not None:
            self._san.fdir.on_table(self)
        return True

    def _evict_smallest_timeout(self, now: float = 0.0) -> None:
        victim_tuple: Optional[FiveTuple] = None
        victim: Optional[FdirFilter] = None
        for five_tuple, bucket in self._by_tuple.items():
            for candidate in bucket:
                if victim is None or candidate.timeout_at < victim.timeout_at:
                    victim = candidate
                    victim_tuple = five_tuple
        if victim is None or victim_tuple is None:
            return
        if self._san is not None:
            self._san.fdir.on_evict(victim, self)
        self._by_tuple[victim_tuple].remove(victim)
        if not self._by_tuple[victim_tuple]:
            del self._by_tuple[victim_tuple]
        self._count -= 1
        self.version += 1
        self.evicted_total += 1
        if self._obs.enabled:
            self._m_evictions.inc()
            self._m_active.set(self._count)
            self._obs.trace.emit(
                now,
                HOOK_FDIR_EVICT,
                five_tuple=str(victim_tuple),
                timeout_at=victim.timeout_at,
            )

    def remove_for_tuple(self, five_tuple: FiveTuple) -> int:
        """Remove all filters for a directional five-tuple; return count."""
        bucket = self._by_tuple.pop(five_tuple, None)
        if bucket is None:
            return 0
        self._count -= len(bucket)
        self.version += 1
        if self._obs.enabled:
            self._m_active.set(self._count)
        if self._san is not None:
            self._san.fdir.on_table(self)
        return len(bucket)

    def remove_for_stream(self, five_tuple: FiveTuple) -> int:
        """Remove filters for both directions of a connection."""
        return self.remove_for_tuple(five_tuple) + self.remove_for_tuple(
            five_tuple.reversed()
        )

    def filters_for_stream(self, five_tuple: FiveTuple) -> List[FdirFilter]:
        """All filters installed for either direction of a connection."""
        return list(self._by_tuple.get(five_tuple, [])) + list(
            self._by_tuple.get(five_tuple.reversed(), [])
        )

    # ------------------------------------------------------------------
    def peek(self, packet: Packet) -> Optional[FdirFilter]:
        """The first filter matching ``packet``, without accounting.

        Pure lookup for the offload stage, which may classify a
        packet more than once (the batch tail is re-classified after a
        mid-batch table mutation); match statistics are recorded via
        :meth:`count_match` when the verdict is actually consumed.
        A non-IP frame (no five-tuple) matches nothing.
        """
        bucket = self._by_tuple.get(packet.five_tuple)
        if not bucket:
            return None
        flags_word = tcp_flags_word(packet)
        for candidate in bucket:
            if candidate.flex_value is None:
                return candidate
            if (
                candidate.flex_offset == FLEX_OFFSET_TCP_FLAGS
                and flags_word is not None
                and flags_word == candidate.flex_value
            ):
                return candidate
        return None

    def count_match(self, count: int = 1) -> None:
        """Record ``count`` consumed filter matches."""
        self.matched_total += count
        if self._obs.enabled:
            self._m_matches.inc(count)

    def match(self, packet: Packet) -> Optional[FdirFilter]:
        """The first filter matching ``packet``, or None."""
        matched = self.peek(packet)
        if matched is not None:
            self.count_match()
        return matched

    def expired(self, now: float) -> List[FdirFilter]:
        """Filters whose timeout has passed (Scap removes these)."""
        return [
            candidate
            for bucket in self._by_tuple.values()
            for candidate in bucket
            if candidate.timeout_at <= now
        ]

    def remove_filter(self, target: FdirFilter) -> bool:
        """Remove one specific filter object."""
        bucket = self._by_tuple.get(target.five_tuple)
        if not bucket or target not in bucket:
            return False
        bucket.remove(target)
        if not bucket:
            del self._by_tuple[target.five_tuple]
        self._count -= 1
        self.version += 1
        if self._obs.enabled:
            self._m_active.set(self._count)
        if self._san is not None:
            self._san.fdir.on_table(self)
        return True
