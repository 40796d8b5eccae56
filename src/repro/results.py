"""Common result records for capture-system runs.

Every capture system (Scap and the baselines) reduces one replay run to
a :class:`RunResult`, so the experiment harness can print the same
columns for each figure regardless of the system measured.  An Scap
run's running totals are a :class:`ScapStats` (``scap_get_stats``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["RunResult", "ScapStats"]


@dataclass
class RunResult:
    """Measurements from one (system, workload, rate) run."""

    system: str
    rate_bps: float
    duration: float

    offered_packets: int = 0
    offered_bytes: int = 0

    #: Unintentional loss (ring overflow, PPL, memory exhaustion).
    dropped_packets: int = 0
    #: Intentional early discards: NIC FDIR drops + in-kernel cutoff
    #: discards + BPF-filtered packets.
    discarded_packets: int = 0
    nic_filter_drops: int = 0

    delivered_bytes: int = 0
    delivered_events: int = 0

    user_utilization: float = 0.0
    softirq_load: float = 0.0

    streams_created: int = 0
    streams_delivered: int = 0
    streams_lost: int = 0
    streams_total_ground_truth: int = 0

    matches_found: int = 0
    matches_planted: int = 0

    #: Per-priority offered/dropped packet counts (PPL experiments).
    packets_by_priority: Dict[int, int] = field(default_factory=dict)
    drops_by_priority: Dict[int, int] = field(default_factory=dict)

    memory_peak_fraction: float = 0.0
    cache_misses_per_packet: Optional[float] = None

    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def drop_rate(self) -> float:
        """Fraction of offered packets lost unintentionally."""
        if self.offered_packets == 0:
            return 0.0
        return self.dropped_packets / self.offered_packets

    @property
    def stream_loss_rate(self) -> float:
        if self.streams_total_ground_truth == 0:
            return 0.0
        return self.streams_lost / self.streams_total_ground_truth

    @property
    def match_rate(self) -> float:
        if self.matches_planted == 0:
            return 0.0
        return self.matches_found / self.matches_planted

    def priority_drop_rate(self, priority: int) -> float:
        """Drop fraction within one PPL priority class."""
        total = self.packets_by_priority.get(priority, 0)
        if total == 0:
            return 0.0
        return self.drops_by_priority.get(priority, 0) / total

    def row(self) -> str:
        """One formatted line for harness output."""
        return (
            f"{self.system:<22} rate={self.rate_bps / 1e9:5.2f}G "
            f"drop={self.drop_rate * 100:6.2f}% "
            f"cpu={self.user_utilization * 100:6.2f}% "
            f"softirq={self.softirq_load * 100:5.2f}% "
            f"streams_lost={self.stream_loss_rate * 100:6.2f}% "
            f"matches={self.match_rate * 100:6.2f}%"
        )


@dataclass
class ScapStats:
    """Overall statistics, as returned by scap_get_stats (Table 1).

    The original seven fields mirror the paper; the extension fields
    below them surface the observability layer (per-core breakdowns,
    PPL per-priority drops, FDIR filter state — see
    ``docs/OBSERVABILITY.md``).  Per-core dicts are filled only when
    the run had an enabled :class:`~repro.observability.Observability`
    attached; the aggregate fields are always populated.
    """

    pkts_received: int = 0
    pkts_dropped: int = 0
    pkts_discarded: int = 0
    bytes_received: int = 0
    bytes_delivered: int = 0
    streams_seen: int = 0
    events_processed: int = 0
    # --- observability extensions -------------------------------------
    per_core_packets: Dict[int, int] = field(default_factory=dict)
    per_core_bytes: Dict[int, int] = field(default_factory=dict)
    per_core_drops: Dict[int, int] = field(default_factory=dict)
    ppl_drops_by_priority: Dict[int, int] = field(default_factory=dict)
    fdir_filters_installed: int = 0
    fdir_filters_evicted: int = 0
    fdir_filters_active: int = 0
    # --- stream-store extensions (zero unless a store is attached) ----
    stored_bytes: int = 0
    evicted_bytes: int = 0
    writer_queue_drops: int = 0
    # --- fault-injection extensions (zero unless a fault plan ran) ----
    faults_injected_total: int = 0
    faults_injected: Dict[str, int] = field(default_factory=dict)
    #: Frames the NIC dropped for a bad checksum (part of pkts_dropped).
    nic_fcs_errors: int = 0
