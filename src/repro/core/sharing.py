"""Multiple applications sharing one capture (§5.6).

When several monitoring applications run on the same host, Scap
performs flow tracking and stream reassembly *once* in the kernel and
gives every application a shared read-only view of each stream.  The
kernel runs with the best-effort union of their configs
(:func:`merge_configs`), field by field:

* cutoffs: per stream, the largest any application's policy gives it
  (class, direction or default), unlimited winning;
* BPF filter: a stream is kept if any application's filter matches;
  each event then goes only to the applications that want it
  (:meth:`SharedApplication.wants`);
* the smallest chunk size with the largest overlap that fits, the
  lowest PPL base threshold, the largest overload cutoff, the smallest
  flush timeout set, the longest inactivity timeout, the largest memory;
* STRICT reassembly over FAST, packets kept if any application needs
  them, FDIR only if all allow it;
* worker threads and event-queue capacity size each application's own
  pool; the merged config keeps the largest.

Any other field must be equal in every config.  Each application runs
its callbacks on its own worker pool (its own process in the real
system), so user-level costs multiply but the kernel work does not.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Callable, Dict, List, Sequence

from ..filters.bpf import filter_union
from ..results import RunResult
from .config import ScapConfig
from .cutoff import CutoffPolicy
from .runtime import ScapRuntime
from .workers import SharedApplication

__all__ = ["SharedApplication", "SharedCaptureRuntime", "merge_configs"]


def _if_set(combine: Callable[[List[Any]], Any]) -> Callable[[List[Any]], Any]:
    """``combine`` over the values that are set; None if none is."""

    def rule(values: List[Any]) -> Any:
        present = [value for value in values if value is not None]
        return combine(present) if present else None

    return rule


#: How :func:`merge_configs` unites each field (the module docstring).
_UNION_RULES: Dict[str, Callable[[List[Any]], Any]] = {
    "memory_size": max,
    "reassembly_mode": min,  # SCAP_TCP_STRICT < SCAP_TCP_FAST
    "need_pkts": any,
    "chunk_size": min,
    "overlap_size": max,
    "flush_timeout": _if_set(min),
    "inactivity_timeout": max,
    "base_threshold": min,
    "overload_cutoff": _if_set(max),
    "worker_threads": max,
    "use_fdir": all,
    "event_queue_capacity": max,
    "bpf": filter_union,
    "cutoffs": CutoffPolicy.union,
}


def merge_configs(configs: Sequence[ScapConfig]) -> ScapConfig:
    """Combine per-application configs into one kernel-level config.

    One config merges to an equal one.  Raises ValueError on a field
    without a union rule that the configs disagree on.
    """
    if not configs:
        raise ValueError("need at least one application config")
    for config in configs:
        config.validate()
    values: Dict[str, Any] = {}
    for name in (spec.name for spec in fields(ScapConfig)):
        column = [getattr(config, name) for config in configs]
        rule = _UNION_RULES.get(name)
        if rule is not None:
            values[name] = rule(column)
        elif any(value != column[0] for value in column):
            raise ValueError(f"applications disagree on {name} ({column}); it has no union rule")
        else:
            values[name] = column[0]
    merged = ScapConfig(**values)
    merged.overlap_size = min(merged.overlap_size, merged.chunk_size - 1)
    return merged


class SharedCaptureRuntime:
    """One kernel capture fanned out to several applications.

    ``runtime_kwargs`` go to the :class:`~repro.core.runtime.ScapRuntime`
    (``core_count``, ``cost_model``, ``locality``, ...).
    """

    def __init__(self, applications: Sequence[SharedApplication], **runtime_kwargs: Any):
        self.merged_config = merge_configs([app.config for app in applications])
        self.runtime = ScapRuntime(
            config=self.merged_config, applications=applications, **runtime_kwargs
        )
        self.applications = self.runtime.applications

    def run(self, workload, rate_bps: float) -> List[RunResult]:
        """Replay once; return one result per application."""
        base = self.runtime.run(workload, rate_bps, name="shared-kernel")
        results = []
        for app in self.applications:
            workers = app.workers
            assert workers is not None
            results.append(RunResult(
                system=app.name,
                rate_bps=rate_bps,
                duration=base.duration,
                offered_packets=base.offered_packets,
                offered_bytes=base.offered_bytes,
                dropped_packets=base.dropped_packets,
                discarded_packets=base.discarded_packets,
                nic_filter_drops=base.nic_filter_drops,
                delivered_bytes=workers.bytes_delivered,
                delivered_events=workers.events_processed,
                user_utilization=workers.utilization(base.duration),
                softirq_load=base.softirq_load,
                streams_created=base.streams_created,
            ))
        return results
