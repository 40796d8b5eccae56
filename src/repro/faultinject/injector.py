"""The deterministic fault injector shared by all four fault planes.

One :class:`FaultInjector` is built per capture run from a
:class:`~repro.faultinject.plan.FaultPlan`.  Each plane owns a
:class:`random.Random` seeded from ``f"{plan.seed}/{plane}"`` (string
seeds hash via SHA-512, so schedules are identical across processes and
enabling one plane never shifts another plane's draws).  Every injected
fault is appended to the **schedule log** — the byte-identical record
the determinism contract is asserted against — counted per
``(plane, kind)``, and, when observability is enabled, emitted as a
``fault_injected`` trace event plus a ``scap_faults_injected_total``
metric sample so the flight recorder can attribute observed drops to
injected causes.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..observability import HOOK_FAULT_INJECTED, NULL_OBSERVABILITY, Observability
from .plan import FaultPlan

__all__ = ["FaultInjector", "FaultRecord"]

PLANE_WIRE = "wire"
PLANE_MEMORY = "memory"
PLANE_STORE = "store"
PLANE_SCHED = "sched"


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault: when (simulated), which plane, what kind."""

    time: float
    plane: str
    kind: str
    detail: str = ""

    def format(self) -> str:
        """One line of the schedule log (used for digests and dumps)."""
        return f"{self.time!r} {self.plane} {self.kind} {self.detail}"


class FaultInjector:
    """Applies one :class:`FaultPlan` to one capture run.

    The injector is *consumed* by a run: build a fresh one per run (the
    socket does this in ``_build_runtime``) so replaying the same plan
    on the same trace reproduces the schedule exactly.
    """

    def __init__(
        self, plan: FaultPlan, observability: Optional[Observability] = None
    ):
        plan.validate()
        self.plan = plan
        self._obs = observability or NULL_OBSERVABILITY
        self._rngs: Dict[str, random.Random] = {
            plane: random.Random(f"{plan.seed}/{plane}")
            for plane in (PLANE_WIRE, PLANE_MEMORY, PLANE_STORE, PLANE_SCHED)
        }
        #: The schedule log: every injected fault, in injection order.
        self.schedule: List[FaultRecord] = []
        self.counts: Dict[Tuple[str, str], int] = {}
        self.total_injected = 0
        self._pressure_noted = False
        self._m_faults = self._obs.registry.counter(
            "scap_faults_injected_total",
            "faults injected by the chaos layer, by plane and kind",
            labels=("plane", "kind"),
        )
        self._fault_counters: Dict[Tuple[str, str], object] = {}

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _record(self, now: float, plane: str, kind: str, detail: str = "") -> None:
        self.schedule.append(FaultRecord(now, plane, kind, detail))
        key = (plane, kind)
        self.counts[key] = self.counts.get(key, 0) + 1
        self.total_injected += 1
        if self._obs.enabled:
            counter = self._fault_counters.get(key)
            if counter is None:
                counter = self._m_faults.labels(plane, kind)
                self._fault_counters[key] = counter
            counter.inc()
            self._obs.trace.emit(
                now, HOOK_FAULT_INJECTED, plane=plane, kind=kind, detail=detail
            )

    def count(self, plane: str, kind: str) -> int:
        """Injected faults of one ``(plane, kind)`` so far."""
        return self.counts.get((plane, kind), 0)

    def counts_by_key(self) -> Dict[str, int]:
        """``{"plane.kind": count}`` for stats surfaces."""
        return {
            f"{plane}.{kind}": count for (plane, kind), count in self.counts.items()
        }

    def schedule_digest(self) -> str:
        """SHA-256 over the schedule log — the determinism fingerprint.

        Two runs of the same plan on the same workload must produce the
        same digest; the chaos tests assert exactly that.
        """
        digest = hashlib.sha256()
        for record in self.schedule:
            digest.update(record.format().encode())
            digest.update(b"\n")
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Wire plane (decisions live in .wire.FaultedWorkload)
    # ------------------------------------------------------------------
    def wrap_workload(self, workload):
        """Interpose the wire plane on ``workload`` (no-op if inactive)."""
        if not self.plan.wire.active():
            return workload
        from .wire import FaultedWorkload

        return FaultedWorkload(workload, self)

    # ------------------------------------------------------------------
    # Memory plane
    # ------------------------------------------------------------------
    def memory_alloc_fails(self, now: float, nbytes: int, label: str = "") -> bool:
        """Should this ``try_store`` be failed artificially?"""
        faults = self.plan.memory
        if faults.alloc_failure_rate <= 0.0 or not faults.window.contains(now):
            return False
        if self._rngs[PLANE_MEMORY].random() >= faults.alloc_failure_rate:
            return False
        self._record(now, PLANE_MEMORY, "alloc_failure", f"bytes={nbytes} {label}")
        return True

    def memory_pressure(self, now: float, fraction: float) -> float:
        """The occupancy fraction PPL should see (boosted in-window).

        The boost never pushes the fraction to 1.0 on its own, so the
        top priority's watermark is only crossed by genuine occupancy.
        """
        faults = self.plan.memory
        if faults.pressure_boost <= 0.0 or not faults.window.contains(now):
            return fraction
        if not self._pressure_noted:
            # Continuous pressure is logged once per run, not per call,
            # to keep the schedule log proportional to discrete faults.
            self._pressure_noted = True
            self._record(now, PLANE_MEMORY, "pressure", f"boost={faults.pressure_boost}")
        return max(fraction, min(fraction + faults.pressure_boost, 0.999999))

    # ------------------------------------------------------------------
    # Scheduling plane
    # ------------------------------------------------------------------
    def sched_backpressure(self, now: float, worker: int) -> bool:
        """Should this event be rejected as if the queue were full?"""
        faults = self.plan.sched
        if faults.backpressure_rate <= 0.0 or not faults.window.contains(now):
            return False
        if self._rngs[PLANE_SCHED].random() >= faults.backpressure_rate:
            return False
        self._record(now, PLANE_SCHED, "backpressure", f"worker={worker}")
        return True

    def sched_stall(self, now: float, worker: int) -> float:
        """Extra service seconds for this event (0.0 = no stall)."""
        faults = self.plan.sched
        if faults.stall_rate <= 0.0 or not faults.window.contains(now):
            return 0.0
        if self._rngs[PLANE_SCHED].random() >= faults.stall_rate:
            return 0.0
        self._record(now, PLANE_SCHED, "stall", f"worker={worker}")
        return faults.stall_seconds

    # ------------------------------------------------------------------
    # Store plane
    # ------------------------------------------------------------------
    def store_write_error(self, now: float, nbytes: int) -> bool:
        """Should this segment append fail with a simulated I/O error?"""
        faults = self.plan.store
        if faults.write_error_rate <= 0.0 or not faults.window.contains(now):
            return False
        if self._rngs[PLANE_STORE].random() >= faults.write_error_rate:
            return False
        self._record(now, PLANE_STORE, "write_error", f"bytes={nbytes}")
        return True

    def store_torn_write(self, now: float) -> int:
        """Bytes to tear off this segment instead of sealing (0 = seal)."""
        faults = self.plan.store
        if faults.torn_write_rate <= 0.0 or not faults.window.contains(now):
            return 0
        rng = self._rngs[PLANE_STORE]
        if rng.random() >= faults.torn_write_rate:
            return 0
        tear = rng.randint(1, faults.torn_tail_bytes)
        self._record(now, PLANE_STORE, "torn_write", f"bytes={tear}")
        return tear
