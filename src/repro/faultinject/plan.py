"""Fault plans: the declarative description of what to break, when.

A :class:`FaultPlan` is a seed plus one config block per fault *plane*:

* **wire** — packet drop, duplication, reordering, payload corruption,
  FCS corruption (dropped by the NIC), and snaplen-style truncation,
  applied to the replayed workload before it reaches the NIC;
* **memory** — forced allocation failures in
  :class:`~repro.core.memory.StreamMemory` and an occupancy *pressure
  boost* that pushes the PPL watermark bands and ``overload_cutoff``
  into action without needing a genuinely full pool;
* **store** — segment write errors and torn tails that feed the
  store's truncation-recovery path;
* **sched** — worker service-time stalls and forced event-queue
  backpressure.

Every rate is an independent per-opportunity Bernoulli probability and
every plane has a *window* in simulated time, so a plan can model a
burst of faults mid-capture.  Plans are frozen (hashable, comparable)
and fully determine the fault schedule together with the input
workload: same plan + same trace ⇒ byte-identical schedule (see
``docs/FAULT_INJECTION.md`` for the determinism contract).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import Optional

__all__ = [
    "FaultWindow",
    "WireFaults",
    "MemoryFaults",
    "StoreFaults",
    "SchedFaults",
    "FaultPlan",
]

_INF = float("inf")


@dataclass(frozen=True)
class FaultWindow:
    """Half-open interval of *simulated* time a plane is active in."""

    start: float = 0.0
    end: float = _INF

    def contains(self, now: float) -> bool:
        """True when ``now`` falls inside the window."""
        return self.start <= now < self.end

    def validate(self) -> None:
        """Raise ValueError when the window is empty or reversed."""
        if self.end <= self.start:
            raise ValueError(f"empty fault window [{self.start}, {self.end})")


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class WireFaults:
    """Wire-plane fault rates (per replayed packet)."""

    drop_rate: float = 0.0          # packet lost before the NIC
    duplicate_rate: float = 0.0     # packet delivered twice
    reorder_rate: float = 0.0       # packet swapped with its successor
    corrupt_rate: float = 0.0       # one payload bit flipped, frame survives
    fcs_corrupt_rate: float = 0.0   # frame fails the NIC's FCS check
    truncate_rate: float = 0.0      # payload cut short (snaplen-style)
    window: FaultWindow = field(default_factory=FaultWindow)

    def active(self) -> bool:
        """True when any wire fault can ever fire."""
        return any(
            getattr(self, spec.name) > 0.0
            for spec in fields(self)
            if spec.name != "window"
        )

    def validate(self) -> None:
        """Raise ValueError on out-of-range rates or an empty window."""
        for spec in fields(self):
            if spec.name != "window":
                _check_rate(f"wire.{spec.name}", getattr(self, spec.name))
        self.window.validate()


@dataclass(frozen=True)
class MemoryFaults:
    """Memory-plane faults against :class:`~repro.core.memory.StreamMemory`."""

    alloc_failure_rate: float = 0.0  # per try_store: pretend the pool is full
    #: Added to the occupancy fraction PPL sees while the window is
    #: active (capped so the top priority's watermark is never crossed
    #: by the boost alone), forcing the watermark bands to engage.
    pressure_boost: float = 0.0
    window: FaultWindow = field(default_factory=FaultWindow)

    def active(self) -> bool:
        """True when any memory fault can ever fire."""
        return self.alloc_failure_rate > 0.0 or self.pressure_boost > 0.0

    def validate(self) -> None:
        """Raise ValueError on out-of-range knobs or an empty window."""
        _check_rate("memory.alloc_failure_rate", self.alloc_failure_rate)
        if not 0.0 <= self.pressure_boost < 1.0:
            raise ValueError(
                f"memory.pressure_boost must be in [0, 1), got {self.pressure_boost}"
            )
        self.window.validate()


@dataclass(frozen=True)
class StoreFaults:
    """Store-plane faults against the segment writer pipeline."""

    write_error_rate: float = 0.0    # per record: simulated EIO, record lost
    torn_write_rate: float = 0.0     # per seal: crash mid-footer, tail torn
    torn_tail_bytes: int = 32        # max bytes chopped off a torn segment
    window: FaultWindow = field(default_factory=FaultWindow)

    def active(self) -> bool:
        """True when any store fault can ever fire."""
        return self.write_error_rate > 0.0 or self.torn_write_rate > 0.0

    def validate(self) -> None:
        """Raise ValueError on out-of-range knobs or an empty window."""
        _check_rate("store.write_error_rate", self.write_error_rate)
        _check_rate("store.torn_write_rate", self.torn_write_rate)
        if self.torn_tail_bytes < 1:
            raise ValueError("store.torn_tail_bytes must be positive")
        self.window.validate()


@dataclass(frozen=True)
class SchedFaults:
    """Scheduling-plane faults against the worker pool."""

    stall_rate: float = 0.0          # per event: worker stalls mid-service
    stall_seconds: float = 0.001     # extra service time per stall
    backpressure_rate: float = 0.0   # per event: queue pretends to be full
    window: FaultWindow = field(default_factory=FaultWindow)

    def active(self) -> bool:
        """True when any scheduling fault can ever fire."""
        return self.stall_rate > 0.0 or self.backpressure_rate > 0.0

    def validate(self) -> None:
        """Raise ValueError on out-of-range knobs or an empty window."""
        _check_rate("sched.stall_rate", self.stall_rate)
        _check_rate("sched.backpressure_rate", self.backpressure_rate)
        if self.stall_seconds < 0:
            raise ValueError("sched.stall_seconds must be non-negative")
        self.window.validate()


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus per-plane fault configs — the whole chaos recipe.

    Each plane draws from its own :class:`random.Random` derived
    deterministically from ``seed``, so enabling one plane never
    perturbs another plane's schedule.
    """

    seed: int = 0
    wire: WireFaults = field(default_factory=WireFaults)
    memory: MemoryFaults = field(default_factory=MemoryFaults)
    store: StoreFaults = field(default_factory=StoreFaults)
    sched: SchedFaults = field(default_factory=SchedFaults)

    def validate(self) -> None:
        """Raise ValueError when any plane config is out of range."""
        self.wire.validate()
        self.memory.validate()
        self.store.validate()
        self.sched.validate()

    def active(self) -> bool:
        """True when at least one plane can inject something."""
        return (
            self.wire.active()
            or self.memory.active()
            or self.store.active()
            or self.sched.active()
        )

    @classmethod
    def randomized(
        cls, seed: int, intensity: float = 0.05, window: Optional[FaultWindow] = None
    ) -> "FaultPlan":
        """A randomized-but-seeded plan for chaos soaking.

        ``intensity`` scales the upper bound of every drawn rate; the
        draw itself comes from ``random.Random(seed)``, so the same
        seed always produces the same plan (and therefore the same
        fault schedule on the same trace).
        """
        if intensity < 0.0 or intensity > 1.0:
            raise ValueError("intensity must be in [0, 1]")
        # A str seed hashes via SHA-512 (not the salted hash()), so the
        # derived plan is identical across processes.
        rng = random.Random(f"faultplan:{seed}")
        window = window or FaultWindow()

        def rate() -> float:
            return round(rng.random() * intensity, 6)

        def store_faults() -> StoreFaults:
            write_error_rate = rate()
            rng.random()  # a retired knob's draw: later plans stay as they were
            return StoreFaults(
                write_error_rate=write_error_rate,
                torn_write_rate=rate(),
                window=window,
            )

        return cls(
            seed=seed,
            wire=WireFaults(
                drop_rate=rate(),
                duplicate_rate=rate(),
                reorder_rate=rate(),
                corrupt_rate=0.0,  # soak asserts payload integrity
                fcs_corrupt_rate=rate(),
                truncate_rate=0.0,  # soak asserts payload integrity
                window=window,
            ),
            memory=MemoryFaults(
                alloc_failure_rate=rate(),
                pressure_boost=round(rng.random() * 0.3, 6),
                window=window,
            ),
            store=store_faults(),
            sched=SchedFaults(
                stall_rate=rate(),
                backpressure_rate=rate(),
                window=window,
            ),
        )

    def describe(self) -> str:
        """One human-readable line per active plane (CLI output)."""
        lines = [f"seed={self.seed}"]
        for name in ("wire", "memory", "store", "sched"):
            plane = getattr(self, name)
            if plane.active():
                knobs = " ".join(
                    f"{spec.name}={getattr(plane, spec.name)}"
                    for spec in fields(plane)
                    if spec.name != "window" and getattr(plane, spec.name)
                )
                lines.append(f"{name}: {knobs}")
        return "\n".join(lines)
