"""Deterministic fault injection for the capture pipeline.

Four fault *planes* — wire, memory, store, scheduling — driven by one
seeded :class:`FaultPlan` and applied by a :class:`FaultInjector`
threaded through the runtime via ``scap_create(..., fault_plan=)``.
Same plan + same workload ⇒ byte-identical fault schedule (see
``docs/FAULT_INJECTION.md``).

The chaos soak harness lives in :mod:`repro.faultinject.soak`; it is
deliberately *not* imported here because it drives the full core
pipeline, which in turn imports this package.
"""

from .injector import FaultInjector, FaultRecord
from .plan import (
    FaultPlan,
    FaultWindow,
    MemoryFaults,
    SchedFaults,
    StoreFaults,
    WireFaults,
)
from .wire import FaultedWorkload

__all__ = [
    "FaultPlan",
    "FaultWindow",
    "WireFaults",
    "MemoryFaults",
    "StoreFaults",
    "SchedFaults",
    "FaultInjector",
    "FaultRecord",
    "FaultedWorkload",
]
