"""Speed normalisation: a reference loop read around every timed operation.

The machines this runs on are shared.  A neighbour on the same physical
core slows everything by up to half for seconds or minutes at a time
(README, "Why the figures are speed-normalised", has the traces), so
the wall time of identical work differs more between two runs of one
commit than any bound this benchmark could state.

The remedy is the one hardware counters would give if there were any: a
fixed piece of pure-Python work — :func:`reference_loop`, which nothing
under ``src/`` can change — is timed just before and just after every
timed operation, on the same CPU.  The operation's time is divided by
how much slower than :data:`REFERENCE_SECONDS` the loop ran, so every
figure reads as it would on a machine that runs the loop in exactly
that time.  Ratios between two commits are unchanged by this; the host's
mood is divided out.  Raw medians and the factors are kept in the
``--detail`` file.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Tuple, TypeVar

__all__ = ["REFERENCE_SECONDS", "reference_loop", "Speed", "pin_to_fastest_cpu"]

#: The loop time the figures are normalised to (this class of machine
#: with its core to itself).  A constant: it only fixes the scale.
REFERENCE_SECONDS = 0.0020

#: A reading older than this is taken again before it is used.
_STALE_SECONDS = 0.02

T = TypeVar("T")


class _Cell:
    __slots__ = ("count", "data")

    def __init__(self, count: int, data: bytes):
        self.count = count
        self.data = data

    def bump(self, amount: int) -> int:
        self.count += amount
        return self.count


def reference_loop() -> float:
    """Seconds one pass of the reference work takes right now.

    The mix is the interpreter's usual one in this repository's hot
    path: small-object allocation, attribute and method access, dict
    get/set, list growth, bytes slicing.
    """
    start = time.perf_counter()
    table = {}
    kept: List[int] = []
    blob = bytes(1500)
    for index in range(4000):
        cell = _Cell(index, blob[: index & 255])
        table[index & 1023] = cell
        kept.append(cell.bump(index))
        if table.get(index >> 1) is not None:
            kept.pop()
    return time.perf_counter() - start


class Speed:
    """Reads the reference loop around timed operations."""

    def __init__(self) -> None:
        self.factors: List[float] = []
        self._last = reference_loop()
        self._last_at = time.perf_counter()

    def reading(self, fresh: bool = False) -> float:
        if fresh or time.perf_counter() - self._last_at > _STALE_SECONDS:
            self._last = reference_loop()
            self._last_at = time.perf_counter()
        return self._last

    def factor_since(self, before: float) -> float:
        """How much slower than the reference the machine ran between the
        reading ``before`` and one taken now: divide times by it,
        multiply rates by it.  Call it once the CPU is idle again."""
        after = self.reading(fresh=True)
        factor = (before + after) / 2.0 / REFERENCE_SECONDS
        self.factors.append(factor)
        return factor

    def timed(self, op: Callable[[], T]) -> Tuple[T, float, float, float]:
        """``(result, wall_s, cpu_s, factor)`` of one call of ``op``."""
        before = self.reading()
        cpu_start = time.process_time()
        start = time.perf_counter()
        result = op()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        return result, wall, cpu, self.factor_since(before)

    def block(self, op: Callable[[], None], count: int) -> Tuple[List[float], float]:
        """``count`` calls of ``op``, each timed, under one pair of
        readings: ``(raw seconds of each call, factor)``.  For
        operations too short to bracket one by one."""
        before = self.reading()
        raw = []
        clock = time.perf_counter
        for _ in range(count):
            start = clock()
            op()
            raw.append(clock() - start)
        return raw, self.factor_since(before)


def pin_to_fastest_cpu() -> int:
    """Pin this process (and the daemon it will start) to one CPU: the
    one on which the reference loop runs fastest right now.

    The reference readings then describe the core every timed operation
    runs on, which they cannot when the scheduler moves the process, or
    the daemon works on another core with another neighbour.
    """
    allowed = sorted(os.sched_getaffinity(0))
    best_cpu, best_time = allowed[0], float("inf")
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        elapsed = min(reference_loop() for _ in range(5))
        if elapsed < best_time:
            best_cpu, best_time = cpu, elapsed
    os.sched_setaffinity(0, {best_cpu})
    return best_cpu
