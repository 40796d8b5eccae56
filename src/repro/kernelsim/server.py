"""Virtual-time queueing primitives.

The host is modeled as a network of single-server FIFO queues with
finite capacity, evaluated in packet-arrival order.  Each stage
(software-interrupt handler, PF_PACKET ring + application thread, Scap
worker thread, …) is a :class:`QueueServer`; shared buffers with
deferred reclamation (the Scap stream-data region) are a
:class:`MemoryPool`.  Everything is exact FIFO queueing — no averaging
approximations — so saturation, backlog, and loss emerge naturally.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, List, Tuple

__all__ = ["QueueServer", "MemoryPool"]


class QueueServer:  # scapcheck: single-owner
    """A single-server FIFO queue with finite capacity.

    Single-owner: a virtual-time primitive driven by exactly one
    simulated component (a core's softirq, one worker); there is no
    real concurrency to lock against.

    Capacity is in caller-defined *units* (packets for an RX ring,
    bytes for a memory-mapped buffer).  Jobs are offered in
    nondecreasing arrival-time order; each job occupies its units from
    arrival until its service completes.

    Typical use (a refused job is counted by the caller, in the one
    counter its component reports)::

        if server.would_accept(now, units):
            finish = server.push(now, units, service_seconds)
        else:
            drops += 1
    """

    def __init__(self, capacity_units: float, name: str = "server"):
        if capacity_units <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity_units
        self.name = name
        self._in_flight: Deque[Tuple[float, float]] = deque()  # (finish_time, units)
        self._occupied = 0.0
        self._last_finish = 0.0
        self.busy_seconds = 0.0

    # ------------------------------------------------------------------
    def _drain(self, now: float) -> None:
        in_flight = self._in_flight
        while in_flight and in_flight[0][0] <= now:
            self._occupied -= in_flight.popleft()[1]

    def occupancy(self, now: float) -> float:
        """Units currently queued or in service at time ``now``."""
        self._drain(now)
        return self._occupied

    def would_accept(self, now: float, units: float) -> bool:
        """True if a job of ``units`` fits at time ``now``."""
        in_flight = self._in_flight
        while in_flight and in_flight[0][0] <= now:
            self._occupied -= in_flight.popleft()[1]
        return self._occupied + units <= self.capacity

    def push(self, now: float, units: float, service_seconds: float) -> float:
        """Enqueue a job; return its service completion time.

        The caller is responsible for checking :meth:`would_accept`
        first (and counting a rejection itself otherwise).
        """
        in_flight = self._in_flight
        while in_flight and in_flight[0][0] <= now:
            self._occupied -= in_flight.popleft()[1]
        start = max(now, self._last_finish)
        finish = start + service_seconds
        self._last_finish = finish
        self._occupied += units
        self._in_flight.append((finish, units))
        self.busy_seconds += service_seconds
        return finish

    # ------------------------------------------------------------------
    @property
    def last_finish(self) -> float:
        return self._last_finish

    def utilization(self, duration: float) -> float:
        """Busy fraction over ``duration`` (capped at 1)."""
        if duration <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / duration)

    def backlog_seconds(self, now: float) -> float:
        """How far this server's work currently extends past ``now``."""
        return max(0.0, self._last_finish - now)


class MemoryPool:  # scapcheck: single-owner
    """A byte pool with time-scheduled reclamation.

    Single-owner: mutated only by the kernel module / workers of one
    runtime in virtual-time order — no lock needed.

    Models the Scap stream-data region: the kernel module allocates
    bytes as payload arrives, and each byte is reclaimed when the worker
    thread finishes processing the chunk containing it.  The pool only
    needs the *future release time*, supplied at allocation-scheduling
    time, so occupancy at any instant is exact.
    """

    def __init__(self, capacity_bytes: float, name: str = "memory"):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity_bytes
        self.name = name
        self._used = 0.0
        self._releases: List[Tuple[float, float]] = []  # heap of (time, bytes)
        self.peak_used = 0.0
        self.allocated_total = 0.0

    def advance(self, now: float) -> None:
        """Reclaim everything scheduled for release at or before ``now``."""
        releases = self._releases
        while releases and releases[0][0] <= now:
            _, nbytes = heapq.heappop(releases)
            self._used -= nbytes

    def fraction_used(self, now: float) -> float:
        """Occupied fraction of the pool at time ``now``."""
        self.advance(now)
        return self._used / self.capacity

    def try_allocate(self, now: float, nbytes: float) -> bool:
        """Allocate ``nbytes`` immediately; False if the pool is full."""
        self.advance(now)
        if self._used + nbytes > self.capacity:
            return False
        self._used += nbytes
        self.allocated_total += nbytes
        self.peak_used = max(self.peak_used, self._used)
        return True

    def schedule_release(self, release_time: float, nbytes: float) -> None:
        """Return ``nbytes`` to the pool at ``release_time``."""
        if nbytes <= 0:
            return
        heapq.heappush(self._releases, (release_time, nbytes))

    def release_now(self, now: float, nbytes: float) -> None:
        """Immediately return ``nbytes`` (e.g. data discarded by a cutoff)."""
        self.advance(now)
        self._used = max(0.0, self._used - nbytes)

    @property
    def used(self) -> float:
        return self._used
