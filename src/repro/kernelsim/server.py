"""Virtual-time queueing primitive.

The host is modeled as a network of single-server FIFO queues with
finite capacity, evaluated in packet-arrival order.  Each stage
(software-interrupt handler, PF_PACKET ring + application thread, Scap
worker thread, …) is a :class:`QueueServer`.  Everything is exact FIFO
queueing — no averaging approximations — so saturation, backlog, and
loss emerge naturally.  (Scap's stream-data region, whose bytes are
reclaimed at scheduled times rather than in FIFO order, is its own
ledger: :class:`~repro.core.memory.StreamMemory`.)
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

__all__ = ["QueueServer"]


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
        self._busy_until = 0.0  # finish time of the last job pushed
        self.busy_seconds = 0.0

    # ------------------------------------------------------------------
    def occupancy(self, now: float) -> float:
        """Units currently queued or in service at time ``now``."""
        in_flight = self._in_flight
        while in_flight and in_flight[0][0] <= now:
            self._occupied -= in_flight.popleft()[1]
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
        first (and counting a rejection itself otherwise).  Jobs that
        finished by ``now`` are not drained here: the deque stays
        finish-sorted, and every read (:meth:`would_accept`,
        :meth:`occupancy`) drains up to its own ``now`` first.
        """
        busy = self._busy_until
        start = busy if busy > now else now  # max(now, busy), ``now`` on a tie
        finish = start + service_seconds
        self._busy_until = finish
        self._occupied += units
        self._in_flight.append((finish, units))
        self.busy_seconds += service_seconds
        return finish

    def utilization(self, duration: float) -> float:
        """Busy fraction over ``duration`` (capped at 1)."""
        if duration <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / duration)
