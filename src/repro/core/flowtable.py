"""The kernel module's stream table (§5.2).

One hash lookup takes a packet to its ``stream_t``: the table indexes
the *directional* five-tuple every packet already carries to a
:class:`FlowRecord` — the stream descriptor of that direction, its
reassembler and chunk assembler, and the :class:`StreamPair` joining it
to the opposite direction.  Both directions are installed when the pair
is created and deleted wherever the pair leaves (:meth:`FlowTable.remove`,
record-budget eviction, :meth:`FlowTable.expire_idle`,
:meth:`FlowTable.drain`), so a record can never outlive its connection
and nothing in front of the table caches it.

An *access list* (here an ``OrderedDict`` of pairs, which is exactly a
hash table threaded onto an LRU list) keeps connections sorted by last
access so inactivity expiration pops from the cold end in O(expired),
as described in the paper.

There is no hard stream limit: records are allocated on demand.  When
an optional record budget is exhausted (modeling "no more free
memory"), the *oldest* stream is evicted to make room — Scap's policy
of always storing newer streams (§6.4).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..netstack.flows import CLIENT_TO_SERVER, SERVER_TO_CLIENT, FiveTuple
from ..sanitizers.race import race_detector_from_env
from .memory import ChunkAssembler
from .reassembly import TCPDirectionReassembler
from .stream import StreamDescriptor

__all__ = ["FlowRecord", "StreamPair", "FlowTable"]


class FlowRecord:
    """Everything the hot path needs for one direction of a connection.

    What the table's directional index resolves a packet's five-tuple
    to: the pair, this direction's stream descriptor and index, the
    stream's string label (``str(five_tuple)`` is the single most
    expensive per-store operation, so it is computed once here), and —
    created on first use — the direction's reassembler and chunk
    assembler.
    """

    __slots__ = ("pair", "stream", "direction", "label", "reassembler", "assembler")

    def __init__(self, pair: "StreamPair", stream: StreamDescriptor):
        self.pair = pair
        self.stream = stream
        self.direction = stream.direction
        self.label = str(stream.five_tuple)
        self.reassembler: Optional[TCPDirectionReassembler] = None
        self.assembler: Optional[ChunkAssembler] = None


@dataclass
class StreamPair:
    """Both directions of one connection plus their shared state."""

    key: FiveTuple  # canonical
    client: StreamDescriptor  # direction 0: as seen from the first packet
    server: StreamDescriptor  # direction 1
    last_access: float = 0.0
    core: int = 0
    #: The two per-direction records, indexed by direction (emptied when
    #: the kernel module has terminated the pair).
    records: Tuple[FlowRecord, ...] = field(init=False, repr=False)

    # TCP connection-state tracking.
    syn_seen: bool = False
    established: bool = False
    fin_seen: Tuple[bool, bool] = (False, False)

    # FDIR integration (§5.5).
    nic_filters_installed: bool = False
    filter_timeout_interval: float = 0.0

    def __post_init__(self) -> None:
        self.records = (FlowRecord(self, self.client), FlowRecord(self, self.server))

    def descriptor(self, direction: int) -> StreamDescriptor:
        """The stream_t for one direction of the connection."""
        return self.client if direction == CLIENT_TO_SERVER else self.server

    def direction_of(self, five_tuple: FiveTuple) -> int:
        """Which direction a directional five-tuple corresponds to."""
        return CLIENT_TO_SERVER if five_tuple == self.client.five_tuple else SERVER_TO_CLIENT

    @property
    def both(self) -> Tuple[StreamDescriptor, StreamDescriptor]:
        return (self.client, self.server)


class FlowTable:  # scapcheck: single-owner
    """Directional index + LRU access list over :class:`StreamPair` records.

    Single-owner: only the kernel module mutates the table, from the
    (serialized) softirq path of the simulated host — no lock needed.
    """

    def __init__(
        self, max_streams: Optional[int] = None, sanitizers: Optional[object] = None
    ):
        # Access list: canonical key -> pair, coldest first.
        self._table: "OrderedDict[FiveTuple, StreamPair]" = OrderedDict()
        # Directional five-tuple -> record; both directions of every
        # pair in ``_table`` and nothing else.
        self._index: Dict[FiveTuple, FlowRecord] = {}
        self._san = sanitizers
        self.max_streams = max_streams
        self.created_total = 0
        self.evicted_total = 0
        # Stream ids are allocated per table, not from the module-global
        # counter: ids must restart at 0 for every capture so that
        # id-derived decisions (worker affinity, store queue mapping)
        # are reproducible run over run within one process.
        self._ids = itertools.count()
        # SCAP_RACE=1: enforce the single-owner claim above at runtime.
        self._race = race_detector_from_env()
        self._race_token = (
            self._race.register("FlowTable") if self._race is not None else 0
        )

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[StreamPair]:
        return iter(self._table.values())

    # ------------------------------------------------------------------
    def lookup(self, five_tuple: FiveTuple) -> Optional[FlowRecord]:
        """The record of the direction ``five_tuple`` names, or None.

        The one hash lookup of the per-packet path; LRU order is left
        alone (the caller follows a hit with :meth:`touch`).
        """
        record = self._index.get(five_tuple)
        if (
            self._san is not None
            and record is not None
            and self._table.get(record.pair.key) is not record.pair
        ):
            self._san.fail(
                "flow-cache-coherence",
                "indexed flow record outlived its flow-table pair",
                five_tuple=record.label,
            )
        return record

    def get(self, five_tuple: FiveTuple) -> Optional[StreamPair]:
        """Find a pair by either direction's tuple, without touching LRU order."""
        record = self.lookup(five_tuple)
        return record.pair if record is not None else None

    def touch(self, pair: StreamPair, now: float) -> None:
        """Refresh the pair's position in the access list."""
        pair.last_access = now
        self._table.move_to_end(pair.key)

    def lookup_or_create(
        self, five_tuple: FiveTuple, now: float
    ) -> Tuple[StreamPair, bool, List[StreamPair]]:
        """Find or create the pair for ``five_tuple``.

        Returns ``(pair, created, evicted)`` where ``evicted`` lists
        pairs removed to make room (the caller must emit their
        termination events).  The kernel calls this only after
        :meth:`lookup` missed, so a miss costs no second lookup call.
        """
        if self._race is not None:
            self._race.check(self._race_token, op="lookup_or_create")
        if five_tuple in self._index:
            record = self.lookup(five_tuple)
            self.touch(record.pair, now)
            return record.pair, False, []
        evicted: List[StreamPair] = []
        if self.max_streams is not None:
            while len(self._table) >= self.max_streams:
                _, victim = self._table.popitem(last=False)
                self._index.pop(victim.client.five_tuple, None)
                self._index.pop(victim.server.five_tuple, None)
                self.evicted_total += 1
                evicted.append(victim)
        # FiveTuple.reversed and canonical, inlined.
        src_ip, src_port, dst_ip, dst_port, protocol = five_tuple
        reverse = tuple.__new__(FiveTuple, (dst_ip, dst_port, src_ip, src_port, protocol))
        client = StreamDescriptor(
            five_tuple=five_tuple,
            direction=CLIENT_TO_SERVER,
            protocol=protocol,
            stream_id=next(self._ids),
        )
        server = StreamDescriptor(
            five_tuple=reverse,
            direction=SERVER_TO_CLIENT,
            protocol=protocol,
            stream_id=next(self._ids),
        )
        client.opposite = server
        server.opposite = client
        client.stats.start = server.stats.start = now
        pair = StreamPair(
            key=five_tuple if (src_ip, src_port) <= (dst_ip, dst_port) else reverse,
            client=client, server=server, last_access=now,
        )
        self._table[pair.key] = pair
        # Server first: should both directions carry the same tuple
        # (source == destination), it names the client direction.
        for record in reversed(pair.records):
            self._index[record.stream.five_tuple] = record
        self.created_total += 1
        return pair, True, evicted

    def remove(self, pair: StreamPair) -> None:
        """Drop a pair from the table (stream terminated)."""
        if self._race is not None:
            self._race.check(self._race_token, op="remove")
        if self._table.get(pair.key) is pair:
            del self._table[pair.key]
            self._index.pop(pair.client.five_tuple, None)
            self._index.pop(pair.server.five_tuple, None)

    # ------------------------------------------------------------------
    def expire_idle(self, now: float, default_timeout: float) -> List[StreamPair]:
        """Pop streams idle past their inactivity timeout.

        Scans from the cold end of the access list; stops at the first
        pair that is not even default-expired, so cost is proportional
        to the number of expirations.
        """
        if self._race is not None:
            self._race.check(self._race_token, op="expire_idle")
        expired: List[StreamPair] = []
        requeue: List[StreamPair] = []
        while self._table:
            key = next(iter(self._table))
            pair = self._table[key]
            idle = now - pair.last_access
            if idle <= default_timeout:
                break
            timeout = default_timeout
            overrides = [
                d.inactivity_timeout
                for d in pair.both
                if d.inactivity_timeout is not None
            ]
            if overrides:
                timeout = max(overrides)
            if idle > timeout:
                del self._table[key]
                self._index.pop(pair.client.five_tuple, None)
                self._index.pop(pair.server.five_tuple, None)
                expired.append(pair)
            else:
                # Default-expired but stream-timeout still running: move
                # it off the cold end so the scan can proceed.
                self._table.move_to_end(key)
                requeue.append(pair)
                if len(requeue) > 64:
                    break
        return expired

    def drain(self) -> List[StreamPair]:
        """Remove and return every pair (end of capture)."""
        if self._race is not None:
            self._race.check(self._race_token, op="drain")
        pairs = list(self._table.values())
        self._table.clear()
        self._index.clear()
        return pairs
