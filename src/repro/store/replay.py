"""Replay: a stored query result becomes a trace source again.

The store persists *reassembled stream bytes*, not packets, so replay
synthesizes clean sessions around the stored payloads: for every TCP
connection in a :class:`~repro.store.query.QueryResult` a full
handshake/data/teardown session is rebuilt with
:class:`~repro.traffic.tcpsession.TCPSessionBuilder` (no impairments —
the stored bytes are already the reassembled truth), and every UDP
connection becomes a datagram sequence.  The resulting
:class:`~repro.traffic.trace.Trace` plugs into ``scap_create`` /
``runtime.run`` exactly like a generated workload, closing the
record → query → replay loop.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..netstack.flows import FiveTuple
from ..netstack.ip import IPProtocol
from ..netstack.packet import Packet
from ..traffic.tcpsession import SessionMessage, TCPSessionBuilder, build_udp_flow
from ..traffic.trace import FlowSpec, Trace
from .query import StreamPayload

__all__ = ["StoredStreamSource", "UDP_REPLAY_MTU"]

#: Stored UDP stream bytes are re-chunked into datagrams of this size.
UDP_REPLAY_MTU = 1400


class StoredStreamSource:
    """Adapts a query result into a replayable :class:`Trace`.

    Connections are emitted in first-timestamp order, each starting at
    its original simulated capture time, so the replayed trace keeps
    the recorded timeline (rescale with ``Trace.replay`` as usual).
    """

    def __init__(self, result, name: str = "stored-replay"):
        self.result = result
        self.name = name

    def as_trace(self) -> Trace:
        """Synthesize the replay trace from the stored streams."""
        connections: Dict[FiveTuple, Dict[int, StreamPayload]] = {}
        order: List[Tuple[float, FiveTuple]] = []
        for stream in self.result:
            if stream.client_tuple not in connections:
                connections[stream.client_tuple] = {}
                order.append((stream.first_ts, stream.client_tuple))
            connections[stream.client_tuple][stream.direction] = stream
        order.sort(key=lambda item: (item[0], item[1]))
        packets: List[Packet] = []
        flows: List[FlowSpec] = []
        for index, (start_ts, client_tuple) in enumerate(order):
            directions = connections[client_tuple]
            client = directions.get(0)
            server = directions.get(1)
            messages = _interleave(client, server)
            if client_tuple.protocol == IPProtocol.UDP:
                flow_packets = build_udp_flow(
                    client_tuple,
                    [
                        (direction, chunk)
                        for direction, data in messages
                        for chunk in _chunks(data, UDP_REPLAY_MTU)
                    ],
                    start_time=start_ts,
                )
            else:
                builder = TCPSessionBuilder(client_tuple, start_time=start_ts)
                flow_packets = builder.build(
                    [SessionMessage(direction, data) for direction, data in messages]
                )
            packets.extend(flow_packets)
            flows.append(
                FlowSpec(
                    index=index,
                    five_tuple=client_tuple,
                    protocol=client_tuple.protocol,
                    client_bytes=len(client.data) if client else 0,
                    server_bytes=len(server.data) if server else 0,
                    start_time=start_ts,
                    packet_count=len(flow_packets),
                )
            )
        return Trace(packets, flows, name=self.name)


def _interleave(client, server) -> List[Tuple[int, bytes]]:
    """Order the two directions' payloads by their first timestamps.

    The store keeps one reassembled payload per direction, so the finest
    replay granularity is direction-level: the direction captured first
    sends first, request/response style.
    """
    messages: List[Tuple[float, int, bytes]] = []
    if client is not None and client.data:
        messages.append((client.first_ts, 0, client.data))
    if server is not None and server.data:
        messages.append((server.first_ts, 1, server.data))
    messages.sort(key=lambda item: (item[0], item[1]))
    return [(direction, data) for _ts, direction, data in messages]


def _chunks(data: bytes, size: int) -> List[bytes]:
    return [data[index : index + size] for index in range(0, len(data), size)]
