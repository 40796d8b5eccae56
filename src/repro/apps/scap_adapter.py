"""Wiring a :class:`MonitorApp` onto an Scap socket.

``attach_app`` registers the three callbacks plus matching cost hooks.
``attach_app_packet_based`` instead processes streams packet-by-packet
through ``scap_next_stream_packet`` (the Fig 6 "Scap with packets"
configuration): same stream grouping, but the application looks at
individual packet payloads, so matches spanning consecutive packets
can be missed.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.api import ScapSocket, scap_next_stream_packet
from ..core.packet_delivery import ScapPacketHeader
from ..core.stream import StreamDescriptor
from .base import MonitorApp

__all__ = ["attach_app", "attach_app_packet_based"]


def attach_app(socket: ScapSocket, app: MonitorApp) -> None:
    """Register ``app``'s callbacks and cost hooks on ``socket``."""

    def on_data(stream: StreamDescriptor) -> None:
        app.on_stream_data(
            stream.five_tuple,
            stream.direction,
            stream.data_offset,
            stream.data,
            stream.data_had_hole,
        )

    _register(socket, app, on_data)


def attach_app_packet_based(socket: ScapSocket, app: MonitorApp) -> None:
    """Like :func:`attach_app`, but the data callback walks the stream's
    packets via scap_next_stream_packet (requires ``need_pkts``)."""
    if not socket.config.need_pkts:
        raise ValueError("packet-based delivery requires need_pkts=1")

    def on_data(stream: StreamDescriptor) -> None:
        header = ScapPacketHeader()
        while True:
            payload = scap_next_stream_packet(stream, header)
            if payload is None:
                break
            cursor = stream._packet_cursor - 1  # type: ignore[attr-defined]
            record = stream.packet_records[cursor]
            # Each packet is presented individually: matcher state does
            # not carry across packets (hence had_hole=True resets it).
            app.on_stream_data(
                stream.five_tuple,
                stream.direction,
                record.stream_offset,
                payload,
                had_hole=True,
            )

    _register(socket, app, on_data)


def _register(socket: ScapSocket, app: MonitorApp, on_data: Callable) -> None:
    """Register ``on_data`` and ``app``'s other callbacks and cost hooks,
    leaving out what ``app`` inherits unchanged from :class:`MonitorApp`:
    a cost hook that adds the base 0.0, a creation callback that does
    nothing.  The worker skips a hook that is None."""

    def hook(name: str, cost: Callable) -> Optional[Callable]:
        """``cost``, or None where ``app`` inherits the cost method ``name``."""
        return None if getattr(type(app), name) is getattr(MonitorApp, name) else cost

    def on_creation(stream: StreamDescriptor) -> None:
        app.on_stream_created(stream.five_tuple)

    def on_termination(stream: StreamDescriptor) -> None:
        # Scap fires one termination event per direction; apps written
        # against MonitorApp expect one per connection (as with the
        # baselines), so forward only the client direction's event.
        if stream.direction == 0:
            total = stream.stats.captured_bytes
            if stream.opposite is not None:
                total += stream.opposite.stats.captured_bytes
            app.on_stream_terminated(stream.five_tuple, total)

    creation_cost = hook("creation_cost_cycles", lambda event: app.creation_cost_cycles())
    if creation_cost is not None or type(app).on_stream_created is not MonitorApp.on_stream_created:
        socket.dispatch_creation(on_creation, cost=creation_cost)
    socket.dispatch_data(
        on_data, cost=hook("data_cost_cycles", lambda event: app.data_cost_cycles(event.data_len))
    )
    socket.dispatch_termination(
        on_termination,
        cost=hook("termination_cost_cycles", lambda event: app.termination_cost_cycles()),
    )
