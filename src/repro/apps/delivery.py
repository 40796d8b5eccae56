"""Plain stream delivery — the Fig 4 workload.

Receives every reassembled stream with no further processing; measures
the pure cost of getting streams to user level (for the baselines this
includes the user-level reassembly copy Scap avoids).
"""

from __future__ import annotations

from typing import Dict

from ..netstack.flows import FiveTuple
from .base import MonitorApp

__all__ = ["StreamDeliveryApp"]


class StreamDeliveryApp(MonitorApp):
    """Counts delivered bytes per stream; zero application cost."""

    name = "stream-delivery"

    def __init__(self) -> None:
        super().__init__()
        self.bytes_per_stream: Dict[FiveTuple, int] = {}

    def reset(self) -> None:
        """Clear accumulated results for a fresh run."""
        super().reset()
        self.bytes_per_stream.clear()

    def on_stream_data(
        self,
        five_tuple: FiveTuple,
        direction: int,
        offset: int,
        data: bytes,
        had_hole: bool = False,
    ) -> None:
        # MonitorApp.on_stream_data, inlined: this runs once per chunk.
        size = len(data)
        self.delivered_bytes += size
        self.streams_with_data.add(five_tuple)
        self.bytes_per_stream[five_tuple] = self.bytes_per_stream.get(five_tuple, 0) + size
