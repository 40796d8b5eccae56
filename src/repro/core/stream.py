"""The ``stream_t`` descriptor exposed to applications (§3.2).

One :class:`StreamDescriptor` exists per stream *direction*; the two
directions of a TCP connection point at each other through
``opposite``.  The descriptor carries identity (five-tuple, direction),
status and error flags, statistics counters, per-stream parameters
(cutoff, priority, chunk size, …), and — during a data-event callback —
the current chunk via ``data`` / ``data_len``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional

from ..netstack.flows import FiveTuple
from .constants import SCAP_UNLIMITED_CUTOFF, StreamError, StreamStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .packet_delivery import PacketRecord

__all__ = ["StreamStats", "StreamDescriptor"]

_stream_ids = itertools.count()


@dataclass
class StreamStats:
    """Per-stream counters (all/captured/dropped/discarded, timestamps).

    ``bytes`` counts every byte that belonged to the stream on the
    wire; when the NIC dropped packets via FDIR, FIN/RST sequence
    numbers recover them (§5.5).  ``pkts`` counts only the packets
    that reached the host: a dropped packet's count cannot be recovered
    that way.  ``captured`` is what reached stream memory,
    ``discarded`` what the cutoff intentionally skipped, ``dropped``
    what was lost to overload.
    """

    bytes: int = 0
    pkts: int = 0
    captured_bytes: int = 0
    captured_pkts: int = 0
    discarded_bytes: int = 0
    discarded_pkts: int = 0
    dropped_bytes: int = 0
    dropped_pkts: int = 0
    start: float = 0.0
    end: float = 0.0


@dataclass
class StreamDescriptor:
    """A ``stream_t``: everything the application can see about a stream."""

    five_tuple: FiveTuple
    direction: int
    protocol: int
    stream_id: int = field(default_factory=lambda: next(_stream_ids))

    status: str = StreamStatus.ACTIVE
    error: int = StreamError.NONE
    stats: StreamStats = field(default_factory=StreamStats)

    # Per-stream parameters (None means "inherit the socket default").
    cutoff: int = SCAP_UNLIMITED_CUTOFF
    priority: int = 0
    chunk_size: Optional[int] = None
    overlap_size: Optional[int] = None
    flush_timeout: Optional[float] = None
    inactivity_timeout: Optional[float] = None
    reassembly_mode: Optional[int] = None
    reassembly_policy: Optional[str] = None

    #: The opposite direction of the same connection, if any.
    opposite: "StreamDescriptor | None" = None

    # Set for the duration of a data-event callback.
    data: bytes = b""
    data_len: int = 0
    #: Stream byte offset of ``data[0]`` (chunk position in the stream).
    data_offset: int = 0
    #: True if reassembly skipped a hole somewhere in ``data``.
    data_had_hole: bool = False

    # Monitoring introspection (§3.2: slow-stream detection).
    processing_time: float = 0.0
    chunks: int = 0

    #: True once the application called scap_discard_stream().
    discarded_by_app: bool = False
    #: True while the stream's data is being cut off (status may still be
    #: ACTIVE because monitoring continues for statistics).
    cutoff_exceeded: bool = False

    #: Application scratch space (like pcap user data).
    user: Any = None

    #: Per-packet records when the socket was created with need_pkts.
    packet_records: "List[PacketRecord]" = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def hdr(self) -> "StreamDescriptor":
        """The paper's ``sd->hdr`` accessor (addresses/ports/protocol).

        The C struct nests identity fields under ``hdr``; here they
        live on the descriptor itself, so ``sd.hdr.src_ip`` and
        ``sd.src_ip`` are the same thing — both spellings work, and the
        §3.3.1 listing translates verbatim.
        """
        return self

    @property
    def src_ip(self) -> int:
        return self.five_tuple.src_ip

    @property
    def dst_ip(self) -> int:
        return self.five_tuple.dst_ip

    @property
    def src_port(self) -> int:
        return self.five_tuple.src_port

    @property
    def dst_port(self) -> int:
        return self.five_tuple.dst_port

    @property
    def connection_id(self) -> int:
        """One id per connection, shared by both of its directions.

        Descriptors are created in pairs, so client ids share parity;
        the halving makes consecutive connections consecutive ids, which
        spreads them round-robin under a modulo.
        """
        if self.direction and self.opposite is not None:
            return self.opposite.stream_id >> 1
        return self.stream_id >> 1

    @property
    def is_active(self) -> bool:
        return self.status in (StreamStatus.ACTIVE, StreamStatus.CUTOFF)

    @property
    def duration(self) -> float:
        return max(0.0, self.stats.end - self.stats.start)

    def set_error(self, flag: int) -> None:
        """Set a StreamError bit on ``sd.error``."""
        self.error |= flag

    def has_error(self, flag: int) -> bool:
        """True if the StreamError bit ``flag`` is set."""
        return bool(self.error & flag)

    def __str__(self) -> str:
        return (
            f"stream#{self.stream_id} {self.five_tuple} dir={self.direction} "
            f"status={self.status} bytes={self.stats.bytes}"
        )
