"""Service mode: the capture daemon and its remote client API.

The paper's deployment model puts the Stream abstraction behind a
shared kernel-module boundary; this package is the reproduction's
equivalent — a long-running :class:`ScapDaemon` that owns the capture
pipeline and stream store, and a :class:`ScapClient` that drives it
remotely over Unix/TCP sockets with the length-framed protocol of
:mod:`repro.service.protocol`.  See ``docs/SERVICE.md`` for the wire
format, message catalog, quota semantics, and failure modes.
"""

from .client import CallTimeout, EventStream, RemoteCallError, ScapClient
from .daemon import DaemonConfig, ScapDaemon
from .owner import trace_to_pcap_bytes
from .protocol import (
    COMMANDS,
    ERROR_CODES,
    IDEMPOTENT_COMMANDS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Frame,
    FrameReader,
    FrameRejection,
    ProtocolError,
    ServiceError,
    decode_frame_body,
    encode_frame,
)
from .session import ClientQuotas, ClientSession, SessionLedger, Subscription

__all__ = [
    "ScapDaemon",
    "DaemonConfig",
    "ScapClient",
    "EventStream",
    "RemoteCallError",
    "CallTimeout",
    "ClientQuotas",
    "ClientSession",
    "SessionLedger",
    "Subscription",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "COMMANDS",
    "IDEMPOTENT_COMMANDS",
    "ERROR_CODES",
    "Frame",
    "FrameReader",
    "FrameRejection",
    "ProtocolError",
    "ServiceError",
    "encode_frame",
    "decode_frame_body",
    "trace_to_pcap_bytes",
]
