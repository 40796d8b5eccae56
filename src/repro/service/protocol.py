"""The versioned, length-framed wire protocol of the capture daemon.

Every message on a service connection is one **frame**:

====== ======== =====================================================
offset size     field
====== ======== =====================================================
0      4        ``length`` — big-endian u32, bytes after this field
4      1        ``version`` — :data:`PROTOCOL_VERSION`
5      1        ``msg_type`` — REQUEST / RESPONSE / EVENT / ERROR
6      4        ``request_id`` — big-endian u32 (0 for unsolicited)
10     4        ``header_len`` — big-endian u32
14     varies   ``header`` — UTF-8 JSON object, ``header_len`` bytes
14+hl  varies   ``payload`` — raw bytes, the rest of the frame
====== ======== =====================================================

The JSON header carries the command name and its arguments; bulk data
(pcap bytes, stream payloads, subscribed chunks) rides in the binary
payload so it is never base64-inflated.  A message that carries many
items — a query reply's streams, an event frame's events — leaves only
their count in the header: each item is one fixed-width row
(:data:`STREAM_ROW`, :data:`EVENT_ROW`) at the head of the payload, and
the items' bytes follow the rows in row order.  A command travels as its
name in the header; :data:`COMMANDS` lists every name the daemon serves.

A frame leaves as the buffers it already is (:func:`frame_parts`),
written by gathered writes (:func:`write_parts`).

Robustness contract (see ``docs/SERVICE.md``): the daemon, which faces
untrusted peers, must *reject the frame*, not the connection, when it
receives an oversized, zero-length, or undecodable one —
:class:`FrameReader` therefore reports malformed input as
:class:`FrameRejection` records (with the bytes skipped) and keeps
scanning, so the daemon can answer with a typed error response and
carry on serving.  The client reads with a :class:`FrameReceiver`,
which receives each frame straight into its own buffer and for which a
malformed frame means the transport is gone.
"""

from __future__ import annotations

import json
import os
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "PROTOCOL_VERSION",
    "PROTOCOL_MINOR",
    "MAX_FRAME_BYTES",
    "REJECT_ZERO_LENGTH",
    "REJECT_OVERSIZED",
    "REJECT_UNDECODABLE",
    "REJECT_CATEGORIES",
    "MSG_REQUEST",
    "MSG_RESPONSE",
    "MSG_EVENT",
    "MSG_ERROR",
    "MSG_NAMES",
    "EVENT_KINDS",
    "EVENT_CODES",
    "ROWS_MINOR",
    "STREAM_ROW",
    "EVENT_ROW",
    "COMMANDS",
    "IDEMPOTENT_COMMANDS",
    "ERR_BAD_FRAME",
    "ERR_BAD_REQUEST",
    "ERR_UNAUTHORIZED",
    "ERR_QUOTA",
    "ERR_UNKNOWN_COMMAND",
    "ERR_SHUTTING_DOWN",
    "ERR_TIMEOUT",
    "ERR_INTERNAL",
    "ERROR_CODES",
    "ServiceError",
    "ProtocolError",
    "FrameTooLarge",
    "ZeroLengthFrame",
    "Frame",
    "FrameRejection",
    "FrameReader",
    "FrameReceiver",
    "RECV_BYTES",
    "IOV_MAX",
    "GATHER_MIN_BYTES",
    "frame_parts",
    "encode_frame",
    "event_parts",
    "frame_size",
    "write_parts",
    "split_events",
    "split_streams",
    "decode_frame_body",
]

#: Protocol revision carried in every frame; peers reject mismatches.
PROTOCOL_VERSION = 1

#: Minor revision, advertised in ``hello`` but *not* on the wire byte.
#: Minor 1 added the optional ``trace`` header key carrying span context
#: (see ``repro.observability.spans``), which old peers ignore.  Minor 2
#: changed the event frame: one ``MSG_EVENT`` frame carries a run of one
#: subscription's events (:func:`event_parts`).  Minor 3 moved the
#: per-item metadata of query replies and event frames out of the JSON
#: header into fixed binary rows (:data:`STREAM_ROW`, :data:`EVENT_ROW`),
#: so a client declares ``protocol_minor`` >= :data:`ROWS_MINOR` in its
#: ``hello`` before it may ``query`` or ``subscribe``.
PROTOCOL_MINOR = 3

#: The first minor whose query replies and event frames carry rows; the
#: only shape the daemon sends and the client reads.
ROWS_MINOR = 3

#: The default bound on ``length``: a :class:`FrameReader` rejects (and
#: skips) a larger declaration without ever buffering the oversized body.
#: A daemon's readers use its ``DaemonConfig.max_frame_bytes`` and it
#: names that bound in its ``hello`` reply, so a client sends frames up to it.
MAX_FRAME_BYTES = 16 << 20

#: The largest ``length`` the 32-bit prefix can declare.
MAX_LENGTH_PREFIX = 0xFFFFFFFF

#: Bytes one ``recv`` asks for: every read of the daemon's, and a
#: client's while no frame's length is known (:class:`FrameReceiver`).
RECV_BYTES = 1 << 16

#: The most buffers one ``sendmsg`` call takes.
IOV_MAX = os.sysconf("SC_IOV_MAX")

#: The least average size of a payload's buffers for its frame to leave
#: as those buffers: a gathered write costs about as much per buffer as
#: copying 2 KiB, so a payload of smaller ones is joined instead.
GATHER_MIN_BYTES = 2048

#: A frame payload: its bytes, or the buffers it is the concatenation of.
Payload = Union[bytes, List[bytes]]

# Message types.
MSG_REQUEST = 1
MSG_RESPONSE = 2
MSG_EVENT = 3
MSG_ERROR = 4

MSG_NAMES = {
    MSG_REQUEST: "request",
    MSG_RESPONSE: "response",
    MSG_EVENT: "event",
    MSG_ERROR: "error",
}

#: Every command the daemon serves, by the name a request header
#: carries: its handler table and its metric labels.
COMMANDS = (
    "hello", "ping", "submit_trace",
    "install_filter", "remove_filter", "set_cutoff", "set_priority", "remove_priority",
    "subscribe", "unsubscribe", "query", "stats", "spans", "telemetry",
    "health", "reload", "shutdown",
)

#: Commands safe to retry after a timeout (no server-side state change).
IDEMPOTENT_COMMANDS = frozenset(
    {"ping", "query", "stats", "spans", "telemetry", "health"}
)

# Typed error codes (the ``code`` field of MSG_ERROR headers).
ERR_BAD_FRAME = "bad_frame"
ERR_BAD_REQUEST = "bad_request"
ERR_UNAUTHORIZED = "unauthorized"
ERR_QUOTA = "quota_exceeded"
ERR_UNKNOWN_COMMAND = "unknown_command"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_TIMEOUT = "timeout"
ERR_INTERNAL = "internal"

ERROR_CODES = (
    ERR_BAD_FRAME,
    ERR_BAD_REQUEST,
    ERR_UNAUTHORIZED,
    ERR_QUOTA,
    ERR_UNKNOWN_COMMAND,
    ERR_SHUTTING_DOWN,
    ERR_TIMEOUT,
    ERR_INTERNAL,
)

# Structural categories of rejected frames (the ``category`` of a
# :class:`FrameRejection`, and the ``reason`` label of the daemon's
# ``scap_service_bad_frames_total`` counter).
REJECT_ZERO_LENGTH = "zero_length"
REJECT_OVERSIZED = "oversized"
REJECT_UNDECODABLE = "undecodable"

REJECT_CATEGORIES = (
    REJECT_ZERO_LENGTH,
    REJECT_OVERSIZED,
    REJECT_UNDECODABLE,
)

#: Stream lifecycle events a subscription can select, in the order of
#: their codes: an event row carries ``EVENT_CODES[kind]``.
EVENT_KINDS = ("created", "data", "closed")
EVENT_CODES: Dict[str, int] = {kind: code for code, kind in enumerate(EVENT_KINDS)}

#: One stream of a ``query`` reply (50 bytes): the client
#: five-tuple (src ip u32, src port u16, dst ip u32, dst port u16,
#: protocol u8), direction u8, len u32, first_ts f64, last_ts f64,
#: base_offset u64, gap_bytes u64.
STREAM_ROW = struct.Struct("!IHIHBBIddQQ")
#: One event of a ``MSG_EVENT`` frame (43 bytes): kind code u8, capture
#: u64, the five-tuple as in :data:`STREAM_ROW`, direction u8, stream_id
#: u64, offset u64, len u32.
EVENT_ROW = struct.Struct("!BQIHIHBBQQI")
_STREAM_LEN = 6  # the ``len`` field's index in a STREAM_ROW
_EVENT_LEN = 10  # and in an EVENT_ROW

_FIXED = struct.Struct("!BBII")  # version, msg_type, request_id, header_len
_LENGTH = struct.Struct("!I")
_PREFIX = struct.Struct("!IBBII")  # the length, then the fixed fields
#: One encoder for every header (``json.dumps`` with these arguments
#: builds a new one per call); its output is what ``json.dumps`` gives.
_encode_header = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode

#: Smallest legal ``length`` value: the fixed fields with an empty header.
MIN_FRAME_BYTES = _FIXED.size


class ServiceError(Exception):
    """Base class for service-plane failures, carrying a typed code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class ProtocolError(ServiceError):
    """A malformed frame or an out-of-contract message."""

    def __init__(self, message: str, code: str = ERR_BAD_FRAME):
        super().__init__(code, message)


class FrameTooLarge(ProtocolError):
    """Declared frame length exceeds the negotiated maximum."""


class ZeroLengthFrame(ProtocolError):
    """Declared frame length is zero (an empty frame is meaningless)."""


@dataclass
class Frame:
    """One decoded protocol frame."""

    msg_type: int
    request_id: int
    header: Dict[str, object] = field(default_factory=dict)
    #: ``bytes``, or a read-only view of the buffer the frame was
    #: received into (:func:`decode_frame_body`).
    payload: Union[bytes, memoryview] = b""
    version: int = PROTOCOL_VERSION

    @property
    def command(self) -> str:
        """The request's command name ("" when the header names none)."""
        return str(self.header.get("command", ""))


@dataclass
class FrameRejection:
    """A malformed frame that was skipped instead of killing the link."""

    reason: str          # an ERR_* code, usually ERR_BAD_FRAME
    detail: str          # human-readable diagnosis
    skipped_bytes: int   # wire bytes consumed while resynchronizing
    category: str = REJECT_UNDECODABLE  # a REJECT_* structural category


def frame_parts(
    msg_type: int,
    request_id: int,
    header: Optional[Dict[str, object]] = None,
    payload: Payload = b"",
    version: int = PROTOCOL_VERSION,
    limit: int = MAX_FRAME_BYTES,
) -> List[bytes]:
    """One frame as the buffers its wire bytes are the concatenation of.

    The first is one ``bytes`` holding the length prefix, the fixed
    fields and the JSON header; the rest are ``payload`` itself (its
    bytes, none when empty, or the list of buffers it is the
    concatenation of), not copied — unless those buffers average under
    :data:`GATHER_MIN_BYTES`, when they are joined into one.  A frame
    whose ``length`` would exceed ``limit`` — the receiving reader's
    ``max_frame_bytes`` — raises :class:`FrameTooLarge` instead.
    """
    if msg_type not in MSG_NAMES:
        raise ValueError(f"unknown msg_type {msg_type!r}")
    parts = isinstance(payload, list)
    header_bytes = _encode_header(header or {}).encode("utf-8")
    payload_len = sum(map(len, payload)) if parts else len(payload)
    body_len = _FIXED.size + len(header_bytes) + payload_len
    if body_len > limit:
        raise FrameTooLarge(f"frame of {body_len} bytes exceeds the limit of {limit}")
    frame = [_PREFIX.pack(
        body_len, version & 0xFF, msg_type, request_id & 0xFFFFFFFF, len(header_bytes)
    ) + header_bytes]
    if parts and payload_len < GATHER_MIN_BYTES * len(payload):
        frame.append(b"".join(payload))
    elif parts:
        frame += payload
    elif payload:
        frame.append(payload)
    return frame


def encode_frame(
    msg_type: int,
    request_id: int,
    header: Optional[Dict[str, object]] = None,
    payload: Payload = b"",
    version: int = PROTOCOL_VERSION,
    limit: int = MAX_FRAME_BYTES,
) -> bytes:
    """One frame's wire bytes, length prefix included: the join of
    :func:`frame_parts`."""
    return b"".join(frame_parts(msg_type, request_id, header, payload, version, limit))


def event_parts(subscription_id: int, first_seq: int, events: List[tuple]) -> List[bytes]:
    """One ``MSG_EVENT`` frame carrying a run of one subscription's
    events, as :func:`frame_parts`.

    ``events`` are ``(kind, capture, flow, direction, stream_id, offset,
    payload)`` tuples whose ``seq`` runs on from ``first_seq``.  The
    header holds the run's subscription, first ``seq`` and event count;
    the payload is one :data:`EVENT_ROW` per event, then the events'
    payloads.
    """
    pack = EVENT_ROW.pack
    rows = []
    payloads = []
    for kind, capture, flow, direction, stream_id, offset, payload in events:
        rows.append(pack(
            EVENT_CODES[kind], capture, *flow, direction, stream_id, offset, len(payload)
        ))
        payloads.append(payload)
    header = {"sub": subscription_id, "seq": first_seq, "events": len(rows)}
    return frame_parts(MSG_EVENT, 0, header, rows + payloads)


def frame_size(parts: List) -> int:
    """The wire bytes of a :func:`frame_parts` frame, read from the
    length prefix at the head of its first buffer."""
    return _LENGTH.unpack_from(parts[0])[0] + _LENGTH.size


def write_parts(sock, parts: List) -> Tuple[int, bool]:
    """One write of the buffers at the head of ``parts``: ``send`` for
    one, one ``sendmsg`` of at most :data:`IOV_MAX` otherwise.

    What the socket took leaves ``parts`` (a partly taken buffer stays
    as a view of its rest).  Returns the bytes taken and whether they
    are all it was offered; raises what the socket raises.
    """
    if len(parts) == 1:  # a request or a ping's reply: no list to trim
        head = parts[0]
        sent = sock.send(head)
        if sent < len(head):
            parts[0] = memoryview(head)[sent:]
            return sent, False
        parts.clear()
        return sent, True
    offered = parts if len(parts) <= IOV_MAX else parts[:IOV_MAX]
    sent = sock.sendmsg(offered)
    ends = list(accumulate(map(len, offered)))
    taken = bisect_right(ends, sent)  # the buffers taken whole
    whole = taken == len(ends)
    if not whole:
        rest = sent - (ends[taken - 1] if taken else 0)
        if rest:
            parts[taken] = memoryview(parts[taken])[rest:]
    del parts[:taken]
    return sent, whole


def _unpack_rows(row: struct.Struct, counts: List[object], length_field: int, payload) -> list:
    """The rows at the head of ``payload``, ``sum(counts)`` of them.

    Raises :class:`ProtocolError` unless the rows and the bytes their
    ``len`` fields declare fill ``payload`` exactly, so no caller ever
    slices a payload its header does not describe.
    """
    if any(type(count) is not int or count < 0 for count in counts):
        raise ProtocolError(f"row counts {counts!r} are not non-negative integers")
    rows_end = sum(counts) * row.size
    rows = []
    if rows_end <= len(payload):
        rows = list(row.iter_unpack(memoryview(payload)[:rows_end]))
    declared = rows_end + sum(fields[length_field] for fields in rows)
    if declared != len(payload):
        raise ProtocolError(
            f"{sum(counts)} rows of {row.size} bytes and their data make {declared} "
            f"bytes, but the payload holds {len(payload)}"
        )
    return rows


def split_events(frame: Frame) -> List[Frame]:
    """The per-event frames an :func:`event_parts` frame carries, each
    with the header ``event, capture, flow, direction, stream_id,
    offset, len, sub, seq`` and its own payload.

    Raises :class:`ProtocolError` when the rows do not describe the
    payload exactly.
    """
    header = frame.header
    sub = header["sub"]
    seq = header["seq"]
    payload = frame.payload
    rows = _unpack_rows(EVENT_ROW, [header["events"]], _EVENT_LEN, payload)
    view = memoryview(payload)
    out = []
    start = len(rows) * EVENT_ROW.size
    for (code, capture, src_ip, src_port, dst_ip, dst_port, protocol, direction,
         stream_id, offset, length) in rows:
        if code >= len(EVENT_KINDS):
            raise ProtocolError(f"unknown event code {code}")
        end = start + length
        out.append(Frame(MSG_EVENT, 0, {
            "event": EVENT_KINDS[code], "capture": capture,
            "flow": [src_ip, src_port, dst_ip, dst_port, protocol],
            "direction": direction, "stream_id": stream_id, "offset": offset,
            "len": length, "sub": sub, "seq": seq,
        }, bytes(view[start:end])))
        start = end
        seq += 1
    return out


def split_streams(counts: List[object], payload) -> List[List[Dict[str, object]]]:
    """The stream lists of a query reply: ``counts[i]`` streams for its
    ``i``-th result, every result's :data:`STREAM_ROW` rows at the head
    of ``payload`` and then every stream's data, both in result order.

    Each stream is ``{"flow": [5 ints], "direction", "len", "first_ts",
    "last_ts", "base_offset", "gap_bytes", "data": bytes}``.  Raises
    :class:`ProtocolError` when the rows do not describe the payload
    exactly.
    """
    rows = _unpack_rows(STREAM_ROW, counts, _STREAM_LEN, payload)
    view = memoryview(payload)
    start = len(rows) * STREAM_ROW.size
    out: List[List[Dict[str, object]]] = []
    taken = 0
    for count in counts:
        streams: List[Dict[str, object]] = []
        for (src_ip, src_port, dst_ip, dst_port, protocol, direction, length,
             first_ts, last_ts, base_offset, gap_bytes) in rows[taken:taken + count]:
            end = start + length
            streams.append({
                "flow": [src_ip, src_port, dst_ip, dst_port, protocol],
                "direction": direction, "len": length,
                "first_ts": first_ts, "last_ts": last_ts,
                "base_offset": base_offset, "gap_bytes": gap_bytes,
                "data": bytes(view[start:end]),
            })
            start = end
        taken += count
        out.append(streams)
    return out


def decode_frame_body(body) -> Frame:
    """Decode one frame body (the bytes after the length prefix).

    ``body`` is ``bytes`` or a memoryview; the payload is
    ``body[header_end:]``, so ``bytes`` for ``bytes`` and a view of the
    same buffer for a view.

    Raises :class:`ProtocolError` on any structural defect; callers
    that must survive garbage input go through :class:`FrameReader`,
    which converts the raise into a :class:`FrameRejection`.
    """
    if len(body) < _FIXED.size:
        raise ProtocolError(
            f"frame body of {len(body)} bytes is shorter than the "
            f"{_FIXED.size}-byte fixed header"
        )
    version, msg_type, request_id, header_len = _FIXED.unpack_from(body)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version} not supported (speaking "
            f"{PROTOCOL_VERSION})"
        )
    if msg_type not in MSG_NAMES:
        raise ProtocolError(f"unknown message type {msg_type}")
    header_end = _FIXED.size + header_len
    if header_end > len(body):
        raise ProtocolError(
            f"header length {header_len} overruns the {len(body)}-byte body"
        )
    try:
        header = json.loads(str(body[_FIXED.size:header_end], "utf-8")) if header_len else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable JSON header: {exc}") from None
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return Frame(msg_type, request_id, header, body[header_end:], version)


class FrameReader:
    """Incremental frame scanner over a byte stream: the daemon's reader.

    Feed it whatever the socket produced; it returns complete
    :class:`Frame` records (their payloads ``bytes``) plus
    :class:`FrameRejection` records for malformed input it skipped.  It
    buffers only bytes it has received, never a frame's declared length:
    a declaration is not a promise.  Oversized frames are *drained* —
    the declared body is discarded as it arrives without ever being
    buffered — so a peer (or a fault injector) declaring a huge length
    cannot balloon memory, and the connection resynchronizes at the
    next frame boundary.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._drain_remaining = 0
        self._drain_reason: Optional[Tuple[str, str]] = None
        #: Total wire bytes this reader has consumed.
        self.consumed = 0

    def feed(self, data: bytes) -> List[Union[Frame, FrameRejection]]:
        """Consume ``data``; return every frame/rejection it completed."""
        self.consumed += len(data)
        self._buffer.extend(data)
        out: List[Union[Frame, FrameRejection]] = []
        while True:
            if self._drain_remaining:
                drained = min(self._drain_remaining, len(self._buffer))
                if drained:
                    del self._buffer[:drained]
                    self._drain_remaining -= drained
                if self._drain_remaining:
                    return out  # still mid-drain; wait for more bytes
                reason, detail = self._drain_reason or (ERR_BAD_FRAME, "")
                self._drain_reason = None
                out.append(
                    FrameRejection(
                        reason, detail, skipped_bytes=drained,
                        category=REJECT_OVERSIZED,
                    )
                )
                continue
            if len(self._buffer) < _LENGTH.size:
                return out
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length == 0:
                del self._buffer[:_LENGTH.size]
                out.append(
                    FrameRejection(
                        ERR_BAD_FRAME,
                        "zero-length frame",
                        skipped_bytes=_LENGTH.size,
                        category=REJECT_ZERO_LENGTH,
                    )
                )
                continue
            if length > self.max_frame_bytes:
                del self._buffer[:_LENGTH.size]
                self._drain_remaining = length
                self._drain_reason = (
                    ERR_BAD_FRAME,
                    f"declared length {length} exceeds max {self.max_frame_bytes}",
                )
                continue
            if len(self._buffer) < _LENGTH.size + length:
                return out
            # Decoded in place, the payload copied out; the views are
            # released before the buffer is trimmed (a bytearray with a
            # live view cannot resize).
            with memoryview(self._buffer) as view, \
                    view[_LENGTH.size:_LENGTH.size + length] as body:
                try:
                    frame = decode_frame_body(body)
                    frame.payload = bytes(frame.payload)
                    out.append(frame)
                except ProtocolError as exc:
                    out.append(
                        FrameRejection(
                            exc.code, exc.message, skipped_bytes=length,
                            category=REJECT_UNDECODABLE,
                        )
                    )
            del self._buffer[:_LENGTH.size + length]

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered waiting for the rest of a frame."""
        return len(self._buffer)


class FrameReceiver:
    """The client's reader: frames from a socket, each received into the
    one buffer it is decoded from.

    A read while no frame is in progress is one ``recv`` of up to
    :data:`RECV_BYTES`; the frames it holds whole are decoded in place,
    each payload but an event frame's copied to ``bytes`` of its own so
    that none a caller keeps pins the rest of the read.  Once a frame's length is known and only its start
    has arrived, the rest is received with ``recv_into`` straight into a
    buffer of the declared length, each call asking for the whole
    remainder; that frame's payload is a read-only view of its buffer.
    Allocating what a peer declares is for a peer that is trusted (the
    daemon); the daemon's own :class:`FrameReader` buffers only what it
    has received.

    A frame this reader cannot take — a zero or over-``max_frame_bytes``
    length (refused before anything is allocated), or an undecodable
    body — raises :class:`ProtocolError`: the byte stream is out of
    step, so the connection is of no further use.
    """

    def __init__(self, sock, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.sock = sock
        self.max_frame_bytes = max_frame_bytes
        #: The start of a length prefix a ``recv`` cut.
        self._partial = b""
        #: The frame in progress: its body's buffer, and the bytes in it.
        self._body: Optional[memoryview] = None
        self._filled = 0

    def receive(self) -> Optional[List[Frame]]:
        """The frames one read of the socket completes (maybe none);
        None once the peer has closed.  Raises what the socket raises,
        and :class:`ProtocolError` (see the class)."""
        body = self._body
        if body is None:
            data = self.sock.recv(RECV_BYTES)
            return self._split(data) if data else None
        got = self.sock.recv_into(body[self._filled:])
        if not got:
            return None
        self._filled += got
        if self._filled < len(body):
            return []
        self._body = None
        return [decode_frame_body(body.toreadonly())]

    def _split(self, data: bytes) -> List[Frame]:
        """The frames ``data`` completes; the one it starts and does not
        finish moves to its own buffer."""
        if self._partial:
            data = self._partial + data
            self._partial = b""
        view = memoryview(data)
        frames = []
        at = 0
        end = len(data)
        while end - at >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(data, at)
            if length == 0:
                raise ZeroLengthFrame("zero-length frame")
            if length > self.max_frame_bytes:
                raise FrameTooLarge(
                    f"declared length {length} exceeds max {self.max_frame_bytes}"
                )
            at += _LENGTH.size
            if end - at < length:
                body = memoryview(bytearray(length))
                body[:end - at] = view[at:]
                self._body, self._filled = body, end - at
                return frames
            frame = decode_frame_body(view[at:at + length])
            if frame.msg_type != MSG_EVENT:  # split_events copies events out
                frame.payload = bytes(frame.payload)
            frames.append(frame)
            at += length
        if at < end:
            self._partial = bytes(view[at:])
        return frames
