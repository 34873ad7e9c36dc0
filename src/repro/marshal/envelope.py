"""Framed envelopes: the marshal layer's process-boundary framing.

The process fabric (:mod:`repro.net.procfabric`) carries door calls
between real OS processes.  The *payload* of such a call is the exact
byte stream a :class:`~repro.marshal.buffer.MarshalBuffer` already
produced — the wire format IS the inter-process format, no re-marshalling
layer exists — but three things ride on the buffer *out of band* and must
survive the boundary: the call deadline (``deadline_us``), the trace
context (``trace_ctx``), and the idempotency key (``idem_key``).  The
envelope is the small fixed-size header that frames one payload and
carries those items, plus routing (call id, target export).  The payload
always follows its header inline on the same socket, at every size.

Layout (little-endian, 56 bytes)::

    magic        u16   0x5BC6
    version      u8    3
    kind         u8    CALL / REPLY / ERROR / CONTROL / CONTROL_REPLY
    call_id      u64   request/reply correlation
    target       u32   export id (CALL) or control op (CONTROL)
    flags        u32   DEADLINE / TRACE / IDEM bits; any other bit is refused
    budget_us    f64   remaining deadline budget (sim-us), if DEADLINE
    trace_id     u64   wire trace context, if TRACE
    span_id      u64   wire trace context, if TRACE
    payload_len  u32   payload byte count, at most MAX_PAYLOAD
    idem_key     u64   idempotency key of the logical request, if IDEM

The deadline crosses as a *remaining budget* rather than an absolute
instant because each process runs its own simulated clock; the receiver
re-anchors the budget on its clock and the existing delivery-leg check
enforces it unchanged.

Error payloads reuse the ordinary :class:`~repro.marshal.codec.Encoder`
items: a string (exception type name), a string (message), and a float64
(the ``retry_after_us`` hint, so :class:`ServerBusyError`'s admission
signal round-trips exactly).
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.marshal.codec import Decoder, Encoder
from repro.marshal.errors import MarshalError

if TYPE_CHECKING:
    import socket

__all__ = [
    "Envelope",
    "ChannelClosedError",
    "KIND_CALL",
    "KIND_REPLY",
    "KIND_ERROR",
    "KIND_CONTROL",
    "KIND_CONTROL_REPLY",
    "FLAG_DEADLINE",
    "FLAG_TRACE",
    "FLAG_IDEM",
    "HEADER",
    "MAX_PAYLOAD",
    "pack_error",
    "unpack_error",
    "send_envelope",
    "recv_envelope",
    "read_exact",
]

MAGIC = 0x5BC6
VERSION = 3

KIND_CALL = 1
KIND_REPLY = 2
KIND_ERROR = 3
KIND_CONTROL = 4
KIND_CONTROL_REPLY = 5

_KINDS = (KIND_CALL, KIND_REPLY, KIND_ERROR, KIND_CONTROL, KIND_CONTROL_REPLY)

#: ``budget_us`` is meaningful (the call carries a deadline)
FLAG_DEADLINE = 0x2
#: ``trace_id``/``span_id`` are meaningful (the call carries a context)
FLAG_TRACE = 0x4
#: ``idem_key`` is meaningful (the call names a logical request)
FLAG_IDEM = 0x8

_KNOWN_FLAGS = FLAG_DEADLINE | FLAG_TRACE | FLAG_IDEM

HEADER = struct.Struct("<HBBQIIdQQIQ")

#: largest payload one envelope may frame.  ``payload_len`` is a u32 read
#: off the wire: without a cap, one corrupt header would leave the reader
#: waiting on up to 4 GiB that will never arrive.
MAX_PAYLOAD = 64 << 20


class ChannelClosedError(Exception):
    """The peer closed the socket mid-stream (worker death, shutdown)."""


class Envelope:
    """One decoded envelope: header fields plus the payload bytes."""

    __slots__ = (
        "kind",
        "call_id",
        "target",
        "flags",
        "budget_us",
        "trace_ctx",
        "payload",
        "idem_key",
    )

    def __init__(
        self,
        kind: int,
        call_id: int,
        target: int,
        flags: int,
        budget_us: float | None,
        trace_ctx: tuple[int, int] | None,
        payload: bytes,
        idem_key: "int | None" = None,
    ) -> None:
        self.kind = kind
        self.call_id = call_id
        self.target = target
        self.flags = flags
        self.budget_us = budget_us
        self.trace_ctx = trace_ctx
        self.payload = payload
        self.idem_key = idem_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Envelope kind={self.kind} call={self.call_id} "
            f"target={self.target} {len(self.payload)}B flags={self.flags:#x}>"
        )


def pack_header(
    kind: int,
    call_id: int,
    target: int,
    flags: int,
    budget_us: float,
    trace_id: int,
    span_id: int,
    payload_len: int,
    idem_key: int = 0,
) -> bytes:
    return HEADER.pack(
        MAGIC,
        VERSION,
        kind,
        call_id,
        target,
        flags,
        budget_us,
        trace_id,
        span_id,
        payload_len,
        idem_key,
    )


def pack_error(exc: BaseException) -> bytes:
    """Encode an exception for an ERROR envelope (type, message, hint)."""
    data = bytearray()
    enc = Encoder(data)
    enc.put_string(type(exc).__name__)
    enc.put_string(str(exc))
    enc.put_float64(float(getattr(exc, "retry_after_us", 0.0)))
    return bytes(data)


def unpack_error(payload: bytes) -> tuple[str, str, float]:
    """Decode an ERROR payload into ``(type_name, message, retry_after_us)``."""
    dec = Decoder(bytearray(payload))
    return (dec.get_string(), dec.get_string(), dec.get_float64())


def read_exact(sock: "socket.socket", count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`ChannelClosedError`."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ChannelClosedError(
                f"peer closed with {remaining}/{count} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    if len(chunks) == 1:
        return chunks[0]
    return b"".join(chunks)


def send_envelope(
    sock: "socket.socket",
    kind: int,
    call_id: int,
    target: int,
    payload: "bytes | bytearray | memoryview",
    budget_us: float | None = None,
    trace_ctx: tuple[int, int] | None = None,
    idem_key: "int | None" = None,
) -> None:
    """Frame and send one envelope: header, then the payload inline.

    The payload goes to the socket as it is — the marshal buffer's
    ``bytearray`` is never copied into an intermediate joined message.
    Callers serialize sends per socket themselves (the fabric holds a
    per-worker send lock).
    """
    flags = 0
    budget = 0.0
    if budget_us is not None:
        flags |= FLAG_DEADLINE
        budget = budget_us
    trace_id = span_id = 0
    if trace_ctx is not None:
        flags |= FLAG_TRACE
        trace_id, span_id = trace_ctx
    key = 0
    if idem_key is not None:
        flags |= FLAG_IDEM
        key = idem_key
    size = len(payload)
    if size > MAX_PAYLOAD:
        raise MarshalError(
            f"payload of {size}B exceeds the envelope limit of {MAX_PAYLOAD}B"
        )
    header = pack_header(
        kind,
        call_id,
        target,
        flags,
        budget,
        trace_id,
        span_id,
        size,
        key,
    )
    if not size:
        sock.sendall(header)
        return
    # Gather write: header + payload in one syscall when the socket
    # takes it all.
    sent = sock.sendmsg([header, payload])
    if sent == len(header) + size:
        return
    # Short write: finish with sendall.  The view is released on every
    # exit; one left alive in a failed send's traceback would pin the
    # marshal buffer's bytearray, and recycling the buffer would then
    # raise BufferError in place of the transport's own error.
    with memoryview(payload) as view:
        if sent < len(header):
            sock.sendall(header[sent:])
            sock.sendall(view)
        else:
            sock.sendall(view[sent - len(header) :])


def recv_envelope(sock: "socket.socket") -> Envelope:
    """Receive one envelope, refusing any header this version cannot frame.

    The header comes off the wire, so every field that steers the reader
    is checked before it is acted on; a refusal raises
    :class:`ChannelClosedError` because the stream cannot be resynchronized.
    """
    raw = read_exact(sock, HEADER.size)
    (
        magic,
        version,
        kind,
        call_id,
        target,
        flags,
        budget,
        trace_id,
        span_id,
        payload_len,
        idem_key,
    ) = HEADER.unpack(raw)
    if magic != MAGIC or version != VERSION:
        raise ChannelClosedError(
            f"bad envelope header (magic={magic:#x} version={version})"
        )
    if kind not in _KINDS:
        raise ChannelClosedError(f"unknown envelope kind {kind}")
    if flags & ~_KNOWN_FLAGS:
        raise ChannelClosedError(f"unknown envelope flag bits {flags:#x}")
    if payload_len > MAX_PAYLOAD:
        raise ChannelClosedError(
            f"envelope claims a {payload_len}B payload, over the limit of "
            f"{MAX_PAYLOAD}B"
        )
    return Envelope(
        kind,
        call_id,
        target,
        flags,
        budget if flags & FLAG_DEADLINE else None,
        (trace_id, span_id) if flags & FLAG_TRACE else None,
        read_exact(sock, payload_len) if payload_len else b"",
        idem_key if flags & FLAG_IDEM else None,
    )
