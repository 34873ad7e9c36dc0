"""Framed envelopes: the marshal layer's process-boundary framing.

The process fabric (:mod:`repro.net.procfabric`) carries door calls
between real OS processes.  The *payload* of such a call is the exact
byte stream a :class:`~repro.marshal.buffer.MarshalBuffer` already
produced — the wire format IS the inter-process format, no re-marshalling
layer exists — and the call context (:mod:`repro.marshal.context`) rides
beside it, as it rides beside the bytes inside a process.  The envelope
frames one payload: a small fixed header (routing: call id, target
export), then the context section, then the payload inline on the same
socket, at every size.

Layout (little-endian, 22-byte header)::

    magic        u16   0x5BC6
    version      u8    4
    kind         u8    CALL / REPLY / ERROR / CONTROL / CONTROL_REPLY
    call_id      u64   request/reply correlation
    target       u32   export id (CALL) or control op (CONTROL)
    context_len  u16   context section byte count, at most MAX_CONTEXT
    payload_len  u32   payload byte count, at most MAX_PAYLOAD

The context section is one entry per key of the call context::

    key id       u8    a registered key (repro.marshal.context.KEYS)
    length       u8    value byte count
    value              the key's codec output

The envelope reads no key: each key's codec encodes its value on the
sender's clock and decodes it on the receiver's, which is how a deadline
crosses as a *remaining budget* re-anchored on the receiving process's
own simulated clock.  The section is read together with the payload,
and refused as a whole — truncated, an unknown key id, a value
its codec cannot read — before the payload is handed to anyone.

Error payloads reuse the ordinary :class:`~repro.marshal.codec.TaggedStream`
items: a string (exception type name), a string (message), and a float64
(the ``retry_after_us`` hint, so :class:`ServerBusyError`'s admission
signal round-trips exactly).
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, NamedTuple

from repro.marshal.codec import TaggedStream
from repro.marshal.context import KEYS
from repro.marshal.errors import MarshalError

if TYPE_CHECKING:
    import socket

    from repro.kernel.clock import SimClock

__all__ = [
    "Envelope",
    "ChannelClosedError",
    "KIND_CALL",
    "KIND_REPLY",
    "KIND_ERROR",
    "KIND_CONTROL",
    "KIND_CONTROL_REPLY",
    "HEADER",
    "MAX_CONTEXT",
    "MAX_PAYLOAD",
    "pack_context",
    "pack_error",
    "unpack_error",
    "send_envelope",
    "recv_envelope",
    "read_exact",
]

MAGIC = 0x5BC6
VERSION = 4

KIND_CALL = 1
KIND_REPLY = 2
KIND_ERROR = 3
KIND_CONTROL = 4
KIND_CONTROL_REPLY = 5

_KINDS = (KIND_CALL, KIND_REPLY, KIND_ERROR, KIND_CONTROL, KIND_CONTROL_REPLY)

HEADER = struct.Struct("<HBBQIHI")

#: largest context section one envelope may carry.  ``context_len`` is read
#: off the wire; a context is a handful of small keys, so anything near
#: this is a corrupt or hostile header, not a call.
MAX_CONTEXT = 1024

#: largest payload one envelope may frame.  ``payload_len`` is a u32 read
#: off the wire: without a cap, one corrupt header would leave the reader
#: waiting on up to 4 GiB that will never arrive.
MAX_PAYLOAD = 64 << 20


class ChannelClosedError(Exception):
    """The peer closed the socket mid-stream (worker death, shutdown)."""


class Envelope(NamedTuple):
    """One decoded envelope: routing, call context, payload bytes."""

    kind: int
    call_id: int
    target: int
    ctx: "dict | None"
    payload: bytes


def pack_error(exc: BaseException) -> bytes:
    """Encode an exception for an ERROR envelope (type, message, hint)."""
    stream = TaggedStream()
    stream.put_string(type(exc).__name__)
    stream.put_string(str(exc))
    stream.put_float64(float(getattr(exc, "retry_after_us", 0.0)))
    return bytes(stream.data)


def unpack_error(payload: bytes) -> tuple[str, str, float]:
    """Decode an ERROR payload into ``(type_name, message, retry_after_us)``."""
    stream = TaggedStream(payload)
    return (stream.get_string(), stream.get_string(), stream.get_float64())


def read_exact(sock: "socket.socket", count: int, starts_frame: bool = False) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`ChannelClosedError`.

    A receive timeout (``BlockingIOError``) propagates only before the
    first byte of a read that ``starts_frame``; elsewhere it tears the
    stream, as a close does."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except BlockingIOError as exc:
            if starts_frame and remaining == count:
                raise
            raise ChannelClosedError(
                f"receive timed out mid-frame with {remaining}/{count} bytes outstanding"
            ) from exc
        if not chunk:
            raise ChannelClosedError(
                f"peer closed with {remaining}/{count} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def pack_context(ctx: dict, now_us: float = 0.0) -> bytes:
    """The context section for ``ctx``, each key encoded on the sender's
    clock reading ``now_us``; refuses what the receiver would refuse."""
    section = bytearray()
    for key_id, value in ctx.items():
        data = KEYS[key_id].encode(value, now_us)
        if len(data) > 0xFF:
            raise MarshalError(
                f"context key {KEYS[key_id].name!r} encoded {len(data)}B, over 255B"
            )
        section += bytes((key_id, len(data))) + data
    if len(section) > MAX_CONTEXT:
        raise MarshalError(
            f"context of {len(section)}B exceeds the envelope limit of {MAX_CONTEXT}B"
        )
    return bytes(section)


def _unpack_context(section: bytes, clock: "SimClock | None") -> dict:
    now_us = clock.now_us if clock is not None else 0.0
    ctx: dict = {}
    pos, end = 0, len(section)
    while pos < end:
        if pos + 2 > end or pos + 2 + section[pos + 1] > end:
            raise ChannelClosedError("truncated envelope context entry")
        key_id, size = section[pos], section[pos + 1]
        key = KEYS.get(key_id)
        if key is None or key_id in ctx:
            raise ChannelClosedError(
                f"unknown or repeated envelope context key id {key_id}"
            )
        pos += 2 + size
        try:
            ctx[key_id] = key.decode(section[pos - size : pos], now_us)
        except Exception as exc:
            raise ChannelClosedError(
                f"envelope context key {key.name!r} refused its value: {exc}"
            ) from exc
    return ctx


def send_envelope(
    sock: "socket.socket",
    kind: int,
    call_id: int,
    target: int,
    payload: "bytes | bytearray | memoryview",
    context: bytes = b"",
) -> None:
    """Frame and send one envelope: header, context section, payload.

    ``context`` is a section from :func:`pack_context`, framed unread;
    the sender encodes its call context on its own clock.  The
    payload goes to the socket as it is — the marshal buffer's
    ``bytearray`` is never copied into an intermediate joined message.
    Callers serialize sends per socket themselves (the fabric holds a
    per-worker send lock).
    """
    size = len(payload)
    if size > MAX_PAYLOAD:
        raise MarshalError(
            f"payload of {size}B exceeds the envelope limit of {MAX_PAYLOAD}B"
        )
    header = HEADER.pack(MAGIC, VERSION, kind, call_id, target, len(context), size)
    header += context
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


def recv_envelope(sock: "socket.socket", clock: "SimClock | None" = None) -> Envelope:
    """Receive one envelope, refusing anything this version cannot frame.

    The header and the context section come off the wire, so every field
    that steers the reader is checked before it is acted on; a refusal
    raises :class:`ChannelClosedError` because the stream cannot be
    resynchronized.  The context, read together with the payload, is
    decoded on ``clock``'s reading (0 without one).  A receive timeout
    before the frame's first byte propagates as ``BlockingIOError``.
    """
    magic, version, kind, call_id, target, context_len, payload_len = HEADER.unpack(
        read_exact(sock, HEADER.size, True)
    )
    if magic != MAGIC or version != VERSION:
        raise ChannelClosedError(
            f"bad envelope header (magic={magic:#x} version={version})"
        )
    if kind not in _KINDS:
        raise ChannelClosedError(f"unknown envelope kind {kind}")
    if context_len > MAX_CONTEXT:
        raise ChannelClosedError(
            f"envelope claims a {context_len}B context, over the limit of "
            f"{MAX_CONTEXT}B"
        )
    if payload_len > MAX_PAYLOAD:
        raise ChannelClosedError(
            f"envelope claims a {payload_len}B payload, over the limit of "
            f"{MAX_PAYLOAD}B"
        )
    size = context_len + payload_len
    body = read_exact(sock, size) if size else b""
    ctx = _unpack_context(body[:context_len], clock) if context_len else None
    return Envelope(kind, call_id, target, ctx, body[context_len:])
