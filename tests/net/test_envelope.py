"""Envelope framing unit tests and frame fuzz (no fork required).

The envelope is the process fabric's only framing: 56 bytes of header
carrying routing, the out-of-band deadline budget, the wire trace
context and the idempotency key, then the payload inline.  These tests
exercise it over an in-process socketpair, so they run on every
platform.  The fuzz half feeds every frame to a socket whose peer has
already closed: a reader that trusted a bad header would block there,
so a test that returns at all has shown the refusal is bounded.
"""

from __future__ import annotations

import itertools
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.errors import ServerBusyError
from repro.marshal.envelope import (
    FLAG_DEADLINE,
    FLAG_IDEM,
    FLAG_TRACE,
    HEADER,
    KIND_CALL,
    KIND_CONTROL,
    KIND_CONTROL_REPLY,
    KIND_ERROR,
    KIND_REPLY,
    MAGIC,
    MAX_PAYLOAD,
    VERSION,
    ChannelClosedError,
    pack_error,
    recv_envelope,
    send_envelope,
    unpack_error,
)
from repro.marshal.errors import MarshalError


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestEnvelopeWire:
    def test_header_is_56_bytes_version_3(self):
        assert HEADER.size == 56
        assert VERSION == 3

    def test_plain_roundtrip(self, pair):
        a, b = pair
        send_envelope(a, KIND_CALL, 7, 3, b"hello wire")
        env = recv_envelope(b)
        assert env.kind == KIND_CALL
        assert env.call_id == 7
        assert env.target == 3
        assert env.payload == b"hello wire"
        assert env.budget_us is None
        assert env.trace_ctx is None
        assert env.idem_key is None

    def test_idem_key_crosses_exactly(self, pair):
        a, b = pair
        key = (41 << 32) | 7
        send_envelope(a, KIND_CALL, 1, 0, b"x", idem_key=key)
        env = recv_envelope(b)
        assert env.flags & FLAG_IDEM
        assert env.idem_key == key

    def test_idem_key_zero_is_distinct_from_unset(self, pair):
        # Key 0 is a valid key: the flag bit, not the value, says "set".
        a, b = pair
        send_envelope(a, KIND_CALL, 1, 0, b"x", idem_key=0)
        env = recv_envelope(b)
        assert env.flags & FLAG_IDEM
        assert env.idem_key == 0

    def test_empty_payload(self, pair):
        a, b = pair
        send_envelope(a, KIND_REPLY, 1, 0, b"")
        env = recv_envelope(b)
        assert env.payload == b""

    def test_deadline_budget_crosses_exactly(self, pair):
        a, b = pair
        send_envelope(a, KIND_CALL, 1, 0, b"x", budget_us=123.456789)
        env = recv_envelope(b)
        assert env.flags & FLAG_DEADLINE
        assert env.budget_us == 123.456789

    def test_trace_ctx_crosses_exactly(self, pair):
        a, b = pair
        ctx = ((3 << 40) + 17, (3 << 40) + 18)
        send_envelope(a, KIND_CALL, 1, 0, b"x", trace_ctx=ctx)
        env = recv_envelope(b)
        assert env.flags & FLAG_TRACE
        assert env.trace_ctx == ctx

    def test_large_payload_inline(self, pair):
        a, b = pair
        blob = bytes(range(256)) * 1024  # 256 KiB: forces short writes
        got = {}

        def reader():
            got["env"] = recv_envelope(b)

        thread = threading.Thread(target=reader)
        thread.start()
        send_envelope(a, KIND_CALL, 9, 0, blob)
        thread.join(10.0)
        assert got["env"].payload == blob

    def test_memoryview_payload(self, pair):
        a, b = pair
        backing = bytearray(b"zero-copy hand-off")
        send_envelope(a, KIND_CALL, 2, 0, memoryview(backing))
        assert recv_envelope(b).payload == bytes(backing)

    def test_payload_over_the_limit_is_refused_before_sending(self, pair):
        a, b = pair
        with pytest.raises(MarshalError, match="exceeds the envelope limit"):
            send_envelope(a, KIND_CALL, 1, 0, bytearray(MAX_PAYLOAD + 1))
        # Nothing was written: the stream still frames the next envelope.
        send_envelope(a, KIND_CALL, 2, 0, b"next")
        assert recv_envelope(b).payload == b"next"

    def test_peer_close_raises_channel_closed(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(ChannelClosedError):
            recv_envelope(b)

    def test_garbage_header_refused(self, pair):
        a, b = pair
        a.sendall(b"\x00" * HEADER.size)
        with pytest.raises(ChannelClosedError):
            recv_envelope(b)


class TestErrorPayload:
    def test_error_roundtrip(self):
        name, message, hint = unpack_error(pack_error(ValueError("boom")))
        assert name == "ValueError"
        assert message == "boom"
        assert hint == 0.0

    def test_retry_after_hint_is_bit_exact(self):
        # The admission signal must survive the boundary exactly: the
        # hint is an f64 item, not a formatted string.
        hint = 1234.5678901234567
        busy = ServerBusyError("queue full", retry_after_us=hint)
        _, _, recovered = unpack_error(pack_error(busy))
        assert recovered == hint


# ---------------------------------------------------------------------
# frame fuzz
# ---------------------------------------------------------------------

KINDS = (KIND_CALL, KIND_REPLY, KIND_ERROR, KIND_CONTROL, KIND_CONTROL_REPLY)
KNOWN_FLAGS = FLAG_DEADLINE | FLAG_TRACE | FLAG_IDEM
U32 = st.integers(0, 2**32 - 1)
U64 = st.integers(0, 2**64 - 1)

#: field name -> position in HEADER's unpacked tuple
FIELD = {"magic": 0, "version": 1, "kind": 2, "flags": 5, "payload_len": 9}

fuzz = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def roomy_pair():
    """A socketpair that holds the largest fuzzed frame with no reader,
    so writing one cannot block."""
    a, b = socket.socketpair()
    a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 20)
    return a, b


def closed_peer(data: bytes) -> socket.socket:
    """A socket holding exactly ``data`` and then EOF: no read can block."""
    a, b = roomy_pair()
    a.sendall(data)
    a.close()
    return b


def wire_bytes(frame: dict) -> bytes:
    """What :func:`send_envelope` really puts on a socket for ``frame``."""
    a, b = roomy_pair()
    send_envelope(a, **frame)
    a.close()
    chunks = []
    while chunk := b.recv(1 << 16):
        chunks.append(chunk)
    b.close()
    return b"".join(chunks)


def receive(data: bytes):
    sock = closed_peer(data)
    try:
        return recv_envelope(sock)
    finally:
        sock.close()


def corrupt(data: bytes, field: str, value: int) -> bytes:
    fields = list(HEADER.unpack_from(data))
    fields[FIELD[field]] = value
    return HEADER.pack(*fields) + data[HEADER.size :]


@st.composite
def payloads(draw):
    """0 B to 64 KiB, weighted toward the sizes where framing changes."""
    size = draw(
        st.one_of(
            st.sampled_from([0, 1, HEADER.size, 4095, 4096, 65535, 65536]),
            st.integers(0, 65536),
        )
    )
    pattern = draw(st.binary(min_size=1, max_size=16))
    return (pattern * (size // len(pattern) + 1))[:size]


@st.composite
def frames(draw):
    """Any frame :func:`send_envelope` accepts, every flag combination."""
    return {
        "kind": draw(st.sampled_from(KINDS)),
        "call_id": draw(U64),
        "target": draw(U32),
        "payload": draw(payloads()),
        "budget_us": draw(st.none() | st.floats(allow_nan=False)),
        "trace_ctx": draw(st.none() | st.tuples(U64, U64)),
        "idem_key": draw(st.none() | U64),
    }


@st.composite
def header_corruptions(draw):
    """One steering field of the header set to a value it may not hold."""
    field = draw(st.sampled_from(sorted(FIELD)))
    if field == "magic":
        value = draw(st.integers(0, 2**16 - 1).filter(lambda v: v != MAGIC))
    elif field == "version":
        value = draw(st.integers(0, 255).filter(lambda v: v != VERSION))
    elif field == "kind":
        value = draw(st.integers(0, 255).filter(lambda v: v not in KINDS))
    elif field == "flags":
        value = draw(U32.filter(lambda v: v & ~KNOWN_FLAGS))
    else:
        value = draw(st.integers(MAX_PAYLOAD + 1, 2**32 - 1))
    return field, value


class TestFrameFuzz:
    @fuzz
    @given(frame=frames())
    def test_intact_frame_round_trips_every_field(self, frame):
        env = receive(wire_bytes(frame))
        assert env.kind == frame["kind"]
        assert env.call_id == frame["call_id"]
        assert env.target == frame["target"]
        assert env.payload == frame["payload"]
        assert env.budget_us == frame["budget_us"]
        assert env.trace_ctx == frame["trace_ctx"]
        assert env.idem_key == frame["idem_key"]
        assert env.flags == (
            (FLAG_DEADLINE if frame["budget_us"] is not None else 0)
            | (FLAG_TRACE if frame["trace_ctx"] is not None else 0)
            | (FLAG_IDEM if frame["idem_key"] is not None else 0)
        )

    @fuzz
    @given(frame=frames(), data=st.data())
    def test_truncated_frame_raises_channel_closed(self, frame, data):
        wire = wire_bytes(frame)
        cut = data.draw(
            st.integers(0, min(len(wire) - 1, HEADER.size))
            | st.integers(0, len(wire) - 1)
        )
        with pytest.raises(ChannelClosedError, match="peer closed"):
            receive(wire[:cut])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "with_budget,with_trace,with_key",
        list(itertools.product((False, True), repeat=3)),
    )
    def test_every_strict_prefix_of_a_small_frame(
        self, kind, with_budget, with_trace, with_key
    ):
        wire = wire_bytes(
            {
                "kind": kind,
                "call_id": 7,
                "target": 3,
                "payload": b"abc",
                "budget_us": 12.5 if with_budget else None,
                "trace_ctx": (5, 6) if with_trace else None,
                "idem_key": 9 if with_key else None,
            }
        )
        assert len(wire) == HEADER.size + 3
        for cut in range(len(wire)):
            with pytest.raises(ChannelClosedError, match="peer closed"):
                receive(wire[:cut])

    @fuzz
    @given(frame=frames(), corruption=header_corruptions())
    def test_corrupt_header_is_refused_without_reading_on(self, frame, corruption):
        field, value = corruption
        # The refusal names the header, so it came from the check and not
        # from running into EOF while trusting the bad field.
        with pytest.raises(ChannelClosedError, match="envelope"):
            receive(corrupt(wire_bytes(frame), field, value))

    def test_retired_ring_flag_is_refused(self):
        wire = wire_bytes({"kind": KIND_CALL, "call_id": 1, "target": 0, "payload": b"x"})
        with pytest.raises(ChannelClosedError, match="unknown envelope flag bits"):
            receive(corrupt(wire, "flags", 0x1))

    def test_payload_len_over_the_limit_is_refused(self):
        # A header alone, claiming a payload that will never arrive: the
        # reader must refuse it rather than wait for the bytes.
        wire = wire_bytes({"kind": KIND_REPLY, "call_id": 1, "target": 0, "payload": b""})
        with pytest.raises(ChannelClosedError, match="over the limit"):
            receive(corrupt(wire, "payload_len", MAX_PAYLOAD + 1))
