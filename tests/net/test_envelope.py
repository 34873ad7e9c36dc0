"""Envelope framing unit tests and frame fuzz (no fork required).

The envelope is the process fabric's only framing: 22 bytes of header
carrying routing, then the call context as one length-prefixed section
(each registered key encoded by its own codec), then the payload
inline.  These tests
exercise it over an in-process socketpair, so they run on every
platform.  The fuzz half feeds every frame to a socket whose peer has
already closed: a reader that trusted a bad header would block there,
so a test that returns at all has shown the refusal is bounded.
"""

from __future__ import annotations

import itertools
import socket
import struct
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.errors import ServerBusyError
from repro.marshal import envelope
from repro.marshal.context import DEADLINE, KEYS
from repro.marshal.envelope import (
    HEADER,
    KIND_CALL,
    KIND_CONTROL,
    KIND_CONTROL_REPLY,
    KIND_ERROR,
    KIND_REPLY,
    MAGIC,
    MAX_CONTEXT,
    MAX_PAYLOAD,
    VERSION,
    ChannelClosedError,
    pack_error,
    recv_envelope,
    pack_context,
    send_envelope,
    unpack_error,
)
from repro.marshal.errors import MarshalError
from repro.obs.tracer import TRACE
from repro.runtime.idem import IDEM
from tests.quota import CALLER
from tests.tenant import TENANT


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestEnvelopeWire:
    def test_header_is_22_bytes_version_4(self):
        assert HEADER.size == 22
        assert VERSION == 4

    def test_plain_roundtrip(self, pair):
        a, b = pair
        send_envelope(a, KIND_CALL, 7, 3, b"hello wire")
        env = recv_envelope(b)
        assert env.kind == KIND_CALL
        assert env.call_id == 7
        assert env.target == 3
        assert env.payload == b"hello wire"
        assert env.ctx is None

    def test_idem_key_crosses_exactly(self, pair):
        a, b = pair
        key = (41 << 32) | 7
        send_envelope(a, KIND_CALL, 1, 0, b"x", pack_context({IDEM: key}))
        assert recv_envelope(b).ctx == {IDEM: key}

    def test_idem_key_zero_is_distinct_from_unset(self, pair):
        # Key 0 is a valid key: the entry, not the value, says "set".
        a, b = pair
        send_envelope(a, KIND_CALL, 1, 0, b"x", pack_context({IDEM: 0}))
        assert recv_envelope(b).ctx == {IDEM: 0}

    def test_empty_payload(self, pair):
        a, b = pair
        send_envelope(a, KIND_REPLY, 1, 0, b"")
        env = recv_envelope(b)
        assert env.payload == b""

    def test_deadline_budget_crosses_exactly(self, pair):
        # The deadline crosses as the sender's remaining budget and is
        # re-anchored on the receiver's clock.
        a, b = pair
        context = pack_context({DEADLINE: 1123.456789}, now_us=1000.0)
        send_envelope(a, KIND_CALL, 1, 0, b"x", context)
        env = recv_envelope(b, SimpleNamespace(now_us=7.0))
        assert env.ctx == {DEADLINE: 7.0 + (1123.456789 - 1000.0)}

    def test_trace_ctx_crosses_exactly(self, pair):
        a, b = pair
        wire = ((3 << 40) + 17, (3 << 40) + 18)
        send_envelope(a, KIND_CALL, 1, 0, b"x", pack_context({TRACE: wire}))
        assert recv_envelope(b).ctx == {TRACE: wire}

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

    def test_receive_timeout_between_frames_leaves_the_stream_whole(self, pair):
        a, b = pair
        b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, struct.pack("ll", 0, 20_000))
        with pytest.raises(BlockingIOError):
            recv_envelope(b)
        send_envelope(a, KIND_REPLY, 5, 0, b"late")
        assert recv_envelope(b).payload == b"late"

    @pytest.mark.parametrize("cut", [1, HEADER.size - 1, HEADER.size, HEADER.size + 2])
    def test_receive_timeout_mid_frame_tears_the_stream(self, pair, cut):
        # The bytes already read are lost, so the frame cannot be resumed.
        a, b = pair
        b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, struct.pack("ll", 0, 20_000))
        frame = HEADER.pack(MAGIC, VERSION, KIND_REPLY, 5, 0, 0, 5) + b"hello"
        a.sendall(frame[:cut])
        with pytest.raises(ChannelClosedError, match="timed out mid-frame"):
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
U32 = st.integers(0, 2**32 - 1)
U64 = st.integers(0, 2**64 - 1)

#: registered key -> values it must round-trip (a new key adds a row)
KEY_VALUES = {
    DEADLINE: st.floats(allow_nan=False),
    IDEM: U64,
    TRACE: st.tuples(U64, U64),
    TENANT: st.text(max_size=40),
    CALLER: st.text(max_size=40),
}

#: one value per registered key, for the exhaustive combinations
KEY_SAMPLES = {DEADLINE: 12.5, IDEM: 9, TRACE: (5, 6), TENANT: "acme", CALLER: "west"}

#: field name -> position in HEADER's unpacked tuple
FIELD = {"magic": 0, "version": 1, "kind": 2, "context_len": 5, "payload_len": 6}

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
    ctx = frame.get("ctx")
    send_envelope(
        a,
        frame["kind"],
        frame["call_id"],
        frame["target"],
        frame["payload"],
        pack_context(ctx) if ctx else b"",
    )
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
def contexts(draw):
    """Any call context of registered keys, the empty one included."""
    ids = draw(st.sets(st.sampled_from(sorted(KEY_VALUES))))
    return {key_id: draw(KEY_VALUES[key_id]) for key_id in sorted(ids)} or None


@st.composite
def frames(draw):
    """Any frame :func:`send_envelope` accepts, every key combination."""
    return {
        "kind": draw(st.sampled_from(KINDS)),
        "call_id": draw(U64),
        "target": draw(U32),
        "payload": draw(payloads()),
        "ctx": draw(contexts()),
    }


def every_context():
    """Every combination of the registered keys, the empty one first."""
    ids = sorted(KEY_SAMPLES)
    for size in range(len(ids) + 1):
        for chosen in itertools.combinations(ids, size):
            yield {key_id: KEY_SAMPLES[key_id] for key_id in chosen} or None


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
    elif field == "context_len":
        value = draw(st.integers(MAX_CONTEXT + 1, 2**16 - 1))
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
        assert env.ctx == frame["ctx"]

    def test_every_registered_key_has_fuzz_values(self):
        assert set(KEYS) == set(KEY_VALUES) == set(KEY_SAMPLES)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_combination_of_registered_keys_round_trips(self, kind):
        for ctx in every_context():
            frame = {"kind": kind, "call_id": 7, "target": 3, "payload": b"abc"}
            wire = wire_bytes({**frame, "ctx": ctx})
            assert receive(wire).ctx == ctx
            for cut in range(len(wire)):
                with pytest.raises(ChannelClosedError, match="peer closed"):
                    receive(wire[:cut])

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
                "ctx": {
                    key_id: KEY_SAMPLES[key_id]
                    for key_id, chosen in (
                        (DEADLINE, with_budget),
                        (TRACE, with_trace),
                        (IDEM, with_key),
                    )
                    if chosen
                }
                or None,
            }
        )
        section = 10 * with_budget + 18 * with_trace + 10 * with_key
        assert len(wire) == HEADER.size + section + 3
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

    def test_retired_v3_frame_is_refused(self):
        # Version 3 carried the deadline, trace and key as flag bits and
        # fixed fields; a v4 reader refuses the whole frame.
        wire = wire_bytes({"kind": KIND_CALL, "call_id": 1, "target": 0, "payload": b"x"})
        with pytest.raises(ChannelClosedError, match="version=3"):
            receive(corrupt(wire, "version", 3))

    def test_context_len_over_the_limit_is_refused(self):
        wire = wire_bytes({"kind": KIND_CALL, "call_id": 1, "target": 0, "payload": b""})
        with pytest.raises(ChannelClosedError, match="over the limit"):
            receive(corrupt(wire, "context_len", MAX_CONTEXT + 1))

    @pytest.mark.parametrize(
        "section,reason",
        [
            (bytes([DEADLINE]), "truncated envelope context entry"),
            (bytes([DEADLINE, 8, 0, 0]), "truncated envelope context entry"),
            (bytes([0xEE, 0]), "unknown or repeated envelope context key id 238"),
            (bytes([IDEM, 8]) + bytes(8) + bytes([IDEM, 8]) + bytes(8), "repeated"),
            (bytes([IDEM, 3, 1, 2, 3]), "'idem' refused its value"),
        ],
    )
    def test_bad_context_section_is_refused_whole(self, section, reason):
        # The header is intact and every byte it promises arrives: the
        # refusal comes from reading the section, never from the payload.
        header = HEADER.pack(MAGIC, VERSION, KIND_CALL, 1, 0, len(section), 4)
        with pytest.raises(ChannelClosedError, match=reason):
            receive(header + section + b"body")

    def test_context_over_the_limits_is_refused_before_sending(self, monkeypatch):
        with pytest.raises(MarshalError, match="encoded 300B, over 255B"):
            pack_context({TENANT: "t" * 300})
        monkeypatch.setattr(envelope, "MAX_CONTEXT", 16)
        with pytest.raises(MarshalError, match="exceeds the envelope limit of 16B"):
            pack_context({TRACE: (1, 2)})
        assert len(pack_context({IDEM: 1})) == 10

    def test_payload_len_over_the_limit_is_refused(self):
        # A header alone, claiming a payload that will never arrive: the
        # reader must refuse it rather than wait for the bytes.
        wire = wire_bytes({"kind": KIND_REPLY, "call_id": 1, "target": 0, "payload": b""})
        with pytest.raises(ChannelClosedError, match="over the limit"):
            receive(corrupt(wire, "payload_len", MAX_PAYLOAD + 1))
