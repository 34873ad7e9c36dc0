"""Wire codec round-trips and error paths."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.marshal.codec import Decoder, Encoder, WireTag
from repro.marshal.errors import BufferUnderflowError, MarshalError, WireTypeError


def enc():
    data = bytearray()
    return Encoder(data), data


class TestPrimitiveRoundTrips:
    @given(st.booleans())
    def test_bool(self, value):
        encoder, data = enc()
        encoder.put_bool(value)
        assert Decoder(data).get_bool() is value

    @given(st.integers(min_value=-128, max_value=127))
    def test_int8(self, value):
        encoder, data = enc()
        encoder.put_int8(value)
        assert Decoder(data).get_int8() == value

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_int32(self, value):
        encoder, data = enc()
        encoder.put_int32(value)
        assert Decoder(data).get_int32() == value

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_int64(self, value):
        encoder, data = enc()
        encoder.put_int64(value)
        assert Decoder(data).get_int64() == value

    @given(st.floats(allow_nan=False))
    def test_float64(self, value):
        encoder, data = enc()
        encoder.put_float64(value)
        assert Decoder(data).get_float64() == value

    def test_float64_nan(self):
        encoder, data = enc()
        encoder.put_float64(float("nan"))
        result = Decoder(data).get_float64()
        assert result != result

    @given(st.text(max_size=500))
    def test_string(self, value):
        encoder, data = enc()
        encoder.put_string(value)
        assert Decoder(data).get_string() == value

    @given(st.binary(max_size=500))
    def test_bytes(self, value):
        encoder, data = enc()
        encoder.put_bytes(value)
        assert Decoder(data).get_bytes() == value

    def test_nil(self):
        encoder, data = enc()
        encoder.put_nil()
        Decoder(data).get_nil()

    @given(st.integers(min_value=0, max_value=2**40))
    def test_varint(self, value):
        encoder, data = enc()
        encoder.put_varint(value)
        assert Decoder(data).get_varint() == value

    def test_varint_rejects_negative(self):
        encoder, _ = enc()
        with pytest.raises(ValueError):
            encoder.put_varint(-1)

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_door_slot(self, slot):
        encoder, data = enc()
        encoder.put_door_slot(slot)
        assert Decoder(data).get_door_slot() == slot

    @given(st.integers(min_value=0, max_value=10_000))
    def test_sequence_header(self, count):
        encoder, data = enc()
        encoder.put_sequence_header(count)
        assert Decoder(data).get_sequence_header() == count


class TestObjectHeader:
    @given(
        st.from_regex(r"[a-z][a-z0-9_.\-]{0,63}", fullmatch=True)
    )
    def test_round_trip(self, subcontract_id):
        encoder, data = enc()
        encoder.put_object_header(subcontract_id)
        assert Decoder(data).get_object_header() == subcontract_id

    def test_peek_does_not_consume(self):
        encoder, data = enc()
        encoder.put_object_header("replicon")
        encoder.put_int32(7)
        decoder = Decoder(data)
        assert decoder.peek_object_header() == "replicon"
        assert decoder.peek_object_header() == "replicon"
        assert decoder.get_object_header() == "replicon"
        assert decoder.get_int32() == 7


class TestHeterogeneousStream:
    def test_sequential_mixed_values(self):
        encoder, data = enc()
        encoder.put_int32(1)
        encoder.put_string("two")
        encoder.put_bool(True)
        encoder.put_bytes(b"\x00\xff")
        encoder.put_float64(4.5)
        decoder = Decoder(data)
        assert decoder.get_int32() == 1
        assert decoder.get_string() == "two"
        assert decoder.get_bool() is True
        assert decoder.get_bytes() == b"\x00\xff"
        assert decoder.get_float64() == 4.5


class TestErrorPaths:
    def test_wrong_tag_raises_with_names(self):
        encoder, data = enc()
        encoder.put_int32(5)
        with pytest.raises(WireTypeError, match="STRING.*INT32"):
            Decoder(data).get_string()

    def test_underflow_on_empty(self):
        with pytest.raises(BufferUnderflowError):
            Decoder(b"").get_int32()

    def test_underflow_on_truncated_payload(self):
        encoder, data = enc()
        encoder.put_int64(1 << 40)
        with pytest.raises(BufferUnderflowError):
            Decoder(data[:3]).get_int64()

    def test_peek_tag_on_empty_underflows(self):
        with pytest.raises(BufferUnderflowError):
            Decoder(b"").peek_tag()

    def test_unknown_tag_byte_reported(self):
        with pytest.raises(WireTypeError, match="0xee"):
            Decoder(bytes([0xEE])).get_int32()

    def test_peek_tag_on_unknown_byte_raises_wire_type_error(self):
        with pytest.raises(WireTypeError, match="0xee"):
            Decoder(bytes([0xEE])).peek_tag()

    def test_varint_with_too_many_continuation_bytes_rejected(self):
        # 11 bytes all flagged "more follows": a malformed or adversarial
        # stream must fail with MarshalError, not read unboundedly.
        with pytest.raises(MarshalError, match="varint exceeds 10 bytes"):
            Decoder(bytes([0x80] * 11)).get_varint()

    def test_varint_at_exactly_ten_bytes_decodes(self):
        encoder, data = enc()
        encoder.put_varint((1 << 64) - 1)  # worst case: 10 LEB128 bytes
        assert len(data) == 10
        assert Decoder(data).get_varint() == (1 << 64) - 1

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=60)
    def test_garbage_never_crashes_uncontrolled(self, junk):
        """Decoding junk raises only marshal errors, never random ones."""
        decoder = Decoder(junk)
        for getter in ("get_int32", "get_string", "get_bool", "get_bytes"):
            fresh = Decoder(junk)
            try:
                getattr(fresh, getter)()
            except (WireTypeError, BufferUnderflowError, UnicodeDecodeError, ValueError):
                pass


def _checking_path(decoder: Decoder, method: str):
    """What ``get_int8``/``get_int32``/``get_string`` do through the
    checking helpers alone (``expect_tag``, ``get_varint``, ``_bounds``)."""
    tag, width, fmt = {
        "get_int8": (WireTag.INT8, 1, "<b"),
        "get_int32": (WireTag.INT32, 4, "<i"),
        "get_string": (WireTag.STRING, None, None),
    }[method]
    decoder.expect_tag(tag)
    if width is None:
        width = decoder.get_varint()
    end = decoder._bounds(width)
    raw = bytes(decoder._data[decoder.pos : end])
    value = str(raw, "utf-8") if fmt is None else struct.unpack(fmt, raw)[0]
    decoder.pos = end
    return value


def _outcome(read, data: bytearray):
    decoder = Decoder(data)
    try:
        return ("ok", read(decoder), decoder.pos)
    except Exception as exc:  # compared by type, message and cursor
        return (type(exc), str(exc), decoder.pos)


def _wire(put, value, cut: int = 0) -> bytearray:
    encoder, data = enc()
    getattr(encoder, put)(value)
    del data[len(data) - cut :]
    return data


FAST_PATH_INPUTS = {
    "int8": _wire("put_int8", -7),
    "int8 truncated": _wire("put_int8", -7, cut=1),
    "int32": _wire("put_int32", -70_000),
    "int32 truncated": _wire("put_int32", -70_000, cut=1),
    "short string": _wire("put_string", "total"),
    "short string truncated": _wire("put_string", "total", cut=1),
    "long string": _wire("put_string", "x" * 200),
    "long string truncated": _wire("put_string", "é" * 100, cut=3),
    "bad utf-8": bytearray([WireTag.STRING, 2, 0xFF, 0xFE]),
    "tag only": bytearray([WireTag.STRING]),
    "wrong tag": _wire("put_bool", True),
    "unknown tag": bytearray([0x7F, 0, 0, 0, 0]),
    "empty": bytearray(),
}


@pytest.mark.parametrize("method", ["get_int8", "get_int32", "get_string"])
@pytest.mark.parametrize("label", sorted(FAST_PATH_INPUTS))
def test_fast_path_matches_the_checking_path(method, label):
    """Same value, or same exception type and message, and the same
    cursor afterwards: a wrong tag, a truncated value and a string whose
    length needs a multi-byte varint all leave the fast path unchanged."""
    data = FAST_PATH_INPUTS[label]
    got = _outcome(lambda d: getattr(d, method)(), data)
    assert got == _outcome(lambda d: _checking_path(d, method), data)
