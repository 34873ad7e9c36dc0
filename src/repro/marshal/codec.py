"""Low-level wire encodings for the marshal layer.

The Spring stubs marshal IDL-typed values into communication buffers.  Our
wire format is little-endian, length-prefixed, and *tagged*: every item
carries a one-byte type tag so that stub/skeleton mismatches and
subcontract misreads fail loudly instead of silently misinterpreting
bytes.  (Spring's real format was untagged; the tag costs one byte per
item and does not change any comparison the benches make, since every
configuration pays it equally.)

Hot-path notes: the decoder reads fixed-width items with
``struct.unpack_from`` straight off the backing buffer and slices
variable-width payloads exactly once, at the moment they are needed — no
intermediate ``bytes()`` copy per item.  (A persistent ``memoryview``
would pin a ``bytearray`` against resizing, and the same backing store is
still being appended to in interleaved write/read uses, so reads index
the buffer directly instead.)  Encoder methods return the number of bytes
they appended so callers can account for marshalling without re-measuring
the stream.
"""

from __future__ import annotations

import enum
import struct

from repro.marshal.errors import BufferUnderflowError, MarshalError, WireTypeError

__all__ = ["WireTag", "Encoder", "Decoder"]

_I8 = struct.Struct("<b")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_U16 = struct.Struct("<H")
_F64 = struct.Struct("<d")

#: An unsigned LEB128 encoding of a 64-bit value needs at most 10 bytes;
#: anything longer is a malformed (or hostile) buffer trying to make us
#: build an unbounded Python int.
_VARINT_MAX_BYTES = 10


class WireTag(enum.IntEnum):
    """One-byte type tags for wire items."""

    BOOL = 0x01
    INT8 = 0x02
    INT32 = 0x03
    INT64 = 0x04
    FLOAT64 = 0x05
    STRING = 0x06
    BYTES = 0x07
    SEQUENCE = 0x08
    DOOR_SLOT = 0x09
    NIL = 0x0A
    OBJECT = 0x0B  # header preceding a marshalled Spring object
    TRACE = 0x0C  # optional trailing trace context (repro.obs)


# Plain-int tags for the decoder's inline fast paths.
_INT8, _INT32, _STRING = int(WireTag.INT8), int(WireTag.INT32), int(WireTag.STRING)


class Encoder:
    """Appends tagged wire items to a bytearray.

    Every ``put_*`` method returns the number of bytes appended.
    """

    __slots__ = ("_data",)

    def __init__(self, data: bytearray) -> None:
        self._data = data

    # -- primitives ----------------------------------------------------

    def put_varint(self, value: int) -> int:
        """Unsigned LEB128, used for lengths and counts."""
        if value < 0:
            raise ValueError(f"varint must be non-negative, got {value}")
        data = self._data
        written = 1
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                data.append(byte | 0x80)
                written += 1
            else:
                data.append(byte)
                return written

    def put_bool(self, value: bool) -> int:
        """Encode a tagged boolean."""
        self._data.append(WireTag.BOOL)
        self._data.append(1 if value else 0)
        return 2

    def put_int8(self, value: int) -> int:
        """Encode a tagged int8."""
        self._data.append(WireTag.INT8)
        self._data += _I8.pack(value)
        return 2

    def put_int32(self, value: int) -> int:
        """Encode a tagged int32."""
        self._data.append(WireTag.INT32)
        self._data += _I32.pack(value)
        return 5

    def put_int64(self, value: int) -> int:
        """Encode a tagged int64."""
        self._data.append(WireTag.INT64)
        self._data += _I64.pack(value)
        return 9

    def put_float64(self, value: float) -> int:
        """Encode a tagged float64."""
        self._data.append(WireTag.FLOAT64)
        self._data += _F64.pack(value)
        return 9

    def put_string(self, value: str) -> int:
        """Encode a tagged UTF-8 string."""
        raw = value.encode("utf-8")
        self._data.append(WireTag.STRING)
        written = 1 + self.put_varint(len(raw)) + len(raw)
        self._data += raw
        return written

    def put_bytes(self, value: bytes | bytearray) -> int:
        """Encode a tagged byte string."""
        self._data.append(WireTag.BYTES)
        written = 1 + self.put_varint(len(value)) + len(value)
        self._data += value
        return written

    def put_sequence_header(self, count: int) -> int:
        """Encode a sequence header with its element count."""
        self._data.append(WireTag.SEQUENCE)
        return 1 + self.put_varint(count)

    def put_trace_ctx(self, trace_id: int, span_id: int) -> int:
        """Encode a trace context item (tag + two varints).

        In-band transports (rawnet fragment headers) append this only
        while tracing is enabled, so the untraced wire format is
        byte-for-byte unchanged.
        """
        self._data.append(WireTag.TRACE)
        return 1 + self.put_varint(trace_id) + self.put_varint(span_id)

    def put_door_slot(self, slot: int) -> int:
        """Encode a door-vector slot index."""
        self._data.append(WireTag.DOOR_SLOT)
        self._data += _U16.pack(slot)
        return 3

    def put_nil(self) -> int:
        """Encode a nil marker."""
        self._data.append(WireTag.NIL)
        return 1

    def put_object_header(self, subcontract_id: str) -> int:
        """Write the header of a marshalled object: tag + subcontract ID.

        Section 6.1: "the normal mechanism we use to implement compatible
        subcontracts is to include a subcontract identifier as part of the
        marshalled form of each object."
        """
        raw = subcontract_id.encode("utf-8")
        self._data.append(WireTag.OBJECT)
        written = 1 + self.put_varint(len(raw)) + len(raw)
        self._data += raw
        return written


class Decoder:
    """Reads tagged wire items from a bytes-like object."""

    __slots__ = ("_data", "pos")

    def __init__(self, data: bytes | bytearray, pos: int = 0) -> None:
        self._data = data
        self.pos = pos

    # -- low level -----------------------------------------------------

    def _bounds(self, n: int) -> int:
        """Check ``n`` readable bytes remain; return the end offset."""
        end = self.pos + n
        if end > len(self._data):
            raise BufferUnderflowError(
                f"need {n} bytes at offset {self.pos}, buffer has {len(self._data)}"
            )
        return end

    def _byte(self) -> int:
        """Consume one raw byte without allocating."""
        pos = self.pos
        if pos >= len(self._data):
            raise BufferUnderflowError(
                f"need 1 bytes at offset {pos}, buffer has {len(self._data)}"
            )
        self.pos = pos + 1
        return self._data[pos]

    def expect_tag(self, tag: WireTag) -> None:
        """Consume one tag byte, raising WireTypeError on mismatch."""
        got = self._byte()
        if got != tag:
            try:
                got_name = WireTag(got).name
            except ValueError:
                got_name = f"0x{got:02x}"
            raise WireTypeError(f"expected {tag.name}, found {got_name}")

    def peek_tag(self) -> WireTag:
        """The next tag byte, without consuming it."""
        if self.pos >= len(self._data):
            raise BufferUnderflowError("peeked past end of buffer")
        raw = self._data[self.pos]
        try:
            return WireTag(raw)
        except ValueError:
            raise WireTypeError(f"unknown wire tag 0x{raw:02x}") from None

    def get_varint(self) -> int:
        """Decode an unsigned LEB128 integer (at most 10 bytes)."""
        result = 0
        shift = 0
        for _ in range(_VARINT_MAX_BYTES):
            byte = self._byte()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
        raise MarshalError(
            f"varint exceeds {_VARINT_MAX_BYTES} bytes at offset {self.pos}"
        )

    # -- primitives ----------------------------------------------------

    def get_bool(self) -> bool:
        """Decode a boolean."""
        self.expect_tag(WireTag.BOOL)
        return self._byte() != 0

    def get_int8(self) -> int:
        """Decode a int8."""
        data, pos = self._data, self.pos
        if pos + 2 <= len(data) and data[pos] == _INT8:
            self.pos = pos + 2
            return _I8.unpack_from(data, pos + 1)[0]
        # Slow path (and every error, raised exactly as before).
        self.expect_tag(WireTag.INT8)
        end = self._bounds(1)
        value = _I8.unpack_from(self._data, self.pos)[0]
        self.pos = end
        return value

    def get_int32(self) -> int:
        """Decode a int32."""
        data, pos = self._data, self.pos
        if pos + 5 <= len(data) and data[pos] == _INT32:
            self.pos = pos + 5
            return _I32.unpack_from(data, pos + 1)[0]
        self.expect_tag(WireTag.INT32)
        end = self._bounds(4)
        value = _I32.unpack_from(self._data, self.pos)[0]
        self.pos = end
        return value

    def get_int64(self) -> int:
        """Decode a int64."""
        self.expect_tag(WireTag.INT64)
        end = self._bounds(8)
        value = _I64.unpack_from(self._data, self.pos)[0]
        self.pos = end
        return value

    def get_float64(self) -> float:
        """Decode a float64."""
        self.expect_tag(WireTag.FLOAT64)
        end = self._bounds(8)
        value = _F64.unpack_from(self._data, self.pos)[0]
        self.pos = end
        return value

    def get_string(self) -> str:
        """Decode a UTF-8 string."""
        data, pos = self._data, self.pos
        if pos + 2 <= len(data) and data[pos] == _STRING and data[pos + 1] < 0x80:
            end = pos + 2 + data[pos + 1]
            if end <= len(data):
                self.pos = pos + 2  # where a bad UTF-8 payload leaves it
                value = str(data[pos + 2 : end], "utf-8")
                self.pos = end
                return value
        self.expect_tag(WireTag.STRING)
        length = self.get_varint()
        end = self._bounds(length)
        value = str(self._data[self.pos : end], "utf-8")
        self.pos = end
        return value

    def get_bytes(self) -> bytes:
        """Decode a byte string."""
        self.expect_tag(WireTag.BYTES)
        length = self.get_varint()
        end = self._bounds(length)
        chunk = self._data[self.pos : end]
        self.pos = end
        return chunk if type(chunk) is bytes else bytes(chunk)

    def get_trace_ctx(self) -> tuple[int, int]:
        """Decode a trace context item; returns ``(trace_id, span_id)``."""
        self.expect_tag(WireTag.TRACE)
        return (self.get_varint(), self.get_varint())

    def get_sequence_header(self) -> int:
        """Decode a sequence header; returns the element count."""
        self.expect_tag(WireTag.SEQUENCE)
        return self.get_varint()

    def get_door_slot(self) -> int:
        """Decode a door-vector slot index."""
        self.expect_tag(WireTag.DOOR_SLOT)
        end = self._bounds(2)
        value = _U16.unpack_from(self._data, self.pos)[0]
        self.pos = end
        return value

    def get_nil(self) -> None:
        """Decode a nil marker."""
        self.expect_tag(WireTag.NIL)

    def get_object_header(self) -> str:
        """Read a marshalled object's header; returns its subcontract ID."""
        self.expect_tag(WireTag.OBJECT)
        length = self.get_varint()
        end = self._bounds(length)
        value = str(self._data[self.pos : end], "utf-8")
        self.pos = end
        return value

    def peek_object_header(self) -> str:
        """Peek at the subcontract ID without consuming it (Section 6.1).

        "A typical subcontract unmarshal operation starts by taking a peek
        at the expected subcontract identifier in the communications
        buffer."
        """
        saved = self.pos
        try:
            return self.get_object_header()
        finally:
            self.pos = saved
