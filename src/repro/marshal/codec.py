"""The tagged wire stream every marshalled byte goes through.

The Spring stubs marshal IDL-typed values into communication buffers.  Our
wire format is little-endian, length-prefixed, and *tagged*: every item
carries a one-byte type tag so that stub/skeleton mismatches and
subcontract misreads fail loudly instead of silently misinterpreting
bytes.  (Spring's real format was untagged; the tag costs one byte per
item and does not change any comparison the benches make, since every
configuration pays it equally.)

:class:`TaggedStream` is the one class that writes and reads that format:
one byte store ``data`` and one cursor ``pos``.  ``put_*`` appends an
item; ``get_*`` reads the item at ``pos`` and moves past it.  When the
stream has a simulated clock (a :class:`~repro.marshal.buffer.MarshalBuffer`
made by a kernel) each ``put_*`` charges the bytes it appended, once per
item; the envelope's error payloads and rawnet fragments use clock-less
streams.  Generated stubs and skeletons splice :data:`FRAGMENTS` instead,
packing and reading primitive items on ``data`` and charging runs at once.

Hot-path notes: fixed-width items are packed tag and value in one
``struct`` call, and read with ``struct.unpack_from`` straight off the
store; payloads are copied once.  (A persistent ``memoryview`` would pin
a ``bytearray`` against resizing, and the same store may be appended to
between reads, so reads index it directly.)  ``get_int8``, ``get_int32``,
short strings and sequence headers, and payload lengths (written at any
size, read up to three varint bytes) are handled inline.  Anything else
goes through the general path, and so does every error: each one (type,
message, and where it leaves ``pos``) is raised in one place.
"""

from __future__ import annotations

import enum
import struct
from typing import Any

from repro.marshal.errors import BufferUnderflowError, MarshalError, WireTypeError

__all__ = ["WireTag", "TaggedStream", "FRAGMENTS", "FRAGMENT_GLOBALS"]

_I8 = struct.Struct("<b")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_F64 = struct.Struct("<d")

#: tag byte + value, packed in one call
_TAG_U8 = struct.Struct("<BB")
_TAG_V2, _TAG_V3 = struct.Struct("<BBB"), struct.Struct("<BBBB")  # + a 2 or 3-byte varint
_TAG_I8 = struct.Struct("<Bb")
_TAG_I32 = struct.Struct("<Bi")
_TAG_I64 = struct.Struct("<Bq")
_TAG_U16 = struct.Struct("<BH")
_TAG_F64 = struct.Struct("<Bd")

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


# Plain-int tags for the inline fast paths.
_INT8, _INT32, _STRING = int(WireTag.INT8), int(WireTag.INT32), int(WireTag.STRING)
_BYTES, _SEQUENCE = int(WireTag.BYTES), int(WireTag.SEQUENCE)


class TaggedStream:
    """Tagged wire items over one byte store and one read cursor.

    ``data`` is a ``bytearray`` to write into (a fresh one by default);
    a read-only stream may wrap ``bytes``.  ``pos`` is where the next
    ``get_*`` reads.  ``put_varint`` and ``get_varint`` are the untagged
    primitive lengths and counts are written in; ``put_varint`` charges
    nothing by itself.
    """

    __slots__ = ("data", "pos", "_clock")

    def __init__(self, data: bytes | bytearray | None = None, pos: int = 0) -> None:
        self.data = bytearray() if data is None else data
        self.pos = pos
        #: the simulated clock each item's bytes are charged to, or None
        self._clock: Any = None

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------

    def put_varint(self, value: int) -> int:
        """Unsigned LEB128, used for lengths and counts; returns its size."""
        if value < 0:
            raise ValueError(f"varint must be non-negative, got {value}")
        data = self.data
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

    def _put_blob(self, tag: int, raw: bytes | bytearray) -> None:
        """Append ``tag``, a varint length, then ``raw``."""
        data = self.data
        data.append(tag)
        size = len(raw)
        written = size + 2
        while size >= 0x80:  # the varint, without a call to put_varint
            data.append(size & 0x7F | 0x80)
            size >>= 7
            written += 1
        data.append(size)
        data += raw
        if self._clock is not None:
            self._clock.charge_bytes(written)

    def put_bool(self, value: bool) -> None:
        """Append a tagged boolean."""
        self.data += _TAG_U8.pack(WireTag.BOOL, 1 if value else 0)
        if self._clock is not None:
            self._clock.charge_bytes(2)

    def put_int8(self, value: int) -> None:
        """Append a tagged int8."""
        self.data += _TAG_I8.pack(_INT8, value)
        if self._clock is not None:
            self._clock.charge_bytes(2)

    def put_int32(self, value: int) -> None:
        """Append a tagged int32."""
        self.data += _TAG_I32.pack(_INT32, value)
        if self._clock is not None:
            self._clock.charge_bytes(5)

    def put_int64(self, value: int) -> None:
        """Append a tagged int64."""
        self.data += _TAG_I64.pack(WireTag.INT64, value)
        if self._clock is not None:
            self._clock.charge_bytes(9)

    def put_float64(self, value: float) -> None:
        """Append a tagged float64."""
        self.data += _TAG_F64.pack(WireTag.FLOAT64, value)
        if self._clock is not None:
            self._clock.charge_bytes(9)

    def put_string(self, value: str) -> None:
        """Append a tagged UTF-8 string."""
        raw = value.encode("utf-8")
        size = len(raw)
        if size >= 0x80:  # the length needs a multi-byte varint
            self._put_blob(_STRING, raw)
            return
        data = self.data
        data += _TAG_U8.pack(_STRING, size)
        data += raw
        if self._clock is not None:
            self._clock.charge_bytes(size + 2)

    def put_bytes(self, value: bytes | bytearray) -> None:
        """Append a tagged byte string."""
        self._put_blob(WireTag.BYTES, value)

    def put_object_header(self, subcontract_id: str) -> None:
        """Append the header of a marshalled object: tag + subcontract ID.

        Section 6.1: "the normal mechanism we use to implement compatible
        subcontracts is to include a subcontract identifier as part of the
        marshalled form of each object."
        """
        self._put_blob(WireTag.OBJECT, subcontract_id.encode("utf-8"))

    def put_sequence_header(self, count: int) -> None:
        """Append a sequence header with its element count."""
        if 0 <= count < 0x80:
            self.data += _TAG_U8.pack(_SEQUENCE, count)
            written = 2
        else:
            self.data.append(_SEQUENCE)
            written = 1 + self.put_varint(count)
        if self._clock is not None:
            self._clock.charge_bytes(written)

    def put_trace_ctx(self, trace_id: int, span_id: int) -> None:
        """Append a trace context item (tag + two varints).

        In-band transports (rawnet fragment headers) append this only
        while tracing is enabled, so the untraced wire format is
        byte-for-byte unchanged.
        """
        self.data.append(WireTag.TRACE)
        written = 1 + self.put_varint(trace_id) + self.put_varint(span_id)
        if self._clock is not None:
            self._clock.charge_bytes(written)

    def put_door_slot(self, slot: int) -> None:
        """Append a door-vector slot index."""
        self.data += _TAG_U16.pack(WireTag.DOOR_SLOT, slot)
        if self._clock is not None:
            self._clock.charge_bytes(3)

    def put_nil(self) -> None:
        """Append a nil marker."""
        self.data.append(WireTag.NIL)
        if self._clock is not None:
            self._clock.charge_bytes(1)

    # ------------------------------------------------------------------
    # read side: the checking primitives
    # ------------------------------------------------------------------

    def rewind(self) -> None:
        """Reset the read cursor to the start of the stream."""
        self.pos = 0

    def exhausted(self) -> bool:
        """True when every byte has been read."""
        return self.pos >= len(self.data)

    def _bounds(self, n: int) -> int:
        """Check ``n`` readable bytes remain; return the end offset."""
        end = self.pos + n
        if end > len(self.data):
            raise BufferUnderflowError(
                f"need {n} bytes at offset {self.pos}, buffer has {len(self.data)}"
            )
        return end

    def _byte(self) -> int:
        """Consume one raw byte without allocating."""
        pos = self.pos
        if pos >= len(self.data):
            raise BufferUnderflowError(
                f"need 1 bytes at offset {pos}, buffer has {len(self.data)}"
            )
        self.pos = pos + 1
        return self.data[pos]

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
        if self.pos >= len(self.data):
            raise BufferUnderflowError("peeked past end of buffer")
        raw = self.data[self.pos]
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

    def _get_fixed(self, tag: WireTag, item: struct.Struct) -> Any:
        """Read one fixed-width item: ``tag``, then ``item``'s value."""
        data, pos = self.data, self.pos
        end = pos + 1 + item.size
        if end > len(data) or data[pos] != tag:
            # Both raise: a wrong or missing tag first, then a short body
            # (with the cursor left past the tag).
            self.expect_tag(tag)
            self._bounds(item.size)
        self.pos = end
        return item.unpack_from(data, pos + 1)[0]

    def _blob_end(self, tag: int) -> int:
        """Consume ``tag`` and a varint length; return where the payload
        ends (``pos`` is left at its start)."""
        data, pos = self.data, self.pos
        if pos < len(data) and data[pos] == tag:
            size = shift = 0
            for at in range(pos + 1, min(pos + 4, len(data))):  # three length bytes
                size |= (data[at] & 0x7F) << shift
                shift += 7
                if data[at] < 0x80:
                    if at + 1 + size > len(data):
                        break
                    self.pos = at + 1
                    return at + 1 + size
        self.expect_tag(WireTag(tag))
        return self._bounds(self.get_varint())

    def _get_text(self, tag: int) -> str:
        end = self._blob_end(tag)
        value = str(self.data[self.pos : end], "utf-8")
        self.pos = end
        return value

    # ------------------------------------------------------------------
    # read side: items
    # ------------------------------------------------------------------

    def get_bool(self) -> bool:
        """Read a tagged boolean."""
        return self._get_fixed(WireTag.BOOL, _U8) != 0

    def get_int8(self) -> int:
        """Read a tagged int8."""
        data, pos = self.data, self.pos
        if pos + 2 <= len(data) and data[pos] == _INT8:
            self.pos = pos + 2
            return _I8.unpack_from(data, pos + 1)[0]
        return self._get_fixed(WireTag.INT8, _I8)

    def get_int32(self) -> int:
        """Read a tagged int32."""
        data, pos = self.data, self.pos
        if pos + 5 <= len(data) and data[pos] == _INT32:
            self.pos = pos + 5
            return _I32.unpack_from(data, pos + 1)[0]
        return self._get_fixed(WireTag.INT32, _I32)

    def get_int64(self) -> int:
        """Read a tagged int64."""
        return self._get_fixed(WireTag.INT64, _I64)

    def get_float64(self) -> float:
        """Read a tagged float64."""
        return self._get_fixed(WireTag.FLOAT64, _F64)

    def get_door_slot(self) -> int:
        """Read a door-vector slot index."""
        return self._get_fixed(WireTag.DOOR_SLOT, _U16)

    def get_string(self) -> str:
        """Read a tagged UTF-8 string."""
        data, pos = self.data, self.pos
        if pos + 2 <= len(data) and data[pos] == _STRING and data[pos + 1] < 0x80:
            end = pos + 2 + data[pos + 1]
            if end <= len(data):
                self.pos = pos + 2  # where a bad UTF-8 payload leaves it
                value = str(data[pos + 2 : end], "utf-8")
                self.pos = end
                return value
        return self._get_text(_STRING)

    def get_bytes(self) -> bytes:
        """Read a tagged byte string (its payload is copied once)."""
        end = self._blob_end(_BYTES)
        value = bytes(memoryview(self.data)[self.pos : end])
        self.pos = end
        return value

    def get_object_header(self) -> str:
        """Read a marshalled object's header; returns its subcontract ID."""
        return self._get_text(WireTag.OBJECT)

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

    def get_sequence_header(self) -> int:
        """Read a sequence header; returns the element count."""
        data, pos = self.data, self.pos
        if pos + 2 <= len(data) and data[pos] == _SEQUENCE and data[pos + 1] < 0x80:
            self.pos = pos + 2
            return data[pos + 1]
        self.expect_tag(WireTag.SEQUENCE)
        return self.get_varint()

    def get_trace_ctx(self) -> tuple[int, int]:
        """Read a trace context item; returns ``(trace_id, span_id)``."""
        self.expect_tag(WireTag.TRACE)
        return (self.get_varint(), self.get_varint())

    def get_nil(self) -> None:
        """Read a nil marker."""
        self.expect_tag(WireTag.NIL)


#: The names fragment text uses: the ``struct``s above, filled in below.
FRAGMENT_GLOBALS = {"_wire_pack_v2": _TAG_V2.pack, "_wire_pack_v3": _TAG_V3.pack}


def _fixed(kind: str, tag: int, item: struct.Struct, tagged: struct.Struct) -> tuple:
    wire = kind[:1] + str(8 * item.size) if kind != "bool" else "u8"
    FRAGMENT_GLOBALS["_wire_" + wire] = item.unpack_from
    FRAGMENT_GLOBALS["_wire_pack_" + wire] = tagged.pack
    value = "1 if {v} else 0" if kind == "bool" else "{v}"
    get = f"""\
if _p + {tagged.size} <= _e and _d[_p] == {tag}:
    {{v}} = _wire_{wire}(_d, _p + 1)[0]{" != 0" if kind == "bool" else ""}
    _p += {tagged.size}
else:
    {{buf}}.pos = _p
    {{v}} = {{buf}}.get_{kind}()
    _p = {{buf}}.pos"""
    return f"_d += _wire_pack_{wire}({tag}, {value})", tagged.size, get


def _blob(kind: str, tag: int) -> tuple:
    # Lengths of up to three varint bytes are packed and read inline.  A
    # string read leaves the cursor at its payload (as bad UTF-8 would).
    text = kind == "string"
    raw = '{v}.encode("utf-8")' if text else "{v}"
    payload = '{buf}.pos = _q\n{v} = str(_d[_q:_p], "utf-8")' if text else "{v} = bytes(memoryview(_d)[_q:_p])"
    put = f"""\
_r = {raw}
{{s}} = len(_r)
if {{s}} < 0x80:
    _d += _wire_pack_u8({tag}, {{s}})
    {{s}} += 2
elif {{s}} < 0x4000:
    _d += _wire_pack_v2({tag}, {{s}} & 0x7F | 0x80, {{s}} >> 7)
    {{s}} += 3
elif {{s}} < 0x200000:
    _d += _wire_pack_v3({tag}, {{s}} & 0x7F | 0x80, {{s}} >> 7 & 0x7F | 0x80, {{s}} >> 14)
    {{s}} += 4
else:
    _d.append({tag})
    {{s}} += 1 + {{buf}}.put_varint({{s}})
_d += _r"""
    get = f"""\
_n = _d[_p + 1] if _p + 2 <= _e and _d[_p] == {tag} else -1
_q = _p + 2
if _n >= 0x80:
    if _q < _e and _d[_q] < 0x80:
        _n = _n & 0x7F | _d[_q] << 7
        _q += 1
    elif _q + 1 < _e and _d[_q + 1] < 0x80:
        _n = _n & 0x7F | (_d[_q] & 0x7F) << 7 | _d[_q + 1] << 14
        _q += 2
    else:
        _n = -1
if _n >= 0 and _q + _n <= _e:
    _p = _q + _n
else:
    {{buf}}.pos = _p
    _p = {{buf}}._blob_end({tag})
    _q = {{buf}}.pos
{payload}"""
    return put, None, get


#: Wire kind -> ``(put, size, get)`` source text for generated code.
#: ``put`` appends ``{v}`` to ``_d``, the store of stream ``{buf}``, as
#: ``put_<kind>`` does: ``size`` bytes, or ``None`` (left in ``{s}``).
#: ``get`` reads the item at ``_p`` of ``_d`` (length ``_e``) into ``{v}``,
#: leaving the unexpected to the stream, which raises every error.
FRAGMENTS = {
    "bool": _fixed("bool", int(WireTag.BOOL), _U8, _TAG_U8),
    "int8": _fixed("int8", _INT8, _I8, _TAG_I8),
    "int32": _fixed("int32", _INT32, _I32, _TAG_I32),
    "int64": _fixed("int64", int(WireTag.INT64), _I64, _TAG_I64),
    "float64": _fixed("float64", int(WireTag.FLOAT64), _F64, _TAG_F64),
    "string": _blob("string", _STRING),
    "bytes": _blob("bytes", _BYTES),
}
