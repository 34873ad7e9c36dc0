"""Golden wire-format tests.

The byte encodings are a compatibility surface: two programs compiled at
different times must interoperate (the §6.2 story depends on old programs
reading new objects' wire forms).  These tests pin the exact bytes so an
accidental format change fails loudly.
"""

from __future__ import annotations

import pytest

from repro.marshal.codec import TaggedStream, WireTag


def encoded(put):
    data = bytearray()
    put(TaggedStream(data))
    return bytes(data)


class TestGoldenBytes:
    def test_tag_values_are_stable(self):
        assert WireTag.BOOL == 0x01
        assert WireTag.INT8 == 0x02
        assert WireTag.INT32 == 0x03
        assert WireTag.INT64 == 0x04
        assert WireTag.FLOAT64 == 0x05
        assert WireTag.STRING == 0x06
        assert WireTag.BYTES == 0x07
        assert WireTag.SEQUENCE == 0x08
        assert WireTag.DOOR_SLOT == 0x09
        assert WireTag.NIL == 0x0A
        assert WireTag.OBJECT == 0x0B

    def test_bool(self):
        assert encoded(lambda e: e.put_bool(True)) == b"\x01\x01"
        assert encoded(lambda e: e.put_bool(False)) == b"\x01\x00"

    def test_int32_little_endian(self):
        assert encoded(lambda e: e.put_int32(1)) == b"\x03\x01\x00\x00\x00"
        assert encoded(lambda e: e.put_int32(-1)) == b"\x03\xff\xff\xff\xff"
        assert encoded(lambda e: e.put_int32(0x01020304)) == b"\x03\x04\x03\x02\x01"

    def test_int64(self):
        assert (
            encoded(lambda e: e.put_int64(2))
            == b"\x04\x02\x00\x00\x00\x00\x00\x00\x00"
        )

    def test_float64_ieee(self):
        assert (
            encoded(lambda e: e.put_float64(1.0))
            == b"\x05\x00\x00\x00\x00\x00\x00\xf0?"
        )

    def test_string_utf8_with_varint_length(self):
        assert encoded(lambda e: e.put_string("hi")) == b"\x06\x02hi"
        assert encoded(lambda e: e.put_string("é")) == b"\x06\x02\xc3\xa9"
        assert encoded(lambda e: e.put_string("")) == b"\x06\x00"

    def test_bytes(self):
        assert encoded(lambda e: e.put_bytes(b"\x00\xff")) == b"\x07\x02\x00\xff"

    def test_sequence_header(self):
        assert encoded(lambda e: e.put_sequence_header(3)) == b"\x08\x03"
        # 300 = 0b100101100 -> varint AC 02
        assert encoded(lambda e: e.put_sequence_header(300)) == b"\x08\xac\x02"

    def test_door_slot_uint16(self):
        assert encoded(lambda e: e.put_door_slot(0)) == b"\x09\x00\x00"
        assert encoded(lambda e: e.put_door_slot(258)) == b"\x09\x02\x01"

    def test_nil(self):
        assert encoded(lambda e: e.put_nil()) == b"\x0a"

    def test_object_header(self):
        assert (
            encoded(lambda e: e.put_object_header("simplex"))
            == b"\x0b\x07simplex"
        )

    def test_varint_boundaries(self):
        assert encoded(lambda e: e.put_varint(0)) == b"\x00"
        assert encoded(lambda e: e.put_varint(127)) == b"\x7f"
        assert encoded(lambda e: e.put_varint(128)) == b"\x80\x01"
        assert encoded(lambda e: e.put_varint(16384)) == b"\x80\x80\x01"


class TestCallWireFormat:
    def test_request_layout_is_stable(self, kernel, counter_module):
        """The documented request format: [control][opname][args]."""
        from repro.subcontracts.cluster import ClusterServer
        from tests.conftest import CounterImpl

        server = kernel.create_domain("server")
        from repro.core.registry import ensure_registry

        ensure_registry(server)
        cluster = ClusterServer(server)
        obj = cluster.export(CounterImpl(), counter_module.binding("counter"))

        captured = {}
        original_handler = obj._rep.door.door.handler

        def spy(request):
            captured["bytes"] = bytes(request.data)
            request.rewind()
            return original_handler(request)

        obj._rep.door.door.handler = spy
        obj.add(7)
        data = captured["bytes"]
        decoder = TaggedStream(data)
        assert decoder.get_int32() == obj._rep.tag  # cluster's preamble
        assert decoder.get_string() == "add"  # the op name
        assert decoder.get_int32() == 7  # the argument
        assert decoder.pos == len(data)
