"""MarshalBuffer behaviour: door vector, rollback, forwarding, lifecycle."""

from __future__ import annotations

import pytest

from repro.marshal.buffer import MarshalBuffer
from repro.marshal.errors import DoorVectorError, MarshalError


def noop_handler(kernel):
    def handler(request):
        return MarshalBuffer(kernel)

    return handler


class TestDoorVector:
    def test_put_consumes_senders_identifier(self, kernel):
        server = kernel.create_domain("server")
        ident = kernel.create_door(server, noop_handler(kernel))
        buffer = MarshalBuffer(kernel)
        buffer.put_door_id(server, ident)
        assert not ident.valid
        assert not server.owns(ident)
        assert buffer.live_door_count() == 1

    def test_get_attaches_into_receiver(self, kernel):
        server = kernel.create_domain("server")
        client = kernel.create_domain("client")
        ident = kernel.create_door(server, noop_handler(kernel))
        buffer = MarshalBuffer(kernel)
        buffer.put_door_id(server, ident)
        buffer.rewind()
        received = buffer.get_door_id(client)
        assert client.owns(received)
        assert received.door is ident.door
        assert buffer.live_door_count() == 0

    def test_double_get_same_slot_fails(self, kernel):
        server = kernel.create_domain("server")
        client = kernel.create_domain("client")
        ident = kernel.create_door(server, noop_handler(kernel))
        buffer = MarshalBuffer(kernel)
        buffer.put_door_id(server, ident)
        buffer.rewind()
        buffer.get_door_id(client)
        buffer.rewind()
        with pytest.raises(DoorVectorError):
            buffer.get_door_id(client)

    def test_doors_interleave_with_bytes(self, kernel):
        server = kernel.create_domain("server")
        client = kernel.create_domain("client")
        a = kernel.create_door(server, noop_handler(kernel))
        b = kernel.create_door(server, noop_handler(kernel))
        buffer = MarshalBuffer(kernel)
        buffer.put_string("first")
        buffer.put_door_id(server, a)
        buffer.put_int32(42)
        buffer.put_door_id(server, b)
        buffer.rewind()
        assert buffer.get_string() == "first"
        door_a = buffer.get_door_id(client)
        assert buffer.get_int32() == 42
        door_b = buffer.get_door_id(client)
        assert door_a.door is a.door
        assert door_b.door is b.door

    def test_discard_releases_unconsumed_doors(self, kernel):
        server = kernel.create_domain("server")
        notified = []
        ident = kernel.create_door(
            server, noop_handler(kernel), unreferenced=notified.append
        )
        buffer = MarshalBuffer(kernel)
        buffer.put_door_id(server, ident)
        buffer.discard()
        assert len(notified) == 1

    def test_forged_slot_index_rejected(self, kernel):
        client = kernel.create_domain("client")
        buffer = MarshalBuffer(kernel)
        buffer.put_door_slot(7)  # no door was actually parked
        buffer.rewind()
        with pytest.raises(DoorVectorError):
            buffer.get_door_id(client)


class TestRollback:
    def test_truncate_drops_bytes_after_mark(self, kernel):
        buffer = MarshalBuffer(kernel)
        buffer.put_string("keep")
        marker = buffer.mark()
        buffer.put_string("drop")
        buffer.truncate(marker)
        buffer.put_int32(9)
        buffer.rewind()
        assert buffer.get_string() == "keep"
        assert buffer.get_int32() == 9

    def test_truncate_releases_doors_after_mark(self, kernel):
        server = kernel.create_domain("server")
        notified = []
        keep = kernel.create_door(server, noop_handler(kernel))
        drop = kernel.create_door(
            server, noop_handler(kernel), unreferenced=notified.append
        )
        buffer = MarshalBuffer(kernel)
        buffer.put_door_id(server, keep)
        marker = buffer.mark()
        buffer.put_door_id(server, drop)
        buffer.truncate(marker)
        assert len(notified) == 1
        assert buffer.live_door_count() == 1


class TestGraftTail:
    def test_adopts_unread_remainder(self, kernel):
        server = kernel.create_domain("server")
        client = kernel.create_domain("client")
        ident = kernel.create_door(server, noop_handler(kernel))
        original = MarshalBuffer(kernel)
        original.put_string("opname")
        original.put_int32(5)
        original.put_door_id(server, ident)
        original.rewind()
        assert original.get_string() == "opname"

        forward = MarshalBuffer(kernel)
        forward.put_string("opname")
        forward.graft_tail(original)
        forward.rewind()
        assert forward.get_string() == "opname"
        assert forward.get_int32() == 5
        received = forward.get_door_id(client)
        assert received.door is ident.door

    def test_requires_empty_door_vector(self, kernel):
        server = kernel.create_domain("server")
        ident = kernel.create_door(server, noop_handler(kernel))
        target = MarshalBuffer(kernel)
        target.put_door_id(server, ident)
        with pytest.raises(MarshalError):
            target.graft_tail(MarshalBuffer(kernel))


class TestChargingAndMisc:
    def test_marshalling_charges_clock(self, kernel):
        before = kernel.clock.now_us
        buffer = MarshalBuffer(kernel)
        buffer.put_string("x" * 100)
        assert kernel.clock.now_us > before

    def test_kernelless_buffer_works(self):
        buffer = MarshalBuffer()
        buffer.put_int32(3)
        buffer.rewind()
        assert buffer.get_int32() == 3

    def test_size_and_exhausted(self, kernel):
        buffer = MarshalBuffer(kernel)
        assert buffer.exhausted()
        buffer.put_int32(1)
        assert buffer.size > 0
        assert not buffer.exhausted()
        buffer.rewind()
        buffer.get_int32()
        assert buffer.exhausted()

    def test_seal_rewinds(self, kernel):
        domain = kernel.create_domain("d")
        buffer = MarshalBuffer(kernel)
        buffer.put_int32(1)
        buffer.rewind()
        buffer.get_int32()
        buffer.seal_for_transmission(domain)
        assert buffer.pos == 0
        assert buffer.sealed
