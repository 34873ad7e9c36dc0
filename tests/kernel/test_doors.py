"""Door lifecycle and capability enforcement (Section 3.3)."""

from __future__ import annotations

import copy

import pytest

from repro.kernel import (
    DomainCrashedError,
    DoorAccessError,
    DoorRevokedError,
    DoorState,
    InvalidDoorError,
    Kernel,
    ServerDiedError,
)
from repro.marshal.buffer import MarshalBuffer


def echo_handler(kernel):
    def handler(request):
        reply = MarshalBuffer(kernel)
        reply.put_string(request.get_string())
        return reply

    return handler


@pytest.fixture
def world(kernel):
    server = kernel.create_domain("server")
    client = kernel.create_domain("client")
    return kernel, server, client


def transfer(kernel, src, dst, ident):
    """Move a door identifier between domains through the kernel."""
    transit = kernel.detach_door_id(src, ident)
    return kernel.attach_door_id(dst, transit)


class TestDoorCreation:
    def test_create_returns_identifier_owned_by_server(self, world):
        kernel, server, _ = world
        ident = kernel.create_door(server, echo_handler(kernel))
        assert ident.owner is server
        assert server.owns(ident)
        assert ident.door.server is server
        assert ident.door.state is DoorState.ACTIVE

    def test_create_charges_clock(self, world):
        kernel, server, _ = world
        before = kernel.clock.now_us
        kernel.create_door(server, echo_handler(kernel))
        assert kernel.clock.now_us > before

    def test_crashed_domain_cannot_create(self, world):
        kernel, server, _ = world
        kernel.crash_domain(server)
        with pytest.raises(DomainCrashedError):
            kernel.create_door(server, echo_handler(kernel))

    def test_live_door_count_tracks_creation(self, world):
        kernel, server, _ = world
        assert kernel.live_door_count() == 0
        idents = [kernel.create_door(server, echo_handler(kernel)) for _ in range(5)]
        assert kernel.live_door_count() == 5
        for ident in idents:
            kernel.delete_door_id(server, ident)
        assert kernel.live_door_count() == 0


class TestCapabilityEnforcement:
    def test_only_owner_may_call(self, world):
        kernel, server, client = world
        ident = kernel.create_door(server, echo_handler(kernel))
        buffer = MarshalBuffer(kernel)
        buffer.put_string("hi")
        with pytest.raises(DoorAccessError):
            kernel.door_call(client, ident, buffer)

    def test_only_owner_may_copy(self, world):
        kernel, server, client = world
        ident = kernel.create_door(server, echo_handler(kernel))
        with pytest.raises(DoorAccessError):
            kernel.copy_door_id(client, ident)

    def test_only_owner_may_delete(self, world):
        kernel, server, client = world
        ident = kernel.create_door(server, echo_handler(kernel))
        with pytest.raises(DoorAccessError):
            kernel.delete_door_id(client, ident)

    def test_transferred_identifier_changes_owner(self, world):
        kernel, server, client = world
        ident = kernel.create_door(server, echo_handler(kernel))
        moved = transfer(kernel, server, client, ident)
        assert moved.owner is client
        assert not server.owns(ident)
        assert not ident.valid
        # The new owner can call.
        buffer = MarshalBuffer(kernel)
        buffer.put_string("ping")
        reply = kernel.door_call(client, moved, buffer)
        assert reply.get_string() == "ping"

    def test_sender_cannot_use_identifier_after_transfer(self, world):
        kernel, server, client = world
        ident = kernel.create_door(server, echo_handler(kernel))
        transfer(kernel, server, client, ident)
        buffer = MarshalBuffer(kernel)
        buffer.put_string("x")
        with pytest.raises(DoorAccessError):
            kernel.door_call(server, ident, buffer)


class TestLaunchGuard:
    """``door_call`` checks each capability clause on its own.  Each
    identifier here fails exactly one clause, in a state the kernel's own
    operations never produce (they keep ``valid``, the owner field and
    the owner's table in step), so only that clause can refuse it — and
    it must, before the request is sealed."""

    def moved(self, world):
        kernel, server, client = world
        ident = kernel.create_door(server, echo_handler(kernel))
        return transfer(kernel, server, client, ident)

    def test_identifier_naming_another_owner_is_refused(self, world):
        kernel, server, client = world
        forged = copy.copy(self.moved(world))  # same uid, in client's table
        forged.owner = server
        with pytest.raises(DoorAccessError):
            kernel.door_call(client, forged, MarshalBuffer(kernel))

    def test_invalidated_identifier_still_in_the_table_is_refused(self, world):
        kernel, _, client = world
        moved = self.moved(world)
        moved.valid = False
        with pytest.raises(InvalidDoorError):
            kernel.door_call(client, moved, MarshalBuffer(kernel))

    def test_identifier_missing_from_the_callers_table_is_refused(self, world):
        kernel, _, client = world
        moved = self.moved(world)
        del client.door_ids[moved.uid]
        with pytest.raises(DoorAccessError):
            kernel.door_call(client, moved, MarshalBuffer(kernel))

    @pytest.mark.parametrize(
        "state, error",
        [(DoorState.REVOKED, DoorRevokedError), (DoorState.DEAD, ServerDiedError)],
    )
    def test_inactive_door_is_refused_before_the_seal(self, world, state, error):
        kernel, _, client = world
        moved = self.moved(world)
        moved.door.state = state  # its server domain still runs
        buffer = MarshalBuffer(kernel)
        buffer.put_string("x")
        buffer.get_string()
        with pytest.raises(error):
            kernel.door_call(client, moved, buffer)
        assert not buffer.sealed and buffer.pos == buffer.size
        assert moved.door.calls_handled == 0


class TestInvocation:
    def test_round_trip(self, world):
        kernel, server, client = world
        ident = kernel.create_door(server, echo_handler(kernel))
        moved = transfer(kernel, server, client, ident)
        buffer = MarshalBuffer(kernel)
        buffer.put_string("hello doors")
        reply = kernel.door_call(client, moved, buffer)
        assert reply.get_string() == "hello doors"

    def test_calls_handled_statistic(self, world):
        kernel, server, client = world
        ident = kernel.create_door(server, echo_handler(kernel))
        moved = transfer(kernel, server, client, ident)
        for i in range(3):
            buffer = MarshalBuffer(kernel)
            buffer.put_string(str(i))
            kernel.door_call(client, moved, buffer)
        assert moved.door.calls_handled == 3

    def test_call_to_crashed_server_fails(self, world):
        kernel, server, client = world
        ident = kernel.create_door(server, echo_handler(kernel))
        moved = transfer(kernel, server, client, ident)
        kernel.crash_domain(server)
        buffer = MarshalBuffer(kernel)
        buffer.put_string("x")
        with pytest.raises(ServerDiedError):
            kernel.door_call(client, moved, buffer)

    def test_crashed_caller_cannot_call(self, world):
        kernel, server, client = world
        ident = kernel.create_door(server, echo_handler(kernel))
        moved = transfer(kernel, server, client, ident)
        kernel.crash_domain(client)
        buffer = MarshalBuffer(kernel)
        with pytest.raises(DomainCrashedError):
            kernel.door_call(client, moved, buffer)

    def test_nested_calls_track_depth(self, world):
        kernel, server, client = world
        depths = []

        inner_ident = kernel.create_door(server, echo_handler(kernel))

        def outer_handler(request):
            depths.append(kernel.call_depth)
            inner_buf = MarshalBuffer(kernel)
            inner_buf.put_string(request.get_string())
            reply = kernel.door_call(server, inner_ident, inner_buf)
            out = MarshalBuffer(kernel)
            out.put_string(reply.get_string())
            return out

        outer_ident = kernel.create_door(server, outer_handler)
        moved = transfer(kernel, server, client, outer_ident)
        buffer = MarshalBuffer(kernel)
        buffer.put_string("deep")
        reply = kernel.door_call(client, moved, buffer)
        assert reply.get_string() == "deep"
        assert depths == [1]
        assert kernel.call_depth == 0


class TestCopyAndDelete:
    def test_copy_creates_independent_identifier(self, world):
        kernel, server, _ = world
        ident = kernel.create_door(server, echo_handler(kernel))
        dup = kernel.copy_door_id(server, ident)
        assert dup.uid != ident.uid
        assert dup.door is ident.door
        assert ident.door.refcount == 2
        kernel.delete_door_id(server, ident)
        # The duplicate still works.
        buffer = MarshalBuffer(kernel)
        buffer.put_string("still alive")
        assert kernel.door_call(server, dup, buffer).get_string() == "still alive"

    def test_delete_is_not_idempotent(self, world):
        kernel, server, _ = world
        ident = kernel.create_door(server, echo_handler(kernel))
        dup = kernel.copy_door_id(server, ident)
        kernel.delete_door_id(server, dup)
        with pytest.raises(DoorAccessError):
            kernel.delete_door_id(server, dup)

    def test_invalid_identifier_cannot_call(self, world):
        kernel, server, _ = world
        ident = kernel.create_door(server, echo_handler(kernel))
        dup = kernel.copy_door_id(server, ident)
        kernel.delete_door_id(server, dup)
        with pytest.raises(DoorAccessError):
            kernel.door_call(server, dup, MarshalBuffer(kernel))


class TestRevocation:
    def test_revoked_door_rejects_calls(self, world):
        kernel, server, client = world
        ident = kernel.create_door(server, echo_handler(kernel))
        dup = kernel.copy_door_id(server, ident)
        moved = transfer(kernel, server, client, dup)
        kernel.revoke_door(server, ident.door)
        buffer = MarshalBuffer(kernel)
        buffer.put_string("x")
        with pytest.raises(DoorRevokedError):
            kernel.door_call(client, moved, buffer)

    def test_revocation_hits_all_identifiers_at_once(self, world):
        kernel, server, client = world
        ident = kernel.create_door(server, echo_handler(kernel))
        dups = [kernel.copy_door_id(server, ident) for _ in range(3)]
        moved = [transfer(kernel, server, client, d) for d in dups]
        kernel.revoke_door(server, ident.door)
        for m in moved:
            with pytest.raises(DoorRevokedError):
                kernel.door_call(client, m, MarshalBuffer(kernel))

    def test_only_server_may_revoke(self, world):
        kernel, server, client = world
        ident = kernel.create_door(server, echo_handler(kernel))
        with pytest.raises(DoorAccessError):
            kernel.revoke_door(client, ident.door)

    def test_revoked_identifier_can_still_be_deleted(self, world):
        kernel, server, _ = world
        ident = kernel.create_door(server, echo_handler(kernel))
        kernel.revoke_door(server, ident.door)
        kernel.delete_door_id(server, ident)  # cleanup still permitted
        assert not ident.valid
