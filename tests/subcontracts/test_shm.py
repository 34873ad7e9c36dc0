"""Shared-memory subcontract behaviour (Section 5.1.4)."""

from __future__ import annotations

import pytest

from repro.marshal.buffer import MarshalBuffer
from repro.subcontracts.shm import ShmServer
from tests.conftest import EchoImpl


@pytest.fixture
def world(env, echo_module):
    machine = env.machine("workstation")
    server = env.create_domain(machine, "server")
    client = env.create_domain(machine, "client")  # same machine
    binding = echo_module.binding("echo")
    obj = ShmServer(server).export(EchoImpl(), binding)
    buffer = MarshalBuffer(env.kernel)
    obj._subcontract.marshal(obj, buffer)
    buffer.seal_for_transmission(server)
    client_obj = binding.unmarshal_from(buffer, client)
    return env, server, client, client_obj, binding


class TestSharedRegionPath:
    def test_same_machine_calls_work(self, world):
        _, _, _, obj, _ = world
        assert obj.upper("shared") == "SHARED"

    def test_same_machine_skips_copy_charges(self, world):
        env, _, _, obj, _ = world
        env.clock.reset_tally()
        obj.reverse(b"x" * 4096)
        tally = env.clock.tally()
        assert tally.get("memory_copy_byte", 0.0) == 0.0
        assert tally.get("shm_setup", 0.0) > 0.0

    def test_cross_machine_falls_back_to_copying(self, env, echo_module):
        server = env.create_domain("m-a", "server")
        far_client = env.create_domain("m-b", "client")
        binding = echo_module.binding("echo")
        obj = ShmServer(server).export(EchoImpl(), binding)
        buffer = MarshalBuffer(env.kernel)
        obj._subcontract.marshal(obj, buffer)
        buffer.seal_for_transmission(server)
        remote = binding.unmarshal_from(buffer, far_client)

        env.clock.reset_tally()
        assert remote.upper("far") == "FAR"
        tally = env.clock.tally()
        assert tally.get("memory_copy_byte", 0.0) > 0.0
        assert tally.get("shm_setup", 0.0) == 0.0

    def test_region_never_leaks_across_machines(self, env, echo_module):
        """No reply is region-backed: the kernel reads the region off the
        request, and a cross-machine request carries none."""
        server = env.create_domain("m-a2", "server")
        far_client = env.create_domain("m-b2", "client")
        binding = echo_module.binding("echo")
        obj = ShmServer(server).export(EchoImpl(), binding)
        buffer = MarshalBuffer(env.kernel)
        obj._subcontract.marshal(obj, buffer)
        buffer.seal_for_transmission(server)
        remote = binding.unmarshal_from(buffer, far_client)
        # wrap the vector's invoke to inspect the reply the stub receives
        vector = remote._subcontract
        captured = {}

        def invoke(obj, buf):
            reply = type(vector).invoke(vector, obj, buf)
            captured["region"] = reply.region
            return reply

        vector.invoke = invoke
        try:
            assert remote.upper("hi") == "HI"
        finally:
            del vector.invoke
        assert captured["region"] is None


class TestPlainSubcontractDuties:
    def test_marshal_unmarshal_roundtrip(self, world):
        env, _, client, obj, binding = world
        other = env.create_domain("workstation", "client-2")
        buffer = MarshalBuffer(env.kernel)
        obj._subcontract.marshal(obj, buffer)
        buffer.seal_for_transmission(client)
        moved = binding.unmarshal_from(buffer, other)
        assert moved.upper("ok") == "OK"

    def test_copy_shares_state(self, world):
        _, _, _, obj, _ = world
        duplicate = obj.spring_copy()
        assert duplicate.upper("dup") == "DUP"
        assert obj.upper("orig") == "ORIG"

    def test_revoke(self, world):
        env, server, _, obj, binding = world
        from repro.kernel import DoorRevokedError

        keeper = obj.spring_copy()
        server_vector = ShmServer(server)
        # re-export to get a server-held object we can revoke
        fresh = server_vector.export(EchoImpl(), binding)
        server_vector.revoke(fresh)
        with pytest.raises(DoorRevokedError):
            fresh.nothing()
