"""Network fabric: cross-machine forwarding, latency, partitions."""

from __future__ import annotations

import pytest

from repro.kernel import NetworkPartitionError
from repro.kernel.errors import DeadlineExceeded
from repro.marshal.buffer import MarshalBuffer
from repro.marshal.context import DEADLINE
from repro.runtime.faults import partitioned
from repro.runtime.transfer import transfer
from repro.subcontracts.shm import SharedRegion, ShmServer
from repro.subcontracts.simplex import SimplexServer
from tests.conftest import CounterImpl


@pytest.fixture
def world(env, counter_module):
    server = env.create_domain("machine-a", "server")
    client = env.create_domain("machine-b", "client")
    binding = counter_module.binding("counter")
    obj = SimplexServer(server).export(CounterImpl(), binding)
    buffer = MarshalBuffer(env.kernel)
    obj._subcontract.marshal(obj, buffer)
    buffer.seal_for_transmission(server)
    remote = binding.unmarshal_from(buffer, client)
    return env, server, client, remote


class TestForwarding:
    def test_cross_machine_call_carried_by_fabric(self, world):
        env, _, _, remote = world
        carried = env.fabric.calls_carried
        assert remote.add(1) == 1
        assert env.fabric.calls_carried == carried + 1

    def test_same_machine_call_not_carried(self, env, counter_module):
        server = env.create_domain("one-machine", "server")
        client = env.create_domain("one-machine", "client")
        binding = counter_module.binding("counter")
        obj = SimplexServer(server).export(CounterImpl(), binding)
        buffer = MarshalBuffer(env.kernel)
        obj._subcontract.marshal(obj, buffer)
        buffer.seal_for_transmission(server)
        local = binding.unmarshal_from(buffer, client)
        carried = env.fabric.calls_carried
        local.add(1)
        assert env.fabric.calls_carried == carried

    def test_latency_charged_both_legs(self, world):
        env, _, _, remote = world
        env.clock.reset_tally()
        remote.add(1)
        network_time = env.clock.tally()["network"]
        assert network_time >= 2 * env.fabric.latency_us

    def test_bandwidth_term_scales_with_payload(self, env, echo_module):
        from tests.conftest import EchoImpl

        server = env.create_domain("big-a", "server")
        client = env.create_domain("big-b", "client")
        binding = echo_module.binding("echo")
        obj = SimplexServer(server).export(EchoImpl(), binding)
        buffer = MarshalBuffer(env.kernel)
        obj._subcontract.marshal(obj, buffer)
        buffer.seal_for_transmission(server)
        remote = binding.unmarshal_from(buffer, client)

        env.clock.reset_tally()
        remote.reverse(b"x")
        small = env.clock.tally()["network"]
        env.clock.reset_tally()
        remote.reverse(b"x" * 100_000)
        large = env.clock.tally()["network"]
        assert large > small * 2

    def test_machine_names_unique(self, env):
        env.machine("dup")
        with pytest.raises(ValueError):
            env.fabric.create_machine("dup")


class TestPartitions:
    def test_partitioned_call_fails(self, world):
        env, _, _, remote = world
        with partitioned(env.fabric, "machine-a", "machine-b"):
            with pytest.raises(NetworkPartitionError):
                remote.add(1)
        assert remote.add(1) == 1  # healed

    def test_partition_is_symmetric_and_pairwise(self, env, counter_module):
        binding = counter_module.binding("counter")
        server = env.create_domain("p-a", "server")
        client_b = env.create_domain("p-b", "client")
        client_c = env.create_domain("p-c", "client")

        def handout(dst):
            obj = SimplexServer(server).export(CounterImpl(), binding)
            buffer = MarshalBuffer(env.kernel)
            obj._subcontract.marshal(obj, buffer)
            buffer.seal_for_transmission(server)
            return binding.unmarshal_from(buffer, dst)

        from_b = handout(client_b)
        from_c = handout(client_c)
        env.fabric.partition("p-a", "p-b")
        with pytest.raises(NetworkPartitionError):
            from_b.add(1)
        assert from_c.add(1) == 1  # unaffected pair
        env.fabric.heal_all()
        assert from_b.add(1) == 1

    def test_heal_unknown_pair_is_noop(self, env):
        env.fabric.heal("x", "y")  # must not raise


class TestLostReply:
    """A reply that never reaches its caller is the fabric's to clean up:
    back to the server's pool, whatever lost it."""

    def test_reply_lost_to_a_partition_formed_mid_call_is_recycled(
        self, env, counter_module
    ):
        class CutsTheReturnPath(CounterImpl):
            def add(self, n):
                env.fabric.partition_oneway("machine-a", "machine-b")
                return super().add(n)

        server = env.create_domain("machine-a", "server")
        client = env.create_domain("machine-b", "client")
        binding = counter_module.binding("counter")
        impl = CutsTheReturnPath()
        remote = transfer(SimplexServer(server).export(impl, binding), client)
        with pytest.raises(NetworkPartitionError, match="reply lost"):
            remote.add(1)
        assert impl.value == 1  # the request did land
        assert server.buffer_acquires == server.buffer_releases

    def test_reply_landing_after_the_buffer_deadline_is_recycled(self, world):
        # The budget rides the buffer's slot, not this thread's deadline
        # (as for a call a forwarder relays): the wire leg's checks read it
        # there, and the reply leg's landing check is what fires.
        env, server, client, remote = world
        request = client.acquire_buffer()
        request.put_string("total")
        request.ctx = {DEADLINE: env.clock.now_us + 1.5 * env.fabric.latency_us}
        request.seal_for_transmission(client)
        try:
            with pytest.raises(DeadlineExceeded, match="landed after the deadline"):
                env.kernel.fabric(client, remote._rep.door.door, request)
        finally:
            request.recycle()
        assert server.buffer_acquires == server.buffer_releases

    def test_cross_machine_reply_carries_no_region(self, env, counter_module):
        # Shared regions do not span machines: a reply the shm server
        # stamped with its request's region must arrive without it, or
        # the client would skip the copy charge for bytes that did cross.
        server = env.create_domain("machine-a", "server")
        client = env.create_domain("machine-b", "client")
        binding = counter_module.binding("counter")
        remote = transfer(ShmServer(server).export(CounterImpl(), binding), client)
        request = client.acquire_buffer()
        request.put_string("total")
        request.region = SharedRegion(client.machine)
        try:
            reply = env.kernel.door_call(client, remote._rep.door, request)
        finally:
            request.recycle()
        assert reply.region is None
        reply.release()


class TestNetServerAccounting:
    def test_door_translations_counted(self, env, counter_module):
        """Shipping an object (1 door) across machines is translated out
        on the sender and in on the receiver."""
        server = env.create_domain("acct-a", "server")
        client = env.create_domain("acct-b", "client")
        binding = counter_module.binding("counter")
        obj = SimplexServer(server).export(CounterImpl(), binding)

        # Hand the object over *through a door call*: export a dispenser.
        dispenser_module_src = "interface dispenser { object take(); }"
        from repro.idl.compiler import compile_idl

        dispenser_module = compile_idl(dispenser_module_src, "dispenser")

        class Dispenser:
            def __init__(self, thing):
                self.thing = thing

            def take(self):
                thing, self.thing = self.thing, None
                return thing

        dispenser = SimplexServer(server).export(
            Dispenser(obj), dispenser_module.binding("dispenser")
        )
        buffer = MarshalBuffer(env.kernel)
        dispenser._subcontract.marshal(dispenser, buffer)
        buffer.seal_for_transmission(server)
        remote_dispenser = dispenser_module.binding("dispenser").unmarshal_from(
            buffer, client
        )

        from repro.core import narrow

        tracer = env.install_tracer()
        taken = narrow(remote_dispenser.take(), binding)
        assert taken.add(2) == 2
        # The reply carrying the counter object moved exactly one door
        # out of acct-a and into acct-b; no other message carried one.
        assert [
            (s.name, s.attrs["machine"], s.attrs["doors"])
            for s in tracer.spans()
            if s.category == "netserver" and s.attrs["doors"]
        ] == [
            ("netserver.outbound_reply", "acct-a", 1),
            ("netserver.inbound_reply", "acct-b", 1),
        ]

    def test_calls_forwarded_counted(self, world):
        """One carried call counts once, on its request leg, once that leg
        is past its link check; a request the link refuses is not counted."""
        env, _, _, remote = world
        before = env.fabric.calls_carried
        remote.add(1)
        assert env.fabric.calls_carried == before + 1
        env.fabric.partition("machine-a", "machine-b")
        with pytest.raises(NetworkPartitionError):
            remote.add(1)
        assert env.fabric.calls_carried == before + 1
