"""Rawnet subcontract behaviour (Section 9.2: RPC over raw packets)."""

from __future__ import annotations

import pytest

from repro.kernel import CommunicationError
from repro.marshal.buffer import MarshalBuffer
from repro.marshal.errors import MarshalError
from repro.runtime.env import Environment
from repro.subcontracts.rawnet import MAX_ATTEMPTS, MTU, RawNetServer
from tests.conftest import CounterImpl, EchoImpl


def build(env, module, impl=None, iface="counter"):
    server = env.create_domain("server-town", "server")
    client = env.create_domain("client-town", "client")
    binding = module.binding(iface)
    rawnet = RawNetServer(server)
    exported = rawnet.export(impl or CounterImpl(), binding)
    buffer = MarshalBuffer(env.kernel)
    exported._subcontract.marshal(exported, buffer)
    buffer.seal_for_transmission(server)
    obj = binding.unmarshal_from(buffer, client)
    return server, client, rawnet, obj


class TestLossFree:
    def test_basic_calls(self, env, counter_module):
        _, _, _, obj = build(env, counter_module)
        assert obj.add(5) == 5
        assert obj.total() == 5

    def test_no_doors_used_for_invocation(self, env, counter_module):
        _, _, _, obj = build(env, counter_module)
        doors_before = env.kernel.live_door_count()
        obj.add(1)
        assert env.kernel.live_door_count() == doors_before
        # Calls ride datagrams, not the forwarded-door-call path.
        assert env.fabric.calls_carried == 0
        assert env.fabric.datagrams_delivered > 0

    def test_large_messages_fragment(self, env, echo_module):
        _, _, _, obj = build(env, echo_module, EchoImpl(), "echo")
        payload = b"z" * (MTU * 3 + 17)
        sent_before = env.fabric.datagrams_sent
        assert obj.reverse(payload) == payload[::-1]
        # request needed >= 4 fragments and the reply just as many
        assert env.fabric.datagrams_sent - sent_before >= 8

    def test_remote_exceptions_cross(self, env, counter_module):
        from repro.core.errors import RemoteApplicationError

        class Angry(CounterImpl):
            def add(self, n):
                raise ValueError("refused")

        _, _, _, obj = build(env, counter_module, Angry())
        with pytest.raises(RemoteApplicationError, match="refused"):
            obj.add(1)

    def test_copy_and_reship(self, env, counter_module):
        server, client, _, obj = build(env, counter_module)
        third = env.create_domain("third-town", "third")
        duplicate = obj.spring_copy()
        buffer = MarshalBuffer(env.kernel)
        duplicate._subcontract.marshal(duplicate, buffer)
        buffer.seal_for_transmission(client)
        moved = counter_module.binding("counter").unmarshal_from(buffer, third)
        obj.add(2)
        assert moved.total() == 2


class TestDoorRestriction:
    def test_object_arguments_rejected(self, env, counter_module):
        from repro.idl.compiler import compile_idl

        module = compile_idl(
            "interface taker { void take(object o); }", "rawnet_taker"
        )

        class Taker:
            def take(self, o):
                pass

        server, client, _, obj = build(env, module, Taker(), "taker")
        from repro.subcontracts.simplex import SimplexServer

        victim = SimplexServer(client).export(
            CounterImpl(), counter_module.binding("counter")
        )
        with pytest.raises((MarshalError, Exception)) as info:
            obj.take(victim)
        assert "door" in str(info.value)


class TestLossRecovery:
    def _lossy_env(self, loss, seed=42):
        return Environment(datagram_loss=loss, seed=seed)

    def test_calls_survive_heavy_loss(self, counter_module):
        env = self._lossy_env(0.4)
        _, _, rawnet, obj = build(env, counter_module)
        for i in range(1, 11):
            assert obj.add(1) == i
        assert env.clock.tally().get("rawnet_rto", 0.0) > 0  # retransmitted

    def test_at_most_once_execution(self, counter_module):
        """Even when replies are lost and requests retransmitted, each
        operation runs exactly once (the reply cache answers dupes)."""
        env = self._lossy_env(0.3, seed=99)
        _, _, rawnet, obj = build(env, counter_module)
        rounds = 12
        for i in range(1, rounds + 1):
            assert obj.add(1) == i  # value would jump if add re-executed
        assert rawnet.executions == rounds + 0  # one execution per call
        assert rawnet.duplicates_served > 0  # and dupes did happen

    def test_total_loss_gives_up(self, counter_module):
        env = self._lossy_env(1.0)
        _, _, _, obj = build(env, counter_module)
        with pytest.raises(CommunicationError, match="no reply"):
            obj.total()
        rto = env.clock.tally()["rawnet_rto"]
        assert rto >= MAX_ATTEMPTS * 20_000.0 - 1e-6

    def test_cost_rises_strictly_with_datagram_loss(self, counter_module):
        """Sim µs per call under 0, 1 and 5 % fault-plane loss: the
        retransmission tax grows, and the calls still get through."""
        costs, failures, drops = [], [], []
        for drop in (0.0, 0.01, 0.05):
            env = Environment(latency_us=200.0)
            _, _, _, obj = build(env, counter_module)
            plane = env.install_chaos(seed=1)
            plane.default_link.drop = drop
            start, failed = env.clock.now_us, 0
            for _ in range(100):
                try:
                    obj.add(1)
                except CommunicationError:
                    failed += 1
            costs.append(env.clock.now_us - start)
            failures.append(failed)
            drops.append(plane.injected.get("datagram_drop", 0))
        assert costs[0] < costs[1] < costs[2]
        assert failures[0] == drops[0] == 0 and max(failures) <= 5
        assert drops[2] > drops[1] > 0

    def test_partition_behaves_like_loss(self, env, counter_module):
        server, client, _, obj = build(env, counter_module)
        obj.add(1)
        env.fabric.partition("server-town", "client-town")
        with pytest.raises(CommunicationError):
            obj.total()
        env.fabric.heal_all()
        assert obj.total() == 1


class TestRevocation:
    def test_revoked_endpoint_goes_silent(self, env, counter_module):
        server, client, rawnet, obj = build(env, counter_module)
        keeper = obj.spring_copy()
        rawnet.revoke(keeper)
        with pytest.raises(CommunicationError):
            obj.total()


class TestCompatibleRouting:
    def test_rawnet_object_discovered_via_default_subcontract(self, env, counter_module):
        """A counter typed at singleton arrives as rawnet: the registry
        routes it exactly like any other subcontract (Section 6.1)."""
        _, client, _, obj = build(env, counter_module)
        assert obj._subcontract.id == "rawnet"
        assert counter_module.binding("counter").default_subcontract_id == "singleton"
