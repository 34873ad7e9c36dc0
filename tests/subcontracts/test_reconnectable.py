"""Reconnectable subcontract behaviour (Section 8.3)."""

from __future__ import annotations

import pytest

from repro.kernel import CommunicationError
from repro.marshal.buffer import MarshalBuffer
from repro.runtime.faults import crash_domain
from repro.subcontracts.reconnectable import ReconnectableServer
from tests.conftest import CounterImpl


class StableCounter(CounterImpl):
    """Counter whose state lives in 'stable storage' shared across
    server incarnations."""

    def __init__(self, stable: dict) -> None:
        super().__init__()
        self._stable = stable
        self.value = stable.get("value", 0)

    def add(self, n):
        self.value += n
        self._stable["value"] = self.value
        return self.value


@pytest.fixture
def world(env, counter_module):
    server_machine = env.machine("servers")
    client_machine = env.machine("clients")
    stable = {}
    server = env.create_domain(server_machine, "server-1")
    client = env.create_domain(client_machine, "client")
    binding = counter_module.binding("counter")
    obj = ReconnectableServer(server).export(
        StableCounter(stable), binding, name="/services/counter"
    )
    buffer = MarshalBuffer(env.kernel)
    obj._subcontract.marshal(obj, buffer)
    buffer.seal_for_transmission(server)
    client_obj = binding.unmarshal_from(buffer, client)
    return env, server, client, client_obj, binding, stable


def restart_server(env, stable, binding, incarnation):
    """Boot a fresh server domain and re-export under the same name."""
    server = env.create_domain("servers", f"server-{incarnation}")
    ReconnectableServer(server).export(
        StableCounter(stable), binding, name="/services/counter"
    )
    return server


class TestNormalOperation:
    def test_plain_invocation(self, world):
        _, _, _, obj, _, _ = world
        assert obj.add(3) == 3

    def test_rep_carries_door_and_name(self, world):
        _, _, _, obj, _, _ = world
        assert obj._rep.name == "/services/counter"
        assert obj._rep.door is not None

    def test_export_requires_name(self, env, counter_module):
        server = env.create_domain("servers", "server")
        with pytest.raises(TypeError, match="stable object name"):
            ReconnectableServer(server).export(
                CounterImpl(), counter_module.binding("counter")
            )


class TestRecovery:
    def test_quiet_recovery_after_crash_and_restart(self, world):
        env, server, _, obj, binding, stable = world
        obj.add(10)
        crash_domain(server)
        restart_server(env, stable, binding, 2)
        # The client object quietly recovers: same handle, state intact.
        assert obj.add(5) == 15

    def test_rep_door_replaced_after_recovery(self, world):
        env, server, _, obj, binding, stable = world
        old_door_uid = obj._rep.door.door.uid
        crash_domain(server)
        restart_server(env, stable, binding, 2)
        obj.total()
        assert obj._rep.door.door.uid != old_door_uid

    def test_recovery_through_multiple_crashes(self, world):
        env, server, _, obj, binding, stable = world
        obj.add(1)
        incarnation = server
        for generation in range(2, 5):
            crash_domain(incarnation)
            incarnation = restart_server(env, stable, binding, generation)
            assert obj.add(1) == generation

    def test_gives_up_when_server_never_returns(self, world):
        env, server, _, obj, _, _ = world
        crash_domain(server)
        with pytest.raises(CommunicationError, match="gave up"):
            obj.total()

    def test_policy_budget_alone_bounds_the_loop(self, world):
        """``retry_policy.max_attempts`` is the one budget knob."""
        env, server, _, obj, _, _ = world
        vector = obj._subcontract
        vector.retry_policy = vector.retry_policy.derive(max_attempts=2)
        crash_domain(server)
        before = env.clock.tally().get("retry_backoff", 0.0)
        with pytest.raises(CommunicationError, match="after 2 attempts"):
            obj.total()
        waits = [vector.retry_policy.backoff_us(n) for n in (1, 2)]
        assert env.clock.tally()["retry_backoff"] - before == sum(waits)
        assert vector.max_retries == 2

    def test_retry_backoff_charged_to_clock(self, world):
        env, server, _, obj, binding, stable = world
        crash_domain(server)
        restart_server(env, stable, binding, 2)
        tally_before = env.clock.tally().get("retry_backoff", 0.0)
        obj.total()
        assert env.clock.tally()["retry_backoff"] > tally_before

    def test_recovery_before_first_call(self, world):
        """Crash + restart while the client is idle: the very next call
        recovers without any prior failure observed."""
        env, server, _, obj, binding, stable = world
        obj.add(2)
        crash_domain(server)
        restart_server(env, stable, binding, 2)
        assert obj.total() == 2


class TestLifecycle:
    def test_marshal_carries_name(self, world):
        env, _, client, obj, binding, _ = world
        other = env.create_domain("clients", "client-2")
        buffer = MarshalBuffer(env.kernel)
        obj._subcontract.marshal(obj, buffer)
        buffer.seal_for_transmission(client)
        moved = binding.unmarshal_from(buffer, other)
        assert moved._rep.name == "/services/counter"
        assert moved.add(1) == 1

    def test_copy_and_recover_independently(self, world):
        env, server, _, obj, binding, stable = world
        duplicate = obj.spring_copy()
        crash_domain(server)
        restart_server(env, stable, binding, 2)
        assert obj.add(1) == 1
        assert duplicate.add(1) == 2
