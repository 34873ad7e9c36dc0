"""Call deadlines: the time budget that travels with the invocation.

Enforcement sits at three legs — door launch, arrival before the
handler, and each wire leg (fabric) as it leaves and as it lands — and
every violation surfaces as :class:`DeadlineExceeded`, which retry
policies refuse to retry.  These tests pin each leg, the nesting rule,
and the no-buffer-leak guarantee on the late-reply path.
"""

from __future__ import annotations

import pytest

from repro.kernel.errors import CommunicationError, DeadlineExceeded
from repro.net.fabric import TRANSLATE_DOOR_US
from repro.obs.tracer import install_tracer
from repro.runtime.deadline import deadline, remaining_us
from repro.runtime.env import Environment
from repro.runtime.faults import crash_domain
from repro.subcontracts.reconnectable import ReconnectableServer
from repro.subcontracts.singleton import SingletonServer
from tests.chaos.conftest import StableCounter, ship
from tests.conftest import CounterImpl, make_domain


@pytest.fixture
def remote_world(counter_module):
    """Two machines, 1000 us of one-way latency, one singleton counter."""
    env = Environment(latency_us=1000.0)
    server = env.create_domain(env.machine("south"), "server")
    client = env.create_domain(env.machine("north"), "client")
    binding = counter_module.binding("counter")
    exported = SingletonServer(server).export(CounterImpl(), binding)
    obj = ship(env.kernel, server, client, exported, binding)
    return env, server, client, obj


def assert_no_buffer_leaks(env):
    for domain in env.kernel.domains.values():
        assert domain.buffer_acquires == domain.buffer_releases, (
            f"domain {domain.name!r} leaked pooled buffers"
        )


class TestDoorLegs:
    def test_spent_budget_refused_at_launch(self, remote_world):
        env, _, _, obj = remote_world
        with deadline(env.kernel, 0.0):
            with pytest.raises(DeadlineExceeded, match="before calling door"):
                obj.add(1)

    @pytest.mark.parametrize("traced", [False, True], ids=["off", "on"])
    def test_local_call_refused_on_arrival(self, kernel, counter_module, traced):
        # Same-kernel call, raw door_call: the launch gate passes (zero
        # time elapses between entering the block and the gate), then the
        # door-traversal charge alone overruns the budget, so the
        # violation is caught at delivery — after the request is
        # consumed, before the handler runs.  (The governed variant, on
        # every entry, is in tests/kernel/test_call_path.py.)
        if traced:
            tracer = install_tracer(kernel)
        server = make_domain(kernel, "server")
        client = make_domain(kernel, "client")
        binding = counter_module.binding("counter")
        impl = CounterImpl()
        exported = SingletonServer(server).export(impl, binding)
        obj = ship(kernel, server, client, exported, binding)
        buffer = client.acquire_buffer()
        buffer.put_int32(1)
        with deadline(kernel, 0.001):
            with pytest.raises(DeadlineExceeded, match="handler ran"):
                kernel.door_call(client, obj._rep.door, buffer)
        buffer.recycle()
        # The request was consumed but the handler never executed.
        assert obj._rep.door.door.calls_handled == 1
        assert impl.value == 0
        if traced:
            # The door span closed in error; no handler span ever opened.
            assert [s.category for s in tracer.spans()] == ["door"]

    def test_deadline_exceeded_is_a_communication_error(self, remote_world):
        env, _, _, obj = remote_world
        with deadline(env.kernel, 0.0):
            with pytest.raises(CommunicationError):
                obj.add(1)


class TestWireLegs:
    def test_request_leg_violation(self, remote_world):
        # Budget smaller than one wire leg: the request lands late.
        env, _, _, obj = remote_world
        with deadline(env.kernel, 500.0):
            with pytest.raises(DeadlineExceeded):
                obj.add(1)
        assert_no_buffer_leaks(env)

    def test_request_landing_late_is_refused_on_the_wire(self, remote_world):
        # The budget covers the stub's marshalling but not the wire time:
        # the request is refused as it lands, before the server sees it.
        env, _, _, obj = remote_world
        with deadline(env.kernel, 500.0):
            with pytest.raises(DeadlineExceeded, match="request wire leg"):
                obj.add(1)
        assert obj._rep.door.door.calls_handled == 0
        assert_no_buffer_leaks(env)

    def test_translation_past_the_deadline_is_refused_before_the_wire(
        self, remote_world, counter_module
    ):
        # A request carrying a door: translating it to network form spends
        # the budget, so the request never leaves and pays no wire time.
        env, _, client, obj = remote_world
        passenger = SingletonServer(client).export(
            CounterImpl(), counter_module.binding("counter")
        )
        request = client.acquire_buffer()
        request.put_door_id(client, passenger._rep.door)
        env.clock.reset_tally()
        with deadline(env.kernel, TRANSLATE_DOOR_US / 2):
            with pytest.raises(DeadlineExceeded, match="request left 'north'"):
                env.kernel.door_call(client, obj._rep.door, request)
        request.recycle()
        tally = env.clock.tally()
        assert tally["net_door_translate"] == TRANSLATE_DOOR_US
        assert "network" not in tally
        assert obj._rep.door.door.calls_handled == 0
        assert_no_buffer_leaks(env)

    def test_reply_leg_violation_recycles_the_reply(self, remote_world):
        # Budget covers the request leg (~1000 us) but not the round trip
        # (~2000 us): the handler RAN, the reply landed late and was
        # recycled — no pooled buffer may leak on this path.
        env, server, _, obj = remote_world
        with deadline(env.kernel, 1500.0):
            with pytest.raises(DeadlineExceeded):
                obj.add(1)
        assert_no_buffer_leaks(env)
        # The server really did consume the request before the violation.
        assert obj._rep.door.door.calls_handled == 1

    def test_generous_budget_passes_untouched(self, remote_world):
        env, _, _, obj = remote_world
        with deadline(env.kernel, 1e9):
            assert obj.add(1) == 1
        assert_no_buffer_leaks(env)


class TestNesting:
    def test_inner_deadline_tightens(self, remote_world):
        env, _, _, obj = remote_world
        with deadline(env.kernel, 1e9):
            with deadline(env.kernel, 0.0):
                with pytest.raises(DeadlineExceeded):
                    obj.add(1)
            # Back under the outer budget: calls proceed again.
            assert obj.add(1) == 1

    def test_inner_deadline_cannot_extend(self, remote_world):
        env, _, _, obj = remote_world
        with deadline(env.kernel, 0.0):
            with deadline(env.kernel, 1e9):
                with pytest.raises(DeadlineExceeded):
                    obj.add(1)

    def test_remaining_us(self, remote_world):
        env, _, _, _ = remote_world
        assert remaining_us(env.kernel) is None
        with deadline(env.kernel, 5000.0):
            left = remaining_us(env.kernel)
            assert left == pytest.approx(5000.0)
            env.clock.advance(1000.0, "think_time")
            assert remaining_us(env.kernel) == pytest.approx(4000.0)
        assert remaining_us(env.kernel) is None

    def test_negative_timeout_rejected(self, remote_world):
        env, _, _, _ = remote_world
        with pytest.raises(ValueError, match="negative deadline"):
            with deadline(env.kernel, -1.0):
                pass

    def test_stale_deadline_not_carried_by_pooled_buffers(self, remote_world):
        # A buffer used under a deadline and then recycled must not haunt
        # the next (unbounded) call that draws it from the pool.
        env, _, _, obj = remote_world
        with deadline(env.kernel, 1500.0):
            with pytest.raises(DeadlineExceeded):
                obj.add(1)
        assert obj.add(1) == 2  # the handler ran once above, then here


class TestRetryInteraction:
    def test_reconnectable_does_not_retry_a_spent_deadline(
        self, env, counter_module
    ):
        server = env.create_domain(env.machine("servers"), "server-1")
        client = env.create_domain(env.machine("clients"), "client")
        binding = counter_module.binding("counter")
        exported = ReconnectableServer(server).export(
            StableCounter({}), binding, name="/services/counter"
        )
        obj = ship(env.kernel, server, client, exported, binding)
        crash_domain(server)
        backoff_before = env.clock.tally().get("retry_backoff", 0.0)
        with deadline(env.kernel, 0.0):
            with pytest.raises(DeadlineExceeded):
                obj.total()
        # Not one reconnection attempt was spent on the dead budget.
        assert env.clock.tally().get("retry_backoff", 0.0) == backoff_before

    def test_rawnet_checks_deadline_between_attempts(self, counter_module):
        from repro.subcontracts.rawnet import RawNetServer

        env = Environment(latency_us=0.0)
        server = env.create_domain(env.machine("s"), "server")
        client = env.create_domain(env.machine("c"), "client")
        binding = counter_module.binding("counter")
        exported = RawNetServer(server).export(CounterImpl(), binding)
        obj = ship(env.kernel, server, client, exported, binding)
        plane = env.install_chaos(seed=0)
        plane.default_link.drop = 1.0  # every datagram lost: pure RTO loop
        with deadline(env.kernel, 10_000.0):
            with pytest.raises(DeadlineExceeded, match="rawnet"):
                obj.add(1)
        # Without the deadline the same blackout exhausts the attempt
        # budget instead, surfacing the ordinary retryable failure.
        with pytest.raises(CommunicationError, match="no reply"):
            obj.add(1)
