"""Network-server accounting: door-identifier translation on the wire leg.

The fabric charges each end's network server for translating the door
identifiers a message carries (Section 3.3).  The charge is read from the
clock's ``net_door_translate`` tally, the direction from the traced
``netserver.*`` spans, and the calls from ``fabric.calls_carried``.
"""

from __future__ import annotations

import pytest

from repro.core import narrow
from repro.idl.compiler import compile_idl
from repro.net.fabric import TRANSLATE_DOOR_US
from repro.runtime.transfer import transfer
from repro.subcontracts.replicon import RepliconGroup
from repro.subcontracts.simplex import SimplexServer
from tests.conftest import CounterImpl


class Handoff:
    def __init__(self, thing):
        self.thing = thing

    def take(self):
        thing, self.thing = self.thing, None
        return thing


def replicon_handoff(env, counter_module):
    """``(binding, dispenser)``: a 3-replica replicon counter on machine
    ``dc``, waiting in a dispenser the client on ``desk`` can call, so the
    object crosses the fabric in a reply."""
    binding = counter_module.binding("counter")
    group = RepliconGroup(binding)
    replicas = [env.create_domain("dc", f"r{i}") for i in range(3)]
    for replica in replicas:
        group.add_replica(replica, CounterImpl())
    client = env.create_domain("desk", "client")
    obj = group.make_object(replicas[0])
    module = compile_idl("interface handoff { object take(); }", "ns_handoff")
    dispenser = transfer(
        SimplexServer(replicas[0]).export(Handoff(obj), module.binding("handoff")),
        client,
    )
    return binding, dispenser


def netserver_spans(tracer):
    """``(name, machine, doors)`` of each traced network-server span."""
    return [
        (s.name, s.attrs["machine"], s.attrs["doors"])
        for s in tracer.spans()
        if s.category == "netserver"
    ]


def counter_across(env, counter_module):
    server = env.create_domain("east", "server")
    client = env.create_domain("west", "client")
    return transfer(
        SimplexServer(server).export(CounterImpl(), counter_module.binding("counter")),
        client,
    )


class TestAccounting:
    def test_counters_start_at_zero(self, env):
        env.machine("fresh")
        assert env.fabric.calls_carried == 0
        assert "net_door_translate" not in env.clock.tally()

    def test_translation_charges_clock(self, env, counter_module):
        """The replicon hand-off moves three doors out of ``dc`` and three
        into ``desk``: six translations."""
        binding, dispenser = replicon_handoff(env, counter_module)
        env.clock.reset_tally()
        taken = dispenser.take()
        assert env.clock.tally()["net_door_translate"] == pytest.approx(
            6 * TRANSLATE_DOOR_US
        )
        assert narrow(taken, binding).total() == 0

    def test_zero_door_messages_charge_nothing(self, env, counter_module):
        obj = counter_across(env, counter_module)
        env.clock.reset_tally()
        assert obj.add(1) == 1
        tally = env.clock.tally()
        assert tally["network"] > 0
        assert "net_door_translate" not in tally

    def test_replicon_object_counts_all_doors(self, env, counter_module):
        """Shipping a 3-replica replicon object across machines means
        three door translations out and three in."""
        binding, dispenser = replicon_handoff(env, counter_module)
        tracer = env.install_tracer()
        taken = dispenser.take()
        assert netserver_spans(tracer) == [
            ("netserver.outbound", "desk", 0),
            ("netserver.inbound", "dc", 0),
            ("netserver.outbound_reply", "dc", 3),
            ("netserver.inbound_reply", "desk", 3),
        ]
        assert narrow(taken, binding).total() == 0

    def test_calls_and_replies_counted_symmetrically(self, env, counter_module):
        obj = counter_across(env, counter_module)
        tracer = env.install_tracer()
        carried = env.fabric.calls_carried
        obj.add(1)
        assert env.fabric.calls_carried == carried + 1
        assert netserver_spans(tracer) == [
            ("netserver.outbound", "west", 0),
            ("netserver.inbound", "east", 0),
            ("netserver.outbound_reply", "east", 0),
            ("netserver.inbound_reply", "west", 0),
        ]
