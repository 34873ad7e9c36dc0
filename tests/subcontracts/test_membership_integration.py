"""Membership-aware subcontracts: pruning, fail-fast, re-admission.

The gossip view changes what the retrying subcontracts *do* on failure:
replicon prunes an evicted replica without paying the doomed call and
says why (the evicting incarnation); a replicon group subscribed to
membership parks an evicted machine's replicas and re-admits them on
rejoin; cluster — which has no failover set — fails fast instead of
burning its caller's deadline on a machine gossip already declared
dead.
"""

from __future__ import annotations

import pytest

from repro.kernel import CommunicationError
from repro.marshal.buffer import MarshalBuffer
from repro.runtime.env import Environment
from repro.subcontracts.cluster import ClusterServer
from repro.subcontracts.replicon import RepliconGroup
from tests.conftest import CounterImpl

MEMBERS = ("m0", "m1", "m2")


def ship(kernel, src, dst, obj, binding):
    buffer = MarshalBuffer(kernel)
    obj._subcontract.marshal(obj, buffer)
    buffer.seal_for_transmission(src)
    return binding.unmarshal_from(buffer, dst)


def eviction_bound_us(mem) -> float:
    cfg = mem.config
    n = len(mem.nodes)
    return (
        (n - 1) * (cfg.probe_interval_us + cfg.probe_jitter_us)
        + 2 * cfg.ack_timeout_us
        + cfg.suspicion_timeout_us
        + 1_000_000.0
    )


def span_events(tracer, name):
    return [
        evt
        for span in tracer.spans()
        for evt in span.events
        if evt["name"] == name
    ]


@pytest.fixture
def world(counter_module):
    env = Environment(seed=0)
    tracer = env.install_tracer()
    machines = [env.machine(name) for name in MEMBERS]
    env.machine("clients")
    mem = env.install_membership(machines=machines)
    client = env.create_domain("clients", "client")
    mem.plant(client, node="m1")
    binding = counter_module.binding("counter")
    return env, tracer, mem, machines, client, binding


class TestRepliconEviction:
    def build_group(self, env, binding):
        group = RepliconGroup(binding)
        replicas = []
        for name in MEMBERS:
            domain = env.create_domain(name, f"replica-{name}")
            impl = CounterImpl()
            group.add_replica(domain, impl)
            replicas.append((domain, impl))
        return group, replicas

    def test_evicted_replica_pruned_without_a_doomed_call(self, world):
        env, tracer, mem, machines, client, binding = world
        group, replicas = self.build_group(env, binding)
        obj = group.make_object(replicas[0][0])
        remote = ship(env.kernel, replicas[0][0], client, obj, binding)
        assert len(remote._rep.doors) == 3

        machines[0].crash()
        mem.run_for(eviction_bound_us(mem))
        assert mem.node("m1").evicted_incarnation("m0") == 1

        carried = env.fabric.calls_carried
        assert remote.add(4) == 4
        # exactly one carried call: the doomed m0 door was pruned from
        # the gossip view alone, not by paying a timeout
        assert env.fabric.calls_carried == carried + 1
        assert len(remote._rep.doors) == 2

        events = span_events(tracer, "replicon.evicted")
        assert events, "pruning must be attributed in the span"
        assert events[0]["member"] == "m0"
        assert events[0]["incarnation"] == 1

    def test_group_watching_membership_parks_and_readmits(self, world):
        env, tracer, mem, machines, client, binding = world
        group, replicas = self.build_group(env, binding)
        group.watch_membership(mem.node("m1"))
        epoch = group.epoch

        # partition (not crash): the machine's domains stay alive, so
        # its parked replicas are re-admittable after the heal
        for other in ("m1", "m2"):
            env.fabric.partition("m0", other)
        mem.run_for(eviction_bound_us(mem))
        assert [d.name for d, _, _ in group.members] == [
            "replica-m1", "replica-m2"
        ]
        assert group.epoch > epoch
        parked_epoch = group.epoch

        env.fabric.heal_all()
        mem.run_for(15_000_000)
        assert mem.node("m1").is_live("m0")
        assert sorted(d.name for d, _, _ in group.members) == [
            "replica-m0", "replica-m1", "replica-m2"
        ]
        assert group.epoch > parked_epoch

    def test_readmitted_replica_serves_again(self, world):
        env, tracer, mem, machines, client, binding = world
        group, replicas = self.build_group(env, binding)
        group.watch_membership(mem.node("m1"))
        for other in ("m1", "m2"):
            env.fabric.partition("m0", other)
        mem.run_for(eviction_bound_us(mem))
        assert group.evict_machine("m0") == 0, "watcher already parked it"
        env.fabric.heal_all()
        mem.run_for(15_000_000)
        # a fresh client set minted after the rejoin spans all three
        obj = group.make_object(group.members[0][0])
        remote = ship(env.kernel, group.members[0][0], client, obj, binding)
        assert len(remote._rep.doors) == 3
        assert remote.add(2) == 2


class TestClusterFailFast:
    def test_call_to_evicted_machine_fails_fast(self, world):
        env, tracer, mem, machines, client, binding = world
        server = env.create_domain("m0", "cluster-server")
        cluster = ClusterServer(server)
        obj = cluster.export(CounterImpl(), binding)
        remote = ship(env.kernel, server, client, obj, binding)
        assert remote.add(1) == 1

        machines[0].crash()
        mem.run_for(eviction_bound_us(mem))

        carried = env.fabric.calls_carried
        with pytest.raises(CommunicationError, match="evicted"):
            remote.add(1)
        # fail-fast means no wire traffic at all for the doomed call
        assert env.fabric.calls_carried == carried
        events = span_events(tracer, "cluster.evicted")
        assert events and events[0]["incarnation"] == 1

    def test_live_machine_is_never_fail_fasted(self, world):
        env, tracer, mem, machines, client, binding = world
        server = env.create_domain("m2", "cluster-server")
        cluster = ClusterServer(server)
        obj = cluster.export(CounterImpl(), binding)
        remote = ship(env.kernel, server, client, obj, binding)
        mem.run_for(5_000_000)
        assert remote.add(3) == 3
        assert span_events(tracer, "cluster.evicted") == []


class TestWhoReceivesTheView:
    """One rule: every client vector of a planted domain holds the view,
    whichever of plant and registration came first."""

    def test_third_party_vector_registered_before_or_after_plant(self, world):
        from repro.core.registry import ensure_registry
        from repro.subcontracts.singleton import SingletonClient

        class EarlyClient(SingletonClient):
            id = "third_party_early"
            membership = None  # declaring it is allowed, no longer needed

        class LateClient(SingletonClient):
            id = "third_party_late"

        env, tracer, mem, machines, client, binding = world
        domain = env.create_domain("clients", "another-client")
        registry = ensure_registry(domain)
        early = registry.register(EarlyClient)
        assert early.membership is None
        node = mem.plant(domain, node="m2")
        late = registry.register(LateClient)
        assert early.membership is node
        assert late.membership is node
        assert registry.lookup("replicon").membership is node
        # re-planting moves every vector to the new view
        other = mem.plant(domain, node="m1")
        assert early.membership is other and late.membership is other
