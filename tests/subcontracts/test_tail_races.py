"""A copy or a transmission never walks doors a sibling thread is deleting.

Replicon and rowa prune door identifiers while an ``invoke`` fails over;
``copy``, ``marshal_copy`` and ``marshal`` walk the same identifiers.
Per-object interference between sibling threads is what Schill et al.
(PAPERS.md) rule out by construction: here the representation's hooks and
its ``invoke`` updates share one lock.

Each cell injects the bad interleaving deterministically: the copier is
stopped inside its first ``kernel.copy_door_id`` and a sibling thread's
call on the same object is let loose.  Unlocked, the sibling finishes --
its failover deletes an identifier the copier still means to duplicate,
which then raises ``DoorAccessError: domain 'client' does not own
identifier``.  Locked, the sibling is seen to wait on the rep's lock, the
copier goes on, and both succeed.

(Caching has no cell: its copy read D2 only after D1 was duplicated, so
this injection shows the sibling's demotion instead of racing it.)
"""

from __future__ import annotations

import threading

import pytest

from repro.runtime.faults import crash_domain
from repro.runtime.threads import run_concurrently
from repro.runtime.transfer import give, transfer
from repro.subcontracts.replicon import RepliconGroup
from repro.subcontracts.rowa import RowaGroup
from tests.conftest import CounterImpl

WAIT_S = 10.0


class _SignallingLock:
    """Stands in for a rep's lock; says when an acquire had to wait."""

    def __init__(self, inner, waited: threading.Event) -> None:
        self.inner = inner
        self.waited = waited

    def __enter__(self):
        if not self.inner.acquire(blocking=False):
            self.waited.set()
            self.inner.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.inner.release()


def interleave(kernel, rep, copier, sibling) -> None:
    """Run ``copier``; inside its first ``copy_door_id`` run ``sibling``
    on another thread until it finishes or waits on ``rep.lock``."""
    entered = threading.Event()
    proceed = threading.Event()
    if hasattr(rep, "lock"):
        rep.lock = _SignallingLock(rep.lock, proceed)
    real_copy = kernel.copy_door_id

    def copy_door_id(domain, ident):
        if not entered.is_set():
            entered.set()
            assert proceed.wait(WAIT_S), "the sibling neither finished nor waited"
        return real_copy(domain, ident)

    def run_sibling():
        assert entered.wait(WAIT_S), "the copier never duplicated a door"
        try:
            sibling()
        finally:
            proceed.set()

    kernel.copy_door_id = copy_door_id
    try:
        run_concurrently([copier, run_sibling], timeout=3 * WAIT_S)
    finally:
        del kernel.copy_door_id


@pytest.fixture
def world(env, counter_module):
    replicas = [env.create_domain(f"replica-town-{i}", f"replica{i}") for i in range(3)]
    client = env.create_domain("client-town", "client")
    other = env.create_domain("other-town", "other")
    return env, replicas, client, other, counter_module.binding("counter")


def _replicon(world):
    env, replicas, client, other, binding = world
    group = RepliconGroup(binding)
    for domain in replicas:
        group.add_replica(domain, CounterImpl())
    obj = transfer(group.make_object(replicas[0]), client)
    obj.total()  # adopt the full replica set
    assert len(obj._rep.doors) == 3
    crash_domain(replicas[0])
    return obj


def test_replicon_copy_during_failover(world):
    env, replicas, client, other, binding = world
    obj = _replicon(world)
    before = len(client.door_ids) - 3
    made = []
    interleave(
        env.kernel, obj._rep, lambda: made.append(obj.spring_copy()), obj.total
    )
    (duplicate,) = made
    assert duplicate.total() == 0 and obj.total() == 0
    assert len(obj._rep.doors) == len(duplicate._rep.doors) == 2
    for handle in (obj, duplicate):
        handle.spring_consume()
    assert len(client.door_ids) == before


def test_replicon_give_during_failover(world):
    env, replicas, client, other, binding = world
    obj = _replicon(world)
    before = len(client.door_ids) - 3, len(other.door_ids)
    made = []
    interleave(
        env.kernel, obj._rep, lambda: made.append(give(obj, other)), obj.total
    )
    (given,) = made
    assert given.total() == 0 and obj.total() == 0
    for handle in (obj, given):
        handle.spring_consume()
    assert (len(client.door_ids), len(other.door_ids)) == before


def test_rowa_copy_during_write_all(world):
    env, replicas, client, other, binding = world
    group = RowaGroup(binding, read_ops=("total",))
    for domain in replicas:
        group.add_replica(domain, CounterImpl())
    obj = transfer(group.make_object(replicas[0]), client)
    before = len(client.door_ids) - 3
    crash_domain(replicas[1])
    made = []
    interleave(
        env.kernel,
        obj._rep,
        lambda: made.append(obj.spring_copy()),
        lambda: obj.add(1),
    )
    (duplicate,) = made
    assert len(obj._rep.doors) == 2  # the write dropped the replica it missed
    assert obj.total() == 1
    assert duplicate.add(1) == 2 and len(duplicate._rep.doors) == 2
    for handle in (obj, duplicate):
        handle.spring_consume()
    assert len(client.door_ids) == before
