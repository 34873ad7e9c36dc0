"""The failure matrix: every retrying subcontract x every way a target fails.

{replicon, reconnectable, caching, rowa, cluster} x {server crashed, door
revoked, shed busy, spent deadline, gossip-evicted (where the vector
consults the view)}, each with the tracer off and on.  The verdict is
decided once (``repro.runtime.retry.failure_verdict``); a cell asserts
what the subcontract *does* with it:

* **spent** surfaces as ``DeadlineExceeded`` and touches nothing;
* **busy** never prunes, re-resolves, drops D2 or trips a breaker;
* **dead** prunes / re-resolves / falls back (cluster, which has no
  alternative target, surfaces the failure and keeps its rep);
* **evicted** is dead learned for free: the doomed call is not paid and
  exactly one ``*.evicted`` event carries the evicting incarnation;
* the tracer changes no verdict: traced totals are the untraced totals
  plus exactly the tracer's own span and event charges.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil

import pytest

import repro
from repro.idl import compile_idl
from repro.kernel.errors import (
    CommunicationError,
    DeadlineExceeded,
    DoorRevokedError,
    InvalidDoorError,
    KernelError,
    NetworkPartitionError,
    ServerBusyError,
)
from repro.runtime.admission import AdmissionPolicy
from repro.runtime.deadline import deadline
from repro.runtime.env import Environment
from repro.runtime.faults import crash_domain
from repro.runtime.retry import (
    BUSY,
    DEAD,
    EVICTED,
    SPENT,
    BreakerOpenError,
    MemberEvictedError,
    RetryPolicy,
    failure_verdict,
)
from repro.subcontracts.caching import CachingServer
from repro.subcontracts.cluster import ClusterServer
from repro.subcontracts.reconnectable import ReconnectableServer
from repro.subcontracts.replicon import RepliconGroup
from repro.subcontracts.rowa import RowaGroup
from tests.chaos.conftest import StableCounter, ship
from tests.conftest import COUNTER_IDL, CounterImpl

SUBCONTRACTS = ("replicon", "reconnectable", "caching", "rowa", "cluster")
FAULTS = ("crashed", "revoked", "busy", "spent", "evicted")
#: the vectors that consult the gossip view
MEMBERSHIP_AWARE = ("replicon", "reconnectable", "cluster")
CELLS = [
    (subcontract, fault)
    for subcontract in SUBCONTRACTS
    for fault in FAULTS
    if fault != "evicted" or subcontract in MEMBERSHIP_AWARE
]

MEMBERS = ("m0", "m1", "m2")
NAME = "/services/counter"
SHED = dict(limit=1, queue_limit=0, service_estimate_us=300_000.0)
TRACER_TARIFFS = ("trace_span", "trace_event")


@functools.lru_cache(maxsize=None)
def counter_binding():
    return compile_idl(COUNTER_IDL, module_name="tests.counter").binding("counter")


class World:
    """Three server machines and a client; one object of one subcontract
    whose *target* — the door the next call goes to — lives on ``m0``."""

    def __init__(self, subcontract: str, fault: str, traced: bool) -> None:
        self.subcontract = subcontract
        self.env = env = Environment(seed=0)
        self.tracer = env.install_tracer() if traced else None
        self.machines = [env.machine(name) for name in MEMBERS]
        env.machine("clients")
        self.binding = counter_binding()
        self.mem = None
        if fault == "evicted":
            self.mem = env.install_membership(machines=self.machines)
        if subcontract == "caching":
            env.install_cache_manager("clients")
        self.client = env.create_domain("clients", "client")
        if self.mem is not None:
            self.mem.plant(self.client, node="m1")
        self.stable: dict = {}
        self.breaker = None
        getattr(self, "_build_" + subcontract)(fault)

    # -- one builder per subcontract -----------------------------------

    def _build_group(self, group):
        replicas = []
        for name in MEMBERS:
            domain = self.env.create_domain(name, f"replica-{name}")
            group.add_replica(domain, CounterImpl())
            replicas.append(domain)
        self.obj = ship(
            self.env.kernel,
            replicas[0],
            self.client,
            group.make_object(replicas[0]),
            self.binding,
        )
        self.doors = list(self.obj._rep.doors)

    def _build_replicon(self, fault):
        self._build_group(RepliconGroup(self.binding))

    def _build_rowa(self, fault):
        self._build_group(RowaGroup(self.binding, read_ops=("total",)))

    def _export_reconnectable(self, machine: str, label: str):
        server = self.env.create_domain(machine, label)
        exported = ReconnectableServer(server).export(
            StableCounter(self.stable), self.binding, name=NAME
        )
        return server, exported

    def _build_reconnectable(self, fault):
        server, exported = self._export_reconnectable("m0", "recon-0")
        self.obj = ship(self.env.kernel, server, self.client, exported, self.binding)
        # threshold 1: a busy or a spent deadline that were (wrongly)
        # counted as a failure would open the breaker on the spot
        threshold = 1 if fault in ("busy", "spent") else 3
        policy = RetryPolicy(
            base_us=50_000.0,
            multiplier=2.0,
            max_attempts=3,
            breaker_threshold=threshold,
            breaker_cooldown_us=1e9,
        )
        self.obj._subcontract.retry_policy = policy
        self.breaker = policy.breaker
        self.doors = [self.obj._rep.door]

    def _build_caching(self, fault):
        server = self.env.create_domain("m0", "server")
        exported = CachingServer(server).export(CounterImpl(), self.binding)
        self.obj = ship(self.env.kernel, server, self.client, exported, self.binding)
        assert self.obj._rep.cache_door is not None
        self.doors = [self.obj._rep.cache_door]

    def _build_cluster(self, fault):
        server = self.env.create_domain("m0", "cluster-server")
        exported = ClusterServer(server).export(CounterImpl(), self.binding)
        self.obj = ship(self.env.kernel, server, self.client, exported, self.binding)
        self.doors = [self.obj._rep.door]

    # -- observation ----------------------------------------------------

    @property
    def target(self):
        return self.doors[0]

    def state(self) -> tuple:
        """Everything a verdict may touch: rep / door set / cache front /
        breaker."""
        rep = self.obj._rep
        if self.subcontract in ("replicon", "rowa"):
            return tuple(door.uid for door in rep.doors)
        if self.subcontract == "reconnectable":
            return (rep.door.uid, self.breaker.state(NAME))
        if self.subcontract == "caching":
            front = rep.cache_door
            return (None if front is None else front.uid, rep.server_door.uid)
        return (rep.door.uid, rep.tag)

    def events(self, suffix: str) -> list[dict]:
        return [
            evt
            for span in self.tracer.spans()
            for evt in span.events
            if evt["name"].endswith(suffix)
        ]

    # -- the faults -----------------------------------------------------

    def rebind_replacement(self) -> None:
        """A fresh reconnectable incarnation (re)binds the name on m2."""
        if self.subcontract == "reconnectable":
            self._export_reconnectable("m2", "recon-1")

    def inject(self, fault: str) -> None:
        env, target = self.env, self.target
        if fault == "crashed":
            crash_domain(target.door.server)
            self.rebind_replacement()
        elif fault == "revoked":
            env.kernel.revoke_door(target.door.server, target.door)
            self.rebind_replacement()
        elif fault == "busy":
            self.admission = env.install_admission()
            self.admission.govern(target, AdmissionPolicy(**SHED))
            assert self.obj.total() == 0  # primes the target's occupancy
        elif fault == "evicted":
            # Partition, not crash: m0 stays up and reachable from the
            # client, so a call that *were* attempted would be served and
            # counted — the view alone must stop it.
            for other in ("m1", "m2"):
                env.fabric.partition("m0", other)
            self.mem.run_for(12_000_000.0)
            assert self.mem.node("m1").evicted_incarnation("m0") is not None
            self.rebind_replacement()

    def call(self, fault: str):
        """The call under test; returns ``(result, failure)``."""
        try:
            if fault == "spent":
                with deadline(self.env.kernel, 0.0):
                    return self.obj.total(), None
            return self.obj.total(), None
        except KernelError as failure:
            return None, failure


@functools.lru_cache(maxsize=None)
def run_cell(subcontract: str, fault: str, traced: bool) -> dict:
    world = World(subcontract, fault, traced)
    world.inject(fault)
    clock, kernel = world.env.clock, world.env.kernel
    before = {
        "state": world.state(),
        "handled": world.target.door.calls_handled,
        "door_call": clock.tally().get("door_call", 0.0),
        "copied": clock.tally().get("memory_copy_byte", 0.0),
    }
    #: [request bytes, reply bytes or None if refused] per door call
    attempts = []
    door_call = kernel.door_call

    def recording(caller, ident, buffer):
        attempt = [len(buffer.data), None]
        attempts.append(attempt)
        reply = door_call(caller, ident, buffer)
        attempt[1] = len(reply.data)
        return reply

    kernel.door_call = recording
    try:
        result, failure = world.call(fault)
    finally:
        del kernel.door_call
    return {
        "world": world,
        "before": before,
        "result": result,
        "failure": failure,
        "state": world.state(),
        "handled": world.target.door.calls_handled,
        "door_call": clock.tally().get("door_call", 0.0),
        "copied": clock.tally().get("memory_copy_byte", 0.0),
        "attempts": attempts,
        "tally": dict(clock.tally()),
    }


@pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize("subcontract,fault", CELLS)
def test_cell(subcontract, fault, traced):
    cell = run_cell(subcontract, fault, traced)
    world, before, failure = cell["world"], cell["before"], cell["failure"]
    target = world.target
    untouched = cell["state"] == before["state"]

    # The kernel copies one request per door call attempted, refused or
    # not, and one reply per reply; a shed caching read copies its memo.
    copied = sum(request + (reply or 0) for request, reply in cell["attempts"])
    if subcontract == "caching" and fault == "busy":
        copied += sum(map(len, world.obj._rep.stale.values()))
    unit = world.env.clock.model.memory_copy_byte_us
    assert cell["copied"] - before["copied"] == pytest.approx(unit * copied)

    if fault == "spent":
        assert isinstance(failure, DeadlineExceeded)
        assert untouched
        return

    if fault == "busy":
        # the shed target is healthy: still there, still first, breaker shut
        assert untouched
        assert world.admission.door_snapshot(target)["shed"] == 1
        if subcontract == "cluster":  # no alternative: the busy surfaces
            assert isinstance(failure, ServerBusyError)
            assert failure.retry_after_us > 0.0
        else:  # a sibling, a stale copy, or the same door after backoff
            assert failure is None and cell["result"] == 0
        return

    if fault == "evicted":
        # the doomed call was never paid, though m0 would have served it
        assert cell["handled"] == before["handled"]
        incarnation = world.mem.node("m1").evicted_incarnation("m0")
        if subcontract == "cluster":
            assert isinstance(failure, CommunicationError)
            assert "evicted" in str(failure)
            assert untouched
            assert cell["door_call"] == before["door_call"]
        else:
            assert failure is None and cell["result"] == 0
            assert not untouched
        if traced:
            events = world.events(".evicted")
            assert len(events) == 1
            assert events[0]["member"] == "m0"
            assert events[0]["incarnation"] == incarnation
        return

    # dead: crashed or revoked
    if subcontract == "cluster":  # single door, no failover: surface it
        assert failure_verdict(failure) is DEAD
        assert untouched
        return
    assert failure is None and cell["result"] == 0
    # the target refused the first attempt, and a later one was served
    attempts = cell["attempts"]
    assert attempts[0][1] is None and attempts[-1][1] is not None
    rep = world.obj._rep
    if subcontract in ("replicon", "rowa"):  # pruned
        assert target not in rep.doors and len(rep.doors) == 2
    elif subcontract == "reconnectable":  # re-resolved by name
        assert rep.door.uid != target.uid
        assert world.breaker.state(NAME) == "closed"
    else:  # caching fell back D2 -> D1
        assert rep.cache_door is None
        if traced:
            assert len(world.events("caching.fallback")) == 1


@pytest.mark.parametrize("subcontract,fault", CELLS)
def test_tracer_changes_no_verdict(subcontract, fault):
    plain = run_cell(subcontract, fault, False)
    traced = run_cell(subcontract, fault, True)
    assert type(traced["failure"]) is type(plain["failure"])
    assert traced["result"] == plain["result"]
    assert len(traced["state"]) == len(plain["state"])
    # sim time: identical category by category, plus the tracer's own
    # span and event probes and nothing else ...
    extra = dict(traced["tally"])
    probes = sum(extra.pop(tariff, 0.0) for tariff in TRACER_TARIFFS)
    # ... except where a wait runs to an *absolute* time, which the probes
    # already spent part of: the gossip pump's next due event, and the
    # remaining occupancy a busy server hints its caller to back off for
    until_absolute = {"membership"} | ({"retry_backoff"} if fault == "busy" else set())
    for category in until_absolute & extra.keys():
        assert abs(extra.pop(category) - plain["tally"][category]) <= probes + 1e-6
    assert extra == {
        category: us
        for category, us in plain["tally"].items()
        if category not in until_absolute
    }
    model = traced["world"].env.clock.model
    spans = traced["world"].tracer.spans()
    assert traced["tally"]["trace_span"] == pytest.approx(
        len(spans) * model.trace_span_us
    )
    assert traced["tally"].get("trace_event", 0.0) == pytest.approx(
        sum(len(span.events) for span in spans) * model.trace_event_us
    )


# ----------------------------------------------------------------------
# totality: no failure class without a verdict
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _all_kernel_errors() -> frozenset[type]:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found, frontier = set(), [KernelError]
    while frontier:
        cls = frontier.pop()
        if cls not in found and cls.__module__.startswith("repro."):
            found.add(cls)
            frontier.extend(cls.__subclasses__())
    return frozenset(found)


def _instance(cls: type) -> BaseException:
    if issubclass(cls, MemberEvictedError):
        return cls("replicon", "m0", 1)
    return cls("x")


def test_every_target_failure_has_a_verdict():
    errors = _all_kernel_errors()
    assert {BreakerOpenError, NetworkPartitionError, DoorRevokedError} <= errors
    for cls in errors:
        verdict = failure_verdict(_instance(cls))
        if issubclass(cls, (CommunicationError, InvalidDoorError)):
            assert verdict in (DEAD, BUSY, SPENT, EVICTED), cls
        else:  # not about a target: must surface unchanged
            assert verdict is None, cls
    assert failure_verdict(ValueError("application error")) is None
    assert failure_verdict(DeadlineExceeded("x")) is SPENT
    assert failure_verdict(ServerBusyError("x", retry_after_us=5.0)) is BUSY
    assert failure_verdict(MemberEvictedError("cluster", "m0", 1)) is EVICTED
    for cls in (BreakerOpenError, NetworkPartitionError, DoorRevokedError):
        assert failure_verdict(cls("x")) is DEAD


def test_retryable_is_a_view_of_the_verdict():
    """``RetryPolicy.retryable`` and the verdict cannot disagree."""
    for cls in _all_kernel_errors():
        failure = _instance(cls)
        expected = isinstance(failure, CommunicationError) and failure_verdict(
            failure
        ) in (DEAD, BUSY, EVICTED)
        assert RetryPolicy.retryable(failure) is expected, cls
