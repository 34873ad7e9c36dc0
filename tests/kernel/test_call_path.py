"""The call path's gate order, checked once per way a call can arrive.

A call reaches its handler through ``Kernel.incoming`` from three
places: the local tail of ``door_call``, the sim fabric's carry, and a
worker process replaying an envelope (``procworker._serve_call``, driven
in-process here).  Every cell of entry x tracer must see the same gate
order — ``docs/architecture.md`` has the table.  Worlds use a raw door
handler so nothing above the kernel (stubs, subcontracts, skeletons)
can mask a difference between the legs.

The *ungoverned* local arrival-deadline refusal is pinned where it
always was, ``tests/chaos/test_deadline.py::TestDoorLegs``; the cell
here is the governed one, where a permit is outstanding when the
refusal fires.
"""

from __future__ import annotations

import contextlib
import math

import pytest

from repro.kernel.errors import (
    DeadlineExceeded,
    DoorRevokedError,
    ServerBusyError,
    ServerDiedError,
)
from repro.marshal.buffer import MarshalBuffer
from repro.marshal.context import DEADLINE
from repro.marshal.envelope import KIND_CALL, Envelope
from repro.net.procworker import _serve_call
from repro.obs.tracer import TRACE, Tracer
from repro.runtime import AdmissionPolicy, Environment, deadline, remaining_us
from repro.runtime.chaos import InjectedFault
from repro.runtime.idem import IDEM, current_idempotency_key, idempotency_key

ENTRIES = ("local", "fabric", "worker")
CELLS = [
    pytest.param(entry, traced, id=f"{entry}-{'on' if traced else 'off'}")
    for entry in ENTRIES
    for traced in (False, True)
]

#: occupancy long enough to straddle every per-call overhead in a test
LONG_SERVICE_US = 500_000.0
#: the wire context a worker envelope carries (no such span exists, so a
#: handler span parented here can only have read it off the wire)
WIRE_CTX = (77, 99)


class World:
    """One probe door and one way of calling it."""

    def __init__(self, entry: str, traced: bool) -> None:
        self.entry = entry
        self.env = env = Environment()
        self.kernel = kernel = env.kernel
        self.server = env.create_domain("south", "server")
        self.client = env.create_domain(
            "north" if entry == "fabric" else "south", "client"
        )
        self.runs = 0
        self.seen: dict = {}
        self.on_call = None
        server_ident = kernel.create_door(self.server, self._handler, label="probe")
        self.door = server_ident.door
        self.ident = self.grant(server_ident, self.server, self.client)
        self.tracer = env.install_tracer() if traced else None

    def grant(self, ident, owner, to):
        """Hand ``to`` its own identifier for ``ident``'s door."""
        transit = self.kernel.detach_door_id(
            owner, self.kernel.copy_door_id(owner, ident)
        )
        return self.kernel.attach_door_id(to, transit)

    def inner_door(self, handler):
        """A second door, beside the server, that the server may call."""
        inner = self.env.create_domain("south", "inner")
        ident = self.kernel.create_door(inner, lambda request: handler(inner, request))
        return self.grant(ident, inner, self.server)

    def nested_call(self, ident):
        """From inside the probe handler: one call on ``ident``."""
        buffer = self.server.acquire_buffer()
        try:
            return self.kernel.door_call(self.server, ident, buffer)
        finally:
            buffer.recycle()

    def _handler(self, request: MarshalBuffer) -> MarshalBuffer:
        self.runs += 1
        self.seen = {
            "depth": self.kernel.call_depth,
            "slot": current_idempotency_key(self.kernel),
            "key": (request.ctx or {}).get(IDEM),
        }
        n = request.get_int32()
        if self.on_call is not None:
            self.on_call()
        reply = self.server.acquire_buffer()
        reply.put_int32(n + 1)
        return reply

    def call(self, n: int = 1, budget_us: float | None = None, key: int | None = None):
        """One call through this world's entry; returns the reply value."""
        kernel = self.kernel
        keyed = (
            idempotency_key(kernel, key) if key is not None else contextlib.nullcontext()
        )
        if self.entry == "worker":
            request = MarshalBuffer(kernel)
            request.put_int32(n)
            self.bounded_at = kernel.clock.now_us
            # The context as the envelope decodes it on this clock: the
            # remaining budget re-anchored, the other keys as sent.
            ctx = {TRACE: WIRE_CTX}
            if budget_us is not None:
                ctx[DEADLINE] = kernel.clock.now_us + budget_us
            if key is not None:
                ctx[IDEM] = key
            envelope = Envelope(
                KIND_CALL, call_id=1, target=0, ctx=ctx, payload=bytes(request.data)
            )
            with keyed:
                reply = _serve_call(kernel, {0: self.door}, envelope)
            reply.rewind()
        else:
            bounded = (
                deadline(kernel, budget_us)
                if budget_us is not None
                else contextlib.nullcontext()
            )
            buffer = self.client.acquire_buffer()
            buffer.put_int32(n)
            self.bounded_at = kernel.clock.now_us
            try:
                with keyed, bounded:
                    reply = kernel.door_call(self.client, self.ident, buffer)
            finally:
                buffer.recycle()
        value = reply.get_int32()
        reply.recycle()
        return value

    def govern(self, **policy):
        """Install admission, govern the probe door, count permits."""
        controller = self.env.install_admission()
        controller.govern(self.door, AdmissionPolicy(**policy))
        self.permits = {"issued": 0, "completed": 0}
        admit, complete = controller.admit, controller.complete

        def counting_admit(door, buffer):
            permit = admit(door, buffer)
            self.permits["issued"] += permit is not None
            return permit

        def counting_complete(permit):
            self.permits["completed"] += 1
            complete(permit)

        controller.admit = counting_admit
        controller.complete = counting_complete
        return controller

    def door_call_charges(self) -> float:
        return self.kernel.clock.tally().get("door_call", 0.0)

    def handler_spans(self):
        return [s for s in self.tracer.spans() if s.category == "handler"]


@pytest.mark.parametrize("entry,traced", CELLS)
def test_shed_call_is_refused_before_the_traversal_is_charged(entry, traced):
    world = World(entry, traced)
    world.govern(limit=1, queue_limit=0, service_estimate_us=LONG_SERVICE_US)
    assert world.call(1) == 2
    handled, charged, runs = (
        world.door.calls_handled,
        world.door_call_charges(),
        world.runs,
    )
    with pytest.raises(ServerBusyError, match="queue full"):
        world.call(1)
    assert world.door.calls_handled == handled
    assert world.door_call_charges() == charged
    assert world.runs == runs
    assert world.permits == {"issued": 1, "completed": 1}


@pytest.mark.parametrize("fault", ["crash", "revoke"])
@pytest.mark.parametrize("entry,traced", CELLS)
def test_door_lost_in_flight_answers_dead_not_busy(entry, traced, fault):
    """Busy is not dead: a full door whose server went away after launch
    must not hand the caller a ``retry_after_us`` hint to back off on."""
    world = World(entry, traced)
    controller = world.govern(
        limit=1, queue_limit=0, service_estimate_us=LONG_SERVICE_US
    )
    world.call(1)  # the one slot is now occupied: the next call would shed
    kernel = world.kernel
    if fault == "crash":
        strike, error = lambda: kernel.crash_domain(world.server), ServerDiedError
    else:
        strike, error = (
            lambda: kernel.revoke_door(world.server, world.door),
            DoorRevokedError,
        )
    if entry == "worker":
        strike()  # no launch leg in a worker: the envelope is the launch
    else:
        # Due now, so it fires from the launch leg's chaos hook — after
        # launch has checked the capability and the server's liveness.
        world.env.install_chaos().schedule(kernel.clock.now_us, strike, fault)
    handled, charged = world.door.calls_handled, world.door_call_charges()
    with pytest.raises(error):
        world.call(1)
    assert controller.door_snapshot(world.door)["shed"] == 0
    assert world.permits == {"issued": 1, "completed": 1}
    assert world.door.calls_handled == handled
    assert world.door_call_charges() == charged


@pytest.mark.parametrize("entry,traced", CELLS)
def test_arrival_deadline_refusal_releases_its_permit(entry, traced):
    world = World(entry, traced)
    # Deadline-blind, so the doomed call queues behind the first, burns
    # its budget waiting, and is refused on arrival holding a permit.
    world.govern(
        limit=1,
        queue_limit=8,
        deadline_aware=False,
        service_estimate_us=LONG_SERVICE_US,
    )
    world.call(1)
    handled, runs = world.door.calls_handled, world.runs
    with pytest.raises(DeadlineExceeded, match="handler ran"):
        world.call(1, budget_us=10_000.0)
    # The request was consumed but the handler never executed.
    assert world.door.calls_handled == handled + 1
    assert world.runs == runs
    assert world.permits == {"issued": 2, "completed": 2}
    if traced:
        assert len(world.handler_spans()) == 1


def budget_landing_at(start: float, arrival: float) -> float:
    """The budget whose deadline, set at ``start``, is exactly ``arrival``."""
    budget = arrival - start
    while start + budget < arrival:
        budget = math.nextafter(budget, math.inf)
    while start + budget > arrival:
        budget = math.nextafter(budget, -math.inf)
    assert start + budget == arrival
    return budget


@pytest.mark.parametrize("entry", ENTRIES)
def test_call_landing_exactly_at_its_deadline_is_refused(entry):
    # A probe world measures when the call reaches the arrival check (the
    # handler runs at that same sim instant); an identical world then
    # calls with a deadline at exactly that instant.
    probe = World(entry, traced=False)
    arrival = []
    probe.on_call = lambda: arrival.append(probe.kernel.clock.now_us)
    probe.call(1)
    budget = budget_landing_at(probe.bounded_at, arrival[0])
    world = World(entry, traced=False)
    handled = world.door.calls_handled
    with pytest.raises(DeadlineExceeded, match="handler ran"):
        world.call(1, budget_us=budget)
    assert world.bounded_at == probe.bounded_at
    assert world.door.calls_handled == handled + 1
    assert world.runs == 0


@pytest.mark.parametrize("entry", ENTRIES)
def test_handler_runs_in_its_callers_budget(entry):
    # Nested calls inherit the caller's deadline on every entry — a
    # worker's included, where the handler thread is not the caller's.
    world = World(entry, traced=False)
    kernel = world.kernel
    inner = world.inner_door(lambda domain, request: domain.acquire_buffer())
    left = []

    def spend_then_nest():
        left.append(remaining_us(kernel))
        kernel.clock.advance(left[0])
        world.nested_call(inner).recycle()

    world.on_call = spend_then_nest
    with pytest.raises(DeadlineExceeded, match="before calling door"):
        world.call(1, budget_us=1_000_000.0)
    assert 0.0 < left[0] < 1_000_000.0
    assert remaining_us(kernel) is None


@pytest.mark.parametrize("entry", ("local", "fabric"))
def test_reply_is_read_from_its_start_whoever_peeked_at_it(entry):
    # The reply leg seals the reply for its receiver: a relay that read
    # part of the reply it hands back must not move its caller's cursor.
    world = World(entry, traced=False)

    def answer(domain, request):
        reply = domain.acquire_buffer()
        reply.put_int32(40)
        reply.put_int32(2)
        return reply

    inner = world.inner_door(answer)

    def relay(request):
        reply = world.nested_call(inner)
        assert reply.get_int32() == 40
        return reply

    world.door.handler = relay
    buffer = world.client.acquire_buffer()
    try:
        reply = world.kernel.door_call(world.client, world.ident, buffer)
    finally:
        buffer.recycle()
    assert (reply.get_int32(), reply.get_int32()) == (40, 2)
    reply.recycle()


@pytest.mark.parametrize("entry,traced", CELLS)
def test_raising_handler_restores_depth_idem_slot_and_permit(entry, traced):
    world = World(entry, traced)
    world.govern(limit=4)

    def boom():
        raise RuntimeError("handler blew up")

    world.on_call = boom
    with idempotency_key(world.kernel, 7):
        with pytest.raises(RuntimeError, match="blew up"):
            world.call(1, key=42)
        # Back in the caller: its own key again, not the call's, not None.
        assert current_idempotency_key(world.kernel) == 7
    assert world.seen == {"depth": 1, "slot": None, "key": 42}
    assert world.kernel.call_depth == 0
    assert world.permits == {"issued": 1, "completed": 1}


@pytest.mark.parametrize("entry,traced", CELLS)
def test_nested_call_does_not_carry_the_callers_idempotency_key(entry, traced):
    world = World(entry, traced)
    kernel = world.kernel
    inner_seen = []

    def inner_handler(domain, request):
        inner_seen.append(((request.ctx or {}).get(IDEM), kernel.call_depth))
        return domain.acquire_buffer()

    inner = world.inner_door(inner_handler)
    world.on_call = lambda: world.nested_call(inner).recycle()
    assert world.call(1, key=42) == 2
    assert world.seen["key"] == 42
    assert inner_seen == [(None, 2)]
    assert kernel.call_depth == 0


@pytest.mark.parametrize("entry", ENTRIES)
def test_handler_span_is_parented_by_the_wire_context_only(entry):
    world = World(entry, traced=True)
    # A span open on the delivering thread's stack must not be adopted.
    with world.tracer.begin_span(world.server, "bystander", "door") as bystander:
        world.call(1)
    (handler,) = world.handler_spans()
    if entry == "worker":
        assert (handler.trace_id, handler.parent_id) == WIRE_CTX
    else:
        (door_span,) = [
            s
            for s in world.tracer.spans()
            if s.category == "door" and s is not bystander
        ]
        assert (handler.trace_id, handler.parent_id) == door_span.ctx
    if entry == "fabric":
        # The fabric span sits between them on the stack, not in the tree.
        (carry,) = [s for s in world.tracer.spans() if s.category == "fabric"]
        assert carry.parent_id == door_span.span_id
    assert handler.parent_id != bystander.span_id


@pytest.mark.parametrize("entry", ENTRIES)
def test_tracing_charges_exactly_its_own_spans(entry):
    plain, traced = World(entry, traced=False), World(entry, traced=True)
    for world in (plain, traced):
        world.kernel.clock.reset_tally()
        for n in range(3):
            world.call(n)
    tally = traced.kernel.clock.tally()
    probe_us = 0.0
    for _ in traced.tracer.spans():
        probe_us += traced.kernel.clock.model.trace_span_us
    assert tally.pop("trace_span") == probe_us
    assert tally == plain.kernel.clock.tally()


def test_legs_read_their_hooks_on_every_call():
    """``door.handler`` and ``kernel.fabric`` are replaced on live
    instances between calls (``benchmarks/suite/layers.py``'s
    ``Recorder.wrap`` does it), so neither the legs nor the innermost
    stages of the seams may cache them.  Features reach the legs only
    through install / uninstall: one set on the kernel by hand is never
    consulted."""
    world = World("fabric", traced=False)
    kernel, door = world.kernel, world.door
    assert world.call(1) == 2

    went_through = []

    def noting(name, fn):
        def wrapper(*args):
            went_through.append(name)
            return fn(*args)

        return wrapper

    class NotingAdmission:
        def admit(self, door, buffer):
            went_through.append("admission")
            return None

    def leg_spans(tracer):
        # netserver spans are the wire leg's door translations, not a leg
        return [s.category for s in tracer.spans() if s.category != "netserver"]

    originals = (door.handler, kernel.fabric)
    door.handler = noting("handler", door.handler)
    kernel.fabric = noting("fabric", kernel.fabric)
    kernel.admission = NotingAdmission()
    kernel.tracer = bystander = Tracer(kernel)
    assert world.call(1) == 2
    assert went_through == ["fabric", "handler"]
    assert leg_spans(bystander) == []

    tracer = world.env.install_tracer()
    world.govern(limit=4)
    assert world.call(1) == 2
    assert went_through == ["fabric", "handler"] * 2
    assert world.permits == {"issued": 1, "completed": 1}
    assert sorted(leg_spans(tracer)) == ["door", "fabric", "handler"]

    door.handler, kernel.fabric = originals
    world.env.uninstall_admission()
    assert world.call(1) == 2
    assert went_through == ["fabric", "handler"] * 2
    assert world.permits == {"issued": 1, "completed": 1}
    assert len(leg_spans(tracer)) == 6


def test_a_second_install_replaces_the_first():
    world = World("local", traced=False)
    first, second = world.env.install_chaos(), world.env.install_chaos()
    first.fail_next_door_calls(1)
    assert world.call(1) == 2
    second.fail_next_door_calls(1)
    with pytest.raises(InjectedFault):
        world.call(1)
    second.fail_next_door_calls(1)
    world.env.uninstall_chaos()
    assert world.call(1) == 2
    assert world.kernel.chaos is None
