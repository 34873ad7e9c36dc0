"""Shared building blocks for the bundled subcontracts.

Most client-server subcontracts process incoming calls the same way
(Section 5.2.2): the call arrives first in the server-side subcontract,
which reads any subcontract-level control information and then forwards
the call to the server stubs (skeleton), possibly piggybacking control
information on the reply.  ``make_door_handler`` builds that handler.

``gossip_evicted`` is the one place a client vector asks its gossip view
about a target and ``quiet_delete`` the one way a pruned door identifier
is dropped; what a failure *means* is ``runtime.retry.failure_verdict``'s.

``RepClient`` is the client tail (Sections 5.1.1-5.1.6): the five
operations that only *move the representation around*, written once over
four hooks every bundled representation answers for itself.
"""

from __future__ import annotations

import copy
import sys
import threading
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.core.object import SpringObject
from repro.core.subcontract import ClientSubcontract
from repro.kernel.errors import KernelError
from repro.marshal.buffer import MarshalBuffer
from repro.obs.tracer import Span
from repro.runtime import tsan as _tsan
from repro.runtime.retry import MemberEvictedError

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.domain import Domain
    from repro.kernel.doors import DoorIdentifier

__all__ = [
    "make_door_handler",
    "RepClient",
    "SingleDoorRep",
    "DoorSetRep",
    "gossip_evicted",
    "quiet_delete",
]

#: hook run by a handler before dispatch: (request, reply) -> None.  The
#: request hook reads the subcontract's control information off the front
#: of the request; the reply hook writes control onto the front of the
#: reply (the client-side ``invoke`` consumes it before returning the
#: buffer to the stubs).
ControlHook = Callable[[MarshalBuffer, MarshalBuffer], None]


def make_door_handler(
    domain: "Domain",
    impl: Any,
    binding: "InterfaceBinding",
    control_hook: ControlHook | None = None,
    **span_attrs: Any,
) -> Callable[[MarshalBuffer], MarshalBuffer]:
    """Build a door handler that forwards incoming calls to the skeleton.

    The returned handler is what the subcontract installs as the door's
    target; the ``indirect_call`` charge is the server-side indirect call
    from the subcontract into the server stubs that Section 9.3 counts.
    ``span_attrs`` join ``interface`` on the skeleton span (cluster's tag).
    """
    kernel = domain.kernel
    skeleton = binding.skeleton
    interface_name = binding.name

    def handler(request: MarshalBuffer) -> MarshalBuffer:
        # Pool-acquired: the consumer of the reply (normally the client's
        # generated client stub) releases it back to this domain's free-list.
        reply = domain.acquire_buffer()
        if control_hook is not None:
            control_hook(request, reply)
        tracer = kernel.tracer
        if tracer.enabled:
            # Read the op name once, for the span and dispatch alike.
            pos = request.pos
            try:
                op = request.get_string()
            except Exception:
                op, request.pos = None, pos  # dispatch re-reads and reports it
            span = Span(
                tracer, domain, "?" if op is None else op, "skeleton",
                {"interface": interface_name, **span_attrs}, None,
            )
            dispatched = False
            try:
                kernel.clock.charge("indirect_call")  # subcontract -> server stubs
                skeleton.dispatch(domain, impl, request, reply, binding, op)
                dispatched = True
            finally:
                if not dispatched:  # the exception on its way out
                    span.record_error(sys.exc_info()[1])
                span.end()
            return reply
        kernel.clock.charge("indirect_call")  # subcontract -> server stubs
        skeleton.dispatch(domain, impl, request, reply, binding)
        return reply

    return handler


def gossip_evicted(
    vector: "ClientSubcontract", door: "DoorIdentifier"
) -> MemberEvictedError | None:
    """The failure a call through ``door`` is doomed to when the vector's
    gossip view has evicted the serving machine, else ``None``.  Call only
    behind ``vector.membership is not None`` (one attribute read unplanted)."""
    machine = door.door.server.machine
    if machine is None:
        return None
    incarnation = vector.membership.evicted_incarnation(machine.name)
    if incarnation is None:
        return None
    return MemberEvictedError(vector.id, machine.name, incarnation)


def quiet_delete(domain: "Domain", door: "DoorIdentifier") -> None:
    """Drop a door identifier that may already be gone (pruned by a
    sibling thread, or invalidated when its server died)."""
    try:
        domain.kernel.delete_door_id(domain, door)
    except KernelError:
        pass


class RepClient(ClientSubcontract):
    """The client tail, stated once: a subclass supplies ``invoke`` and
    names the representation class whose hooks do the walking.

    ``write(buffer, put_door)`` puts the rep on the wire, ``put_door``
    taking each door identifier out of this domain; ``read(buffer,
    get_door)`` (a classmethod) is its inverse; ``duplicate(dup_door)``
    returns a second rep holding a ``dup_door`` copy of every identifier;
    ``held_doors()`` lists every identifier the rep holds.  A rep that
    sibling threads mutate runs its hooks under its own lock.
    """

    #: the representation class ``unmarshal_rep`` reads
    rep_type: Any = None

    def marshal_rep(self, obj: SpringObject, buffer: MarshalBuffer) -> None:
        obj._rep.write(buffer, partial(buffer.put_door_id, self.domain))

    def unmarshal_rep(
        self, buffer: MarshalBuffer, binding: "InterfaceBinding"
    ) -> SpringObject:
        rep = self.rep_type.read(buffer, partial(buffer.get_door_id, self.domain))
        return self.make_object(rep, binding)

    def _duplicate(self, obj: SpringObject) -> Any:
        return obj._rep.duplicate(
            partial(self.domain.kernel.copy_door_id, self.domain)
        )

    def copy(self, obj: SpringObject) -> SpringObject:
        obj._check_live()
        return self.make_object(self._duplicate(obj), obj._binding)

    def marshal_copy(self, obj: SpringObject, buffer: MarshalBuffer) -> None:
        # Fused copy+marshal (Section 5.1.5): the duplicate rep goes
        # straight into the buffer without fabricating (and immediately
        # destroying) an intermediate Spring object.
        obj._check_live()
        self.domain.kernel.clock.charge("indirect_call")
        duplicate = self._duplicate(obj)
        buffer.put_object_header(self.id)
        duplicate.write(buffer, partial(buffer.put_door_id, self.domain))

    def consume(self, obj: SpringObject) -> None:
        obj._check_live()
        for door in obj._rep.held_doors():
            quiet_delete(self.domain, door)
        obj._mark_consumed()


class SingleDoorRep:
    """Representation shared by the single-door subcontracts: one kernel
    door identifier pointing at the server (Figure 4)."""

    __slots__ = ("door",)

    def __init__(self, door: Any) -> None:
        self.door = door

    def write(self, buffer: MarshalBuffer, put_door: Callable) -> None:
        """Wire form: the door identifier."""
        put_door(self.door)

    @classmethod
    def read(cls, buffer: MarshalBuffer, get_door: Callable) -> "SingleDoorRep":
        return cls(get_door())

    def duplicate(self, dup_door: Callable) -> "SingleDoorRep":
        """The same plain fields round a second identifier for the door."""
        twin = copy.copy(self)
        twin.door = dup_door(self.door)
        return twin

    def held_doors(self) -> tuple:
        """The one identifier."""
        return (self.door,)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SingleDoorRep door_id=#{self.door.uid}>"


class DoorSetRep:
    """One door identifier per replica.  Sibling threads sharing the
    object prune and replace ``doors`` while they fail over, so every
    hook (and every such update) holds ``lock``: a copy or a transmission
    never walks a list whose members a sibling is deleting.  Subclasses
    add their plain fields ahead of the doors on the wire.
    """

    __slots__ = ("doors", "lock")

    def __init__(self, doors: list["DoorIdentifier"]) -> None:
        self.lock = _tsan.instrument_lock(
            threading.Lock(), f"{type(self).__name__}.lock@{id(self):x}"
        )
        self.doors = doors

    def _put_doors(self, buffer: MarshalBuffer, put_door: Callable) -> None:
        """Section 5.1.1: "marshalling the count of door identifiers and
        then marshalling each of its door identifiers in turn."  The
        caller holds ``lock``."""
        buffer.put_sequence_header(len(self.doors))
        for door in self.doors:
            put_door(door)

    @staticmethod
    def _get_doors(buffer: MarshalBuffer, get_door: Callable) -> list:
        return [get_door() for _ in range(buffer.get_sequence_header())]

    def held_doors(self) -> tuple:
        """A snapshot of the current members' identifiers."""
        with self.lock:
            return tuple(self.doors)
