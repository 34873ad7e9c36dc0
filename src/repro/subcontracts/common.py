"""Shared building blocks for the bundled subcontracts.

Most client-server subcontracts process incoming calls the same way
(Section 5.2.2): the call arrives first in the server-side subcontract,
which reads any subcontract-level control information and then forwards
the call to the server stubs (skeleton), possibly piggybacking control
information on the reply.  ``make_door_handler`` builds that handler.

``gossip_evicted`` is the one place a client vector asks its gossip view
about a target and ``quiet_delete`` the one way a pruned door identifier
is dropped; what a failure *means* is ``runtime.retry.failure_verdict``'s.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.kernel.errors import KernelError
from repro.marshal.buffer import MarshalBuffer
from repro.runtime.retry import MemberEvictedError

if TYPE_CHECKING:
    from repro.core.subcontract import ClientSubcontract
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.domain import Domain
    from repro.kernel.doors import DoorIdentifier

__all__ = [
    "make_door_handler",
    "peek_opname",
    "SingleDoorRep",
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
        # remote_call) releases it back to this domain's free-list.
        reply = domain.acquire_buffer()
        if control_hook is not None:
            control_hook(request, reply)
        if kernel.tracer.enabled:
            with kernel.tracer.begin_span(
                domain,
                peek_opname(request),
                "skeleton",
                interface=interface_name,
                **span_attrs,
            ):
                kernel.clock.charge("indirect_call")  # subcontract -> server stubs
                skeleton.dispatch(domain, impl, request, reply, binding)
            return reply
        kernel.clock.charge("indirect_call")  # subcontract -> server stubs
        skeleton.dispatch(domain, impl, request, reply, binding)
        return reply

    return handler


def peek_opname(request: MarshalBuffer) -> str:
    """Read the operation name at the request's current position without
    consuming it (the skeleton re-reads it during dispatch)."""
    saved = request.read_pos
    try:
        return request.get_string()
    except Exception:
        return "?"
    finally:
        request.read_pos = saved


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


class SingleDoorRep:
    """Representation shared by the single-door subcontracts: one kernel
    door identifier pointing at the server (Figure 4)."""

    __slots__ = ("door",)

    def __init__(self, door: Any) -> None:
        self.door = door

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SingleDoorRep door_id=#{self.door.uid}>"
