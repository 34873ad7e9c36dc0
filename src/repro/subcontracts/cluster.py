"""The cluster subcontract (Section 8.1).

"Some servers export large numbers of objects where if a client is
granted access to any of the objects, it might as well be granted access
to all of them.  In this case a subcontract can reduce system overhead by
using a single door to provide access to a set of objects."

Each cluster object is represented by the combination of a door
identifier and an integer tag.  The cluster ``invoke_preamble`` and
``invoke`` operations conspire to ship the tag along to the server when
performing a cross-domain call on the door; the server-side cluster code
uses the tag to dispatch to a particular object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import RevokedObjectError
from repro.core.object import SpringObject
from repro.kernel.errors import CommunicationError
from repro.core.registry import ensure_registry
from repro.core.stubs import write_revoked_status
from repro.core.subcontract import ServerSubcontract
from repro.marshal.buffer import MarshalBuffer
from repro.subcontracts.common import (
    RepClient,
    SingleDoorRep,
    gossip_evicted,
    make_door_handler,
)

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.doors import DoorHandler, DoorIdentifier

__all__ = ["ClusterClient", "ClusterServer", "ClusterRep"]


class ClusterRep(SingleDoorRep):
    """A door identifier shared with the whole cluster, plus this
    object's integer tag."""

    __slots__ = ("tag",)

    def __init__(self, door: "DoorIdentifier", tag: int) -> None:
        self.door = door
        self.tag = tag

    def write(self, buffer: MarshalBuffer, put_door: Callable) -> None:
        """Wire form: the door identifier, INT32 tag."""
        put_door(self.door)
        buffer.put_int32(self.tag)

    @classmethod
    def read(cls, buffer: MarshalBuffer, get_door: Callable) -> "ClusterRep":
        return cls(get_door(), buffer.get_int32())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClusterRep door_id=#{self.door.uid} tag={self.tag}>"


class ClusterClient(RepClient):
    """Client operations vector for the cluster subcontract."""

    id = "cluster"
    rep_type = ClusterRep

    def invoke_preamble(self, obj: SpringObject, buffer: MarshalBuffer) -> None:
        # Ship the object's tag ahead of the marshalled arguments so the
        # server-side cluster code can dispatch to the right object.
        buffer.put_int32(obj._rep.tag)

    def invoke(self, obj: SpringObject, buffer: MarshalBuffer) -> MarshalBuffer:
        kernel = self.domain.kernel
        tracer = kernel.tracer
        if tracer.enabled:
            rep: ClusterRep = obj._rep
            tracer.event(
                "cluster.member", subcontract=self.id, tag=rep.tag, door=rep.door.uid
            )
        if self.membership is not None:
            # Cluster has a single door and no failover story: when
            # gossip has evicted the serving machine, fail fast instead
            # of paying a wire round trip that cannot succeed.
            evicted = gossip_evicted(self, obj._rep.door)
            if evicted is not None:
                if tracer.enabled:
                    tracer.event(
                        "cluster.evicted",
                        subcontract=self.id,
                        door=obj._rep.door.uid,
                        member=evicted.member,
                        incarnation=evicted.incarnation,
                    )
                raise CommunicationError(str(evicted))
        kernel.clock.charge("memory_copy_byte", buffer.size)
        reply = kernel.door_call(self.domain, obj._rep.door, buffer)
        kernel.clock.charge("memory_copy_byte", reply.size)
        return reply


class ClusterServer(ServerSubcontract):
    """Server-side cluster machinery: one door for all exported objects.

    The door is created on first export; every exported object's
    representation holds its own copy of the door identifier plus a fresh
    tag.  Revoking an object removes its tag from the dispatch table —
    the shared door stays up for its siblings, and calls on the revoked
    tag receive a revocation reply (Section 5.2.3).
    """

    id = "cluster"

    def __init__(self, domain: Any) -> None:
        super().__init__(domain)
        self._door: "DoorIdentifier | None" = None
        self._next_tag = 0
        #: tag -> the skeleton-forwarding handler of the object it names
        self.exports: dict[int, "DoorHandler"] = {}

    def _ensure_door(self) -> "DoorIdentifier":
        if self._door is None:
            self._door = self.domain.kernel.create_door(
                self.domain, self._handle_call, label="cluster"
            )
        return self._door

    def _handle_call(self, request: MarshalBuffer) -> MarshalBuffer:
        tag = request.get_int32()
        handler = self.exports.get(tag)
        if handler is None:
            tracer = self.domain.kernel.tracer
            if tracer.enabled:
                tracer.event("cluster.revoked_tag", subcontract=self.id, tag=tag)
            reply = self.domain.acquire_buffer()
            write_revoked_status(reply, f"cluster tag {tag} has been revoked")
            return reply
        return handler(request)

    def export(self, impl: Any, binding: "InterfaceBinding", **options: Any) -> SpringObject:
        if options:
            raise TypeError(f"unknown export options: {sorted(options)}")
        shared_door = self._ensure_door()
        tag = self._next_tag
        self._next_tag += 1
        self.exports[tag] = make_door_handler(self.domain, impl, binding, tag=tag)
        member_door = self.domain.kernel.copy_door_id(self.domain, shared_door)
        client_vector = ensure_registry(self.domain).lookup(self.id)
        return client_vector.make_object(ClusterRep(member_door, tag), binding)

    def revoke(self, obj: SpringObject) -> None:
        obj._check_live()
        tag = obj._rep.tag
        if tag not in self.exports:
            raise RevokedObjectError(f"cluster tag {tag} is not exported here")
        del self.exports[tag]

    def revoke_tag(self, tag: int) -> None:
        """Revoke by tag when the server no longer holds the object."""
        self.exports.pop(tag, None)
