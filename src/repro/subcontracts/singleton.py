"""The singleton subcontract: the standard, simple client-server default.

Section 6.1: "the standard type *file* is specified to use a simple
subcontract called *singleton*."  A singleton object's representation is
a single kernel door identifier; invoke is one kernel door call, which
copies the arguments in and the reply out (the copy shm's invoke_preamble
avoids, Section 5.1.4); marshal transmits the door identifier (moving the
object); copy duplicates the door identifier.

Singleton is the plain case of one kernel door per exported object, so
both halves are written as reusable bases.  Who inherits which half:

* the client tail (``common.RepClient``: marshal, unmarshal, copy,
  marshal_copy, consume over the representation's four hooks) -- every
  bundled vector except migratory and simplex's inline vector, whose
  representations change shape; caching overrides the three operations
  its machine-local D2 changes;
* ``SingleDoorClient`` (that tail plus the one-door ``invoke``) --
  singleton, simplex, realtime, synchronized, shm, transact and video;
* ``SingleDoorServer`` (export, revoke, unreferenced) -- those seven and
  caching, reconnectable and migratory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.object import SpringObject
from repro.core.registry import ensure_registry
from repro.core.subcontract import ServerSubcontract
from repro.subcontracts.common import RepClient, SingleDoorRep, make_door_handler

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.doors import Door, DoorHandler, DoorIdentifier
    from repro.marshal.buffer import MarshalBuffer

__all__ = ["SingleDoorClient", "SingleDoorServer", "SingletonClient", "SingletonServer"]


class SingleDoorClient(RepClient):
    """Reusable client vector for one-door-per-object subcontracts: the
    shared tail plus the one-door ``invoke``."""

    rep_type = SingleDoorRep

    def invoke(self, obj: SpringObject, buffer: "MarshalBuffer") -> "MarshalBuffer":
        return self.domain.kernel.door_call(self.domain, obj._rep.door, buffer)


class SingletonClient(SingleDoorClient):
    """Client operations vector for the singleton subcontract."""

    id = "singleton"


class SingleDoorServer(ServerSubcontract):
    """Reusable server machinery for one-door-per-object subcontracts:
    export, revocation (Section 5.2) and the unreferenced notification
    (Section 7), stated once.  A subclass overrides :meth:`wrap_handler`
    (what runs round the skeleton-forwarding handler), :meth:`make_rep`
    (the representation built round the door) and, when it keeps per-door
    tables of its own, :meth:`retire`.
    """

    def __init__(self, domain: Any) -> None:
        super().__init__(domain)
        #: door uid -> impl, for revocation and introspection
        self.exports: dict[int, Any] = {}

    def export(
        self,
        impl: Any,
        binding: "InterfaceBinding",
        unreferenced: Callable[[Any], None] | None = None,
        **options: Any,
    ) -> SpringObject:
        """Create a Spring object from a language-level object.

        ``unreferenced`` (or an ``_spring_unreferenced`` method on the
        impl) is called when the last door identifier for the object is
        deleted anywhere in the system, so the server can reclaim the
        underlying state (Section 7).
        """
        if options:
            raise TypeError(f"unknown export options: {sorted(options)}")
        door_id = self.open_door(impl, binding, unreferenced)
        client_vector = ensure_registry(self.domain).lookup(self.id)
        return client_vector.make_object(self.make_rep(door_id, binding), binding)

    def open_door(
        self,
        impl: Any,
        binding: "InterfaceBinding",
        unreferenced: Callable[[Any], None] | None,
    ) -> "DoorIdentifier":
        """Create the door that serves ``impl``; return its first identifier."""
        handler = self.wrap_handler(
            make_door_handler(self.domain, impl, binding), impl, binding
        )

        def last_identifier_gone(door: "Door") -> None:
            self.retire(door)
            if unreferenced is not None:
                unreferenced(impl)
            elif hasattr(impl, "_spring_unreferenced"):
                impl._spring_unreferenced()

        door_id = self.domain.kernel.create_door(
            self.domain,
            handler,
            unreferenced=last_identifier_gone,
            label=f"{self.id}:{binding.name}",
        )
        self.exports[door_id.door.uid] = impl
        return door_id

    def wrap_handler(
        self, inner: "DoorHandler", impl: Any, binding: "InterfaceBinding"
    ) -> "DoorHandler":
        """The handler the door runs; ``inner`` forwards a request to the
        skeleton (Section 5.2.2).  The default adds nothing."""
        return inner

    def make_rep(self, door_id: "DoorIdentifier", binding: "InterfaceBinding") -> Any:
        """The exported object's representation; ``revoke`` reads its ``door``."""
        return SingleDoorRep(door_id)

    def retire(self, door: "Door") -> None:
        """Forget a door that was revoked or lost its last identifier."""
        self.exports.pop(door.uid, None)

    def revoke(self, obj: SpringObject) -> None:
        """Revoke the underlying door: clients' future calls fail
        (Section 5.2.3)."""
        obj._check_live()
        door = obj._rep.door.door
        self.retire(door)
        self.domain.kernel.revoke_door(self.domain, door)


class SingletonServer(SingleDoorServer):
    """Server-side singleton machinery: one kernel door per exported object."""

    id = "singleton"
