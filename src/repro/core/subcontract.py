"""The subcontract operations vectors (Sections 5 and 6.1).

A *client subcontract* supplies the operations the stubs use to drive an
object: ``marshal``, ``invoke``, ``unmarshal``, ``marshal_copy``,
``invoke_preamble`` (Section 5.1), plus copy/consume/type-query
(Section 5.1.6).

A *server subcontract* supplies the server-side machinery (Section 5.2):
creating a Spring object from a language-level object, processing incoming
calls, and revoking an object.  Server interfaces may vary considerably
between subcontracts; only the client vector is uniform.

The base classes below implement the two framework-wide conventions:

* the marshalled form of every object begins with a subcontract ID, and
* unmarshalling *peeks* at that ID and re-routes to the correct
  subcontract — dynamically loading its library if necessary — when the
  expected subcontract is not the actual one (compatible subcontracts,
  Sections 6.1-6.2).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any

from repro.core.errors import SubcontractError
from repro.core.identity import validate_subcontract_id
from repro.core.object import SpringObject

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.domain import Domain
    from repro.marshal.buffer import MarshalBuffer

__all__ = ["ClientSubcontract", "ServerSubcontract"]


class ClientSubcontract(abc.ABC):
    """Client-side subcontract operations vector.

    One instance exists per (domain, subcontract) pair, created by the
    domain's subcontract registry; instances hold no per-object state —
    per-object state lives in each object's representation.
    """

    #: stable wire identifier; subclasses must override
    id: str = ""

    #: the domain's gossip view (a ``MembershipNode``), set on every vector
    #: by ``SubcontractRegistry.plant_membership``; the ``None`` default keeps
    #: an ``invoke`` that consults it at one attribute read + one branch
    membership = None

    def __init__(self, domain: "Domain") -> None:
        if not self.id:
            raise SubcontractError(
                f"{type(self).__name__} does not define a subcontract id"
            )
        validate_subcontract_id(self.id)
        self.domain = domain

    # ------------------------------------------------------------------
    # the five principal client-side operations (Section 5.1)
    # ------------------------------------------------------------------

    def invoke_preamble(self, obj: SpringObject, buffer: "MarshalBuffer") -> None:
        """Called by the stubs before any argument marshalling begins.

        The default does nothing (like simplex, Section 7).  Subcontracts
        override it to write control information ahead of the arguments
        (cluster's object tag, replicon's epoch) or to redirect the buffer
        into a shared-memory region (Section 5.1.4).
        """

    @abc.abstractmethod
    def invoke(self, obj: SpringObject, buffer: "MarshalBuffer") -> "MarshalBuffer":
        """Execute an object call once the stubs have marshalled the
        arguments; returns the reply buffer positioned after any
        subcontract-level control information."""

    def marshal(self, obj: SpringObject, buffer: "MarshalBuffer") -> None:
        """Transmit ``obj`` to another address space (Section 5.1.1).

        Places enough information in the buffer that an essentially
        identical object can be unmarshalled elsewhere, then deletes all
        the local state associated with the object.
        """
        obj._check_live()
        # One of the "extra pair of calls" Section 9.3 charges to object
        # transmission: stubs -> subcontract marshal.
        self.domain.kernel.clock.charge("indirect_call")
        buffer.put_object_header(self.id)
        self.marshal_rep(obj, buffer)
        obj._mark_consumed()

    def unmarshal(
        self, buffer: "MarshalBuffer", binding: "InterfaceBinding"
    ) -> SpringObject:
        """Fabricate a fully fledged Spring object from a buffer
        (Section 5.1.2), routing to a compatible subcontract when the
        buffer holds a different subcontract's object (Section 6.1)."""
        # The other half of Section 9.3's transmission pair: stubs ->
        # subcontract unmarshal.
        self.domain.kernel.clock.charge("indirect_call")
        actual_id = buffer.peek_object_header()
        if actual_id != self.id:
            registry = self.domain.subcontract_registry
            if registry is None:
                raise SubcontractError(
                    f"domain {self.domain.name!r} has no subcontract registry; "
                    f"cannot route subcontract {actual_id!r}"
                )
            other = registry.lookup(actual_id)
            return other.unmarshal(buffer, binding)
        buffer.get_object_header()
        return self.unmarshal_rep(buffer, binding)

    def marshal_copy(self, obj: SpringObject, buffer: "MarshalBuffer") -> None:
        """Produce the effect of a copy followed by a marshal
        (Section 5.1.5).  The default composes the two operations;
        subcontracts override it to skip the intermediate object."""
        duplicate = self.copy(obj)
        self.marshal(duplicate, buffer)

    # ------------------------------------------------------------------
    # other client operations (Section 5.1.6)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def copy(self, obj: SpringObject) -> SpringObject:
        """Shallow-copy: a second object sharing the same underlying state."""

    @abc.abstractmethod
    def consume(self, obj: SpringObject) -> None:
        """The client has finished with the object; release its resources."""

    def type_of(self, obj: SpringObject) -> str:
        """Run-time type query: the most-derived IDL type name."""
        return self.type_info(obj)[0]

    def type_info(self, obj: SpringObject) -> tuple[str, ...]:
        """Most-derived type name followed by all ancestor type names.

        The default asks the server through the reserved type-query
        operation; subcontracts with local knowledge override this.
        """
        from repro.core.stubs import remote_type_query

        return remote_type_query(obj)

    # ------------------------------------------------------------------
    # representation hooks (implemented by each subcontract)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def marshal_rep(self, obj: SpringObject, buffer: "MarshalBuffer") -> None:
        """Write the object's representation after the subcontract ID."""

    @abc.abstractmethod
    def unmarshal_rep(
        self, buffer: "MarshalBuffer", binding: "InterfaceBinding"
    ) -> SpringObject:
        """Read a representation and plug together subcontract vector,
        method table, and representation into a new Spring object."""

    # ------------------------------------------------------------------

    def make_object(self, rep: Any, binding: "InterfaceBinding") -> SpringObject:
        """Plug together this subcontract, a type's method table, and a
        representation (the final step of Section 5.1.2).

        The method table is chosen per (type, subcontract): specialized
        fused stubs when this combination has them (Section 9.1),
        otherwise the general-purpose table.
        """
        return binding.stub_class(
            domain=self.domain,
            method_table=binding.method_table_for(self.id),
            subcontract=self,
            rep=rep,
            binding=binding,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self.id!r} domain={self.domain.name!r}>"


class ServerSubcontract(abc.ABC):
    """Server-side subcontract machinery (Section 5.2).

    Unlike the uniform client vector, server-side interfaces vary between
    subcontracts; this base captures the three typically-present elements:
    creating a Spring object from a language-level object, processing
    incoming calls (built into :meth:`export`'s door handler), and
    revoking an object.
    """

    id: str = ""

    def __init__(self, domain: "Domain") -> None:
        if not self.id:
            raise SubcontractError(
                f"{type(self).__name__} does not define a subcontract id"
            )
        validate_subcontract_id(self.id)
        self.domain = domain

    @abc.abstractmethod
    def export(
        self, impl: Any, binding: "InterfaceBinding", **options: Any
    ) -> SpringObject:
        """Create a Spring object from a language-level object
        (Section 5.2.1).

        ``impl`` is the server application's implementation object; its
        method names match the IDL operations of ``binding``.  The
        returned Spring object lives in the server's own domain and can be
        invoked locally or marshalled away to clients.
        """

    @abc.abstractmethod
    def revoke(self, obj: SpringObject) -> None:
        """Discard the exported state even though clients still hold
        objects pointing at it (Section 5.2.3)."""
