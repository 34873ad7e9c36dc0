"""The simplex subcontract (Section 7).

"The simplex subcontract is a very simple client-server subcontract,
using a single kernel door identifier to communicate with the server."

Client-side, simplex is identical in shape to singleton (it exists as a
separate subcontract so that the compatible-subcontract routing of
Section 6.1 — singleton's unmarshal receiving a simplex object and
delegating through the registry — is exercised exactly as in the paper's
Section 7 walk-through).

Server-side, simplex additionally implements the same-address-space
optimization of Section 5.2.1: with ``inline=True`` the exported object
carries a method table that calls the implementation directly and a
special server-side operations vector that only creates the kernel door
when (and if) the object is actually marshalled to another domain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.object import MethodTable, SpringObject
from repro.core.registry import ensure_registry
from repro.core.subcontract import ClientSubcontract
from repro.subcontracts.common import SingleDoorRep
from repro.subcontracts.singleton import SingleDoorClient, SingleDoorServer

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.marshal.buffer import MarshalBuffer

__all__ = ["SimplexClient", "SimplexServer", "InlineRep"]


class SimplexClient(SingleDoorClient):
    """Client operations vector for the simplex subcontract."""

    id = "simplex"


class InlineRep:
    """Representation of an inline-served object: the implementation
    itself, plus a lazily created door (Section 5.2.1)."""

    __slots__ = ("impl", "binding", "door", "unreferenced")

    def __init__(
        self,
        impl: Any,
        binding: "InterfaceBinding",
        unreferenced: Callable[[Any], None] | None,
    ) -> None:
        self.impl = impl
        self.binding = binding
        self.door = None
        self.unreferenced = unreferenced


class SimplexInlineVector(ClientSubcontract):
    """Special server-side operations vector for inline-served objects.

    It "tries to avoid paying the expense of creating resources required
    for cross-domain communication.  When and if the object is actually
    marshalled for transmission to another domain, the subcontract will
    finally create these resources." (Section 5.2.1)

    The tail is hand-written: the rep has no door until one is needed,
    and what it unmarshals to is a plain simplex object, not itself.
    """

    id = "simplex"

    def __init__(self, server: "SimplexServer") -> None:
        super().__init__(server.domain)
        #: the exporting server, which creates the door when one is needed
        self.server = server

    def _ensure_door(self, rep: InlineRep) -> Any:
        if rep.door is None:
            rep.door = self.server.open_door(rep.impl, rep.binding, rep.unreferenced)
        return rep.door

    def invoke(self, obj: SpringObject, buffer: "MarshalBuffer") -> "MarshalBuffer":
        # Only reached when the object is driven through the remote stub
        # protocol (e.g. a type query); ordinary method calls short-circuit
        # through the inline method table without any marshalling.
        door = self._ensure_door(obj._rep)
        return self.domain.kernel.door_call(self.domain, door, buffer)

    def marshal_rep(self, obj: SpringObject, buffer: "MarshalBuffer") -> None:
        rep: InlineRep = obj._rep
        door = self._ensure_door(rep)
        rep.door = None  # the identifier leaves with the buffer
        buffer.put_door_id(self.domain, door)

    def unmarshal_rep(
        self, buffer: "MarshalBuffer", binding: "InterfaceBinding"
    ) -> SpringObject:
        # An inline vector never appears as an initial subcontract for
        # unmarshalling; the wire form it produces is plain simplex.
        door = buffer.get_door_id(self.domain)
        plain = ensure_registry(self.domain).lookup("simplex")
        return plain.make_object(SingleDoorRep(door), binding)

    def copy(self, obj: SpringObject) -> SpringObject:
        obj._check_live()
        rep: InlineRep = obj._rep
        new_rep = InlineRep(rep.impl, rep.binding, rep.unreferenced)
        return type(obj)(
            domain=self.domain,
            method_table=obj._method_table,
            subcontract=self,
            rep=new_rep,
            binding=obj._binding,
        )

    def consume(self, obj: SpringObject) -> None:
        obj._check_live()
        rep: InlineRep = obj._rep
        if rep.door is not None:
            self.domain.kernel.delete_door_id(self.domain, rep.door)
        obj._mark_consumed()

    def type_info(self, obj: SpringObject) -> tuple[str, ...]:
        # The implementation is local: answer type queries without a call.
        return obj._rep.binding.ancestors


def _inline_method_table(binding: "InterfaceBinding", impl: Any) -> MethodTable:
    """Method table entries that call the implementation directly."""

    def make_entry(opname: str) -> Callable[..., Any]:
        method = getattr(impl, opname)

        def entry(obj: SpringObject, *args: Any) -> Any:
            return method(*args)

        return entry

    return {opname: make_entry(opname) for opname in binding.operations}


class SimplexServer(SingleDoorServer):
    """Server-side simplex machinery.

    ``export`` behaves like singleton's (create a door eagerly and return
    an ordinary client-side Spring object, exactly the Figure 4
    structure); ``export(inline=True)`` applies the Section 5.2.1
    optimization instead.
    """

    id = "simplex"

    def export(
        self,
        impl: Any,
        binding: "InterfaceBinding",
        unreferenced: Callable[[Any], None] | None = None,
        inline: bool = False,
        **options: Any,
    ) -> SpringObject:
        if not inline:
            return super().export(impl, binding, unreferenced, **options)
        if options:
            raise TypeError(f"unknown export options: {sorted(options)}")
        vector = SimplexInlineVector(self)
        rep = InlineRep(impl, binding, unreferenced)
        return binding.stub_class(
            domain=self.domain,
            method_table=_inline_method_table(binding, impl),
            subcontract=vector,
            rep=rep,
            binding=binding,
        )
