"""The migratory subcontract: object migration as a subcontract.

The paper's opening survey counts *object migration* among the semantics
different RPC systems bake in ([Schuller et al 1992] in Section 1); the
whole argument of the paper is that such a property belongs in a
replaceable subcontract, not in the base system.  This module supplies
that subcontract — a demonstration, like caching, that "the basic
subcontract interfaces are sufficiently general that they can accommodate
a wide range of possible solutions" (Section 8.5).

Protocol:

* The object starts server-based: invoke is a plain door call.
* After ``migration_threshold`` remote calls (or an explicit
  :meth:`MigratoryClient.migrate`), the client-side subcontract sends the
  reserved ``_migrate_fetch`` control operation.  The server-side
  subcontract snapshots the implementation (``impl.migrate_out() ->
  bytes``), marks the server copy forwarded, and ships the state.
* The client reconstitutes a local implementation
  (``impl_factory.migrate_in(state)``) and rebinds the object's method
  table to direct local entries — subsequent calls cost nothing.
* Calls arriving at the *old* server after migration are refused with a
  "moved" error so stale copies fail loudly rather than diverge.
* Marshalling a migrated object ships the live state itself (it has
  become a value), and the sending domain loses it — Spring move
  semantics all the way down.

Implementation contract for migratable types: the impl class provides
``migrate_out(self) -> bytes`` and a classmethod/static
``migrate_in(state: bytes) -> impl``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.errors import SubcontractError
from repro.core.object import SpringObject
from repro.core.stubs import STATUS_OK, write_exception_status, write_ok_status
from repro.core.subcontract import ClientSubcontract
from repro.marshal.buffer import MarshalBuffer
from repro.subcontracts.singleton import SingleDoorServer

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.doors import DoorHandler, DoorIdentifier

__all__ = ["MigratoryClient", "MigratoryServer", "MigratoryRep"]

#: reserved wire operation intercepted by the server-side subcontract
_FETCH_OP = "_migrate_fetch"

#: remote calls before the subcontract migrates the state automatically;
#: None disables automatic migration.
DEFAULT_THRESHOLD = 3


class MigratoryRep:
    """Either remote (door + impl factory) or local (live impl)."""

    __slots__ = ("door", "impl", "binding", "remote_calls")

    def __init__(
        self,
        door: "DoorIdentifier | None",
        impl: Any,
        binding: "InterfaceBinding",
    ) -> None:
        self.door = door
        self.impl = impl
        self.binding = binding
        self.remote_calls = 0

    @property
    def is_local(self) -> bool:
        return self.impl is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "local" if self.is_local else f"door#{self.door.uid}"
        return f"<MigratoryRep {where} calls={self.remote_calls}>"


class MigratoryClient(ClientSubcontract):
    """Client operations vector for the migratory subcontract.  The tail
    is hand-written: the rep is a door *or* live local state, and reading
    one back needs the binding the shared hooks never see."""

    id = "migratory"

    migration_threshold: int | None = DEFAULT_THRESHOLD

    # ------------------------------------------------------------------
    # invocation: remote until migrated, then direct
    # ------------------------------------------------------------------

    def invoke(self, obj: SpringObject, buffer: MarshalBuffer) -> MarshalBuffer:
        rep: MigratoryRep = obj._rep
        kernel = self.domain.kernel
        if rep.is_local:
            # Serve locally: run the skeleton in-process (same dispatch
            # semantics as the server side, zero communication cost).
            reply = MarshalBuffer(kernel)
            rep.binding.skeleton.dispatch(
                self.domain, rep.impl, buffer, reply, rep.binding
            )
            reply.rewind()
            return reply
        kernel.clock.charge("memory_copy_byte", buffer.size)
        reply = kernel.door_call(self.domain, rep.door, buffer)
        kernel.clock.charge("memory_copy_byte", reply.size)
        rep.remote_calls += 1
        if (
            self.migration_threshold is not None
            and rep.remote_calls >= self.migration_threshold
        ):
            self._pull_state(obj)
        return reply

    def migrate(self, obj: SpringObject) -> None:
        """Explicitly pull the object's state into this domain now."""
        obj._check_live()
        rep: MigratoryRep = obj._rep
        if rep.is_local:
            return
        self._pull_state(obj)

    def _pull_state(self, obj: SpringObject) -> None:
        rep: MigratoryRep = obj._rep
        kernel = self.domain.kernel
        request = MarshalBuffer(kernel)
        request.put_string(_FETCH_OP)
        try:
            reply = kernel.door_call(self.domain, rep.door, request)
        finally:
            request.release()
        status = reply.get_int8()
        if status != STATUS_OK:
            # Someone else migrated it first, or the type refused; the
            # object stays remote and keeps working through the door.
            return
        factory_name = reply.get_string()
        state = reply.get_bytes()
        impl_factory = _FACTORIES.get(factory_name)
        if impl_factory is None:
            raise SubcontractError(
                f"migratory: no implementation factory {factory_name!r} "
                f"registered in this program"
            )
        rep.impl = impl_factory.migrate_in(state)
        kernel.delete_door_id(self.domain, rep.door)
        rep.door = None

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    def marshal_rep(self, obj: SpringObject, buffer: MarshalBuffer) -> None:
        rep: MigratoryRep = obj._rep
        if rep.is_local:
            # A migrated object travels as its own state.
            buffer.put_bool(True)
            buffer.put_string(_factory_name(type(rep.impl)))
            buffer.put_bytes(rep.impl.migrate_out())
        else:
            buffer.put_bool(False)
            buffer.put_door_id(self.domain, rep.door)

    def unmarshal_rep(self, buffer: MarshalBuffer, binding: "InterfaceBinding"):
        is_state = buffer.get_bool()
        if is_state:
            factory_name = buffer.get_string()
            state = buffer.get_bytes()
            impl_factory = _FACTORIES.get(factory_name)
            if impl_factory is None:
                raise SubcontractError(
                    f"migratory: no implementation factory {factory_name!r} "
                    f"registered in this program"
                )
            return self.make_object(
                MigratoryRep(None, impl_factory.migrate_in(state), binding), binding
            )
        door = buffer.get_door_id(self.domain)
        return self.make_object(MigratoryRep(door, None, binding), binding)

    def copy(self, obj: SpringObject) -> SpringObject:
        obj._check_live()
        rep: MigratoryRep = obj._rep
        if rep.is_local:
            # Copying a migrated object shares the live local state.
            new_rep = MigratoryRep(None, rep.impl, rep.binding)
        else:
            duplicate = self.domain.kernel.copy_door_id(self.domain, rep.door)
            new_rep = MigratoryRep(duplicate, None, rep.binding)
        return self.make_object(new_rep, obj._binding)

    def consume(self, obj: SpringObject) -> None:
        obj._check_live()
        rep: MigratoryRep = obj._rep
        if rep.door is not None:
            self.domain.kernel.delete_door_id(self.domain, rep.door)
        obj._mark_consumed()

    def type_info(self, obj: SpringObject) -> tuple[str, ...]:
        rep: MigratoryRep = obj._rep
        if rep.is_local:
            return rep.binding.ancestors
        from repro.core.stubs import remote_type_query

        return remote_type_query(obj)


class MigratoryServer(SingleDoorServer):
    """Server-side migratory machinery."""

    id = "migratory"

    def wrap_handler(
        self, inner: "DoorHandler", impl: Any, binding: "InterfaceBinding"
    ) -> "DoorHandler":
        if not hasattr(impl, "migrate_out") or not hasattr(
            type(impl), "migrate_in"
        ):
            raise SubcontractError(
                f"{type(impl).__name__} is not migratable: it must provide "
                f"migrate_out() and migrate_in()"
            )
        register_factory(type(impl))
        kernel = self.domain.kernel
        state = {"moved": False}

        def handler(request: MarshalBuffer) -> MarshalBuffer:
            saved = request.pos
            op = request.get_string()
            if state["moved"]:
                reply = MarshalBuffer(kernel)
                write_exception_status(
                    reply, SubcontractError("object has migrated away")
                )
                return reply
            if op == _FETCH_OP:
                reply = MarshalBuffer(kernel)
                write_ok_status(reply)
                reply.put_string(_factory_name(type(impl)))
                reply.put_bytes(impl.migrate_out())
                state["moved"] = True
                return reply
            request.pos = saved
            return inner(request)

        return handler

    def make_rep(
        self, door_id: "DoorIdentifier", binding: "InterfaceBinding"
    ) -> MigratoryRep:
        return MigratoryRep(door_id, None, binding)

    def revoke(self, obj: SpringObject) -> None:
        obj._check_live()
        if obj._rep.door is not None:  # else the state migrated into this domain
            super().revoke(obj)


# ----------------------------------------------------------------------
# implementation factories: how a receiving program reconstitutes state.
# In Spring this is the same trusted-library story as subcontract code
# itself; here programs register migratable classes explicitly.
# ----------------------------------------------------------------------

_FACTORIES: dict[str, type] = {}


def _factory_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def register_factory(cls: type) -> None:
    """Make a migratable implementation class reconstitutable by name."""
    _FACTORIES[_factory_name(cls)] = cls


__all__.append("register_factory")
