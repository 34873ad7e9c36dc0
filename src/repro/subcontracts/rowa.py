"""The rowa subcontract: read-one / write-all-available replication.

Section 5 introduces replicon as "our *simplest* subcontract for
supporting replication ... (Other subcontracts for replication use more
elaborate rules.)"  This module is one of those other subcontracts.

Where replicon's clients "are required to talk only to a single server
and the servers are required to perform their own state synchronization",
rowa moves the synchronization *into the client subcontract*:

* **reads** go to the first available replica (cheap);
* **writes** fan out to every available replica, all carrying the same
  request bytes; the first reply is returned after all replicas have
  applied the write.

Server-side, the replicas are completely independent implementations —
no group broadcast, no peer protocol at all.  The subcontract must know
which operations are reads; the exporter declares them, and the set
travels inside the object's marshalled representation so every receiving
domain applies the same rule.

The trade-off (documented and tested): a replica that was unavailable
during a write and later becomes reachable again serves stale data —
rejoining requires state transfer, which rowa deliberately does not
provide.  Pick replicon when servers can synchronize themselves; pick
rowa when they cannot.

That is the *available-copies* rule, rowa's one departure from the shared
``runtime.retry.failure_verdict``: a replica that misses a write its
siblings applied leaves the set for good, whatever the reason (dead,
merely busy, deadline spent mid-fan-out) — its state is now stale.
Otherwise busy is not dead (a shed replica is skipped and kept; if all
shed, the last ``ServerBusyError`` surfaces) and a deadline spent before
any replica applied the call prunes nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import SubcontractError
from repro.core.object import SpringObject
from repro.core.registry import ensure_registry
from repro.kernel.errors import CommunicationError, InvalidDoorError
from repro.marshal.buffer import MarshalBuffer
from repro.marshal.errors import MarshalError
from repro.runtime import tsan as _tsan
from repro.runtime.retry import BUSY, SPENT, failure_verdict
from repro.subcontracts.common import (
    DoorSetRep,
    RepClient,
    make_door_handler,
    quiet_delete,
)

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.domain import Domain
    from repro.kernel.doors import DoorIdentifier

__all__ = ["RowaClient", "RowaGroup", "RowaRep"]


@_tsan.shared_state
class RowaRep(DoorSetRep):
    """Doors to every replica, plus the declared read-operation names."""

    __slots__ = ("read_ops",)

    def __init__(self, doors: list["DoorIdentifier"], read_ops: frozenset[str]) -> None:
        super().__init__(doors)
        self.read_ops = read_ops

    def write(self, buffer: MarshalBuffer, put_door: Callable) -> None:
        """Wire form: the sorted read-operation names, door count, each
        door identifier."""
        buffer.put_sequence_header(len(self.read_ops))
        for opname in sorted(self.read_ops):
            buffer.put_string(opname)
        with self.lock:
            self._put_doors(buffer, put_door)

    @classmethod
    def read(cls, buffer: MarshalBuffer, get_door: Callable) -> "RowaRep":
        read_ops = frozenset(
            buffer.get_string() for _ in range(buffer.get_sequence_header())
        )
        return cls(cls._get_doors(buffer, get_door), read_ops)

    def duplicate(self, dup_door: Callable) -> "RowaRep":
        """A second identifier for every current member, same read set."""
        with self.lock:
            return RowaRep([dup_door(door) for door in self.doors], self.read_ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RowaRep {len(self.doors)} doors reads={sorted(self.read_ops)}>"


class RowaClient(RepClient):
    """Client operations vector for the rowa subcontract."""

    id = "rowa"
    rep_type = RowaRep

    def invoke(self, obj: SpringObject, buffer: MarshalBuffer) -> MarshalBuffer:
        rep: RowaRep = obj._rep
        # The request starts with the operation name (rowa writes no
        # preamble control), so the subcontract can classify the call.
        saved = buffer.pos
        opname = buffer.get_string()
        buffer.pos = saved

        if opname in rep.read_ops or opname == "_spring_type_query":
            return self._read_one(rep, buffer)
        return self._write_all(rep, buffer)

    def _read_one(self, rep: RowaRep, buffer: MarshalBuffer) -> MarshalBuffer:
        kernel = self.domain.kernel
        last_busy = None
        for door in rep.held_doors():
            try:
                kernel.clock.charge("memory_copy_byte", buffer.size)
                reply = kernel.door_call(self.domain, door, buffer)
            except (CommunicationError, InvalidDoorError) as failure:
                verdict = failure_verdict(failure)
                if verdict is SPENT:
                    raise
                if verdict is BUSY:
                    last_busy = failure
                else:
                    # A sibling thread may have pruned it concurrently.
                    with rep.lock:
                        if door in rep.doors:
                            rep.doors.remove(door)
                    quiet_delete(self.domain, door)
                continue
            kernel.clock.charge("memory_copy_byte", reply.size)
            return reply
        if last_busy is not None:
            raise last_busy
        raise CommunicationError("rowa: no replica is available")

    def _write_all(self, rep: RowaRep, buffer: MarshalBuffer) -> MarshalBuffer:
        if buffer.live_door_count():
            raise MarshalError(
                "rowa cannot fan out requests carrying door identifiers "
                "(the capability could be delivered only once)"
            )
        kernel = self.domain.kernel
        first_reply: MarshalBuffer | None = None
        last_busy = None
        applied, shed, missed = [], [], []
        for door in rep.held_doors():
            try:
                kernel.clock.charge("memory_copy_byte", buffer.size)
                reply = kernel.door_call(self.domain, door, buffer)
            except (CommunicationError, InvalidDoorError) as failure:
                verdict = failure_verdict(failure)
                if verdict is SPENT and not applied:
                    raise  # no copy diverged yet: touch nothing
                if verdict is BUSY:
                    last_busy = failure
                    shed.append(door)
                else:
                    missed.append(door)
                continue
            applied.append(door)
            if first_reply is None:
                kernel.clock.charge("memory_copy_byte", reply.size)
                first_reply = reply
        # Available copies: once any replica applied the write, whoever
        # missed it holds stale state and leaves the set, even a merely
        # busy one; if none did, only the dead leave.  Under the lock, so
        # a sibling's copy or transmission finishes its walk before the
        # leavers' identifiers are deleted.
        with rep.lock:
            rep.doors = applied or shed
        for door in (missed + shed) if applied else missed:
            quiet_delete(self.domain, door)
        if first_reply is not None:
            return first_reply
        if last_busy is not None:
            raise last_busy
        raise CommunicationError("rowa: no replica accepted the write")


class RowaGroup:
    """Server side of rowa: fully independent replicas.

    Each ``add_replica`` exports a door onto a private implementation; no
    peer communication exists.  ``make_object`` fabricates the client
    object with doors to every member and the declared read set.
    """

    id = "rowa"

    def __init__(self, binding: "InterfaceBinding", read_ops: tuple[str, ...]) -> None:
        unknown = set(read_ops) - set(binding.operations)
        if unknown:
            raise SubcontractError(
                f"rowa read_ops name unknown operations: {sorted(unknown)}"
            )
        self.binding = binding
        self.read_ops = frozenset(read_ops)
        #: (domain, impl, door identifier owned by that domain)
        self.members: list[tuple["Domain", Any, "DoorIdentifier"]] = []

    def add_replica(self, domain: "Domain", impl: Any) -> None:
        """Export an independent replica; no peer protocol is installed."""
        handler = make_door_handler(domain, impl, self.binding)
        door = domain.kernel.create_door(
            domain, handler, label=f"rowa:{self.binding.name}"
        )
        self.members.append((domain, impl, door))

    def make_object(self, domain: "Domain") -> SpringObject:
        """Fabricate a client object (owned by a member domain) holding
        doors to every replica."""
        if not any(member_domain is domain for member_domain, _, _ in self.members):
            raise SubcontractError(
                f"domain {domain.name!r} is not a member of this rowa group"
            )
        kernel = domain.kernel
        doors = []
        for member_domain, _, door in self.members:
            duplicate = kernel.copy_door_id(member_domain, door)
            transit = kernel.detach_door_id(member_domain, duplicate)
            doors.append(kernel.attach_door_id(domain, transit))
        vector = ensure_registry(domain).lookup(self.id)
        return vector.make_object(RowaRep(doors, self.read_ops), self.binding)
