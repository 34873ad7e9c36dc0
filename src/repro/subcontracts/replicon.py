"""The replicon subcontract: the paper's simplest replication subcontract
(Section 5).

"A set of server domains conspire to maintain the underlying state
associated with an object.  Each server creates a kernel door to accept
incoming calls on that state.  The client domains possess a set of door
identifiers that they use to call through to server domains.  In the case
of replicon the clients are required to talk only to a single server and
the servers are required to perform their own state synchronization."

Client behaviour (Section 5.1.3): invoke tries each door identifier in
turn; a communication failure prunes that identifier from the target set
and the next one is tried.  The invoke protocol also piggybacks
subcontract control information in the call and reply buffers, used to
support changes to the replica set: the client sends the epoch of its
replica set, and a server holding a newer set replies with fresh door
identifiers which the client adopts.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import SubcontractError
from repro.core.object import SpringObject
from repro.core.registry import ensure_registry
from repro.kernel.errors import (
    CommunicationError,
    InvalidDoorError,
    ServerBusyError,
)
from repro.marshal.buffer import MarshalBuffer
from repro.runtime import tsan as _tsan
from repro.runtime.idem import DedupMemo, wrap_idempotent
from repro.runtime.retry import BUSY, EVICTED, SPENT, RetryPolicy, failure_verdict
from repro.subcontracts.common import (
    DoorSetRep,
    RepClient,
    gossip_evicted,
    make_door_handler,
    quiet_delete,
)

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.domain import Domain
    from repro.kernel.doors import DoorIdentifier

__all__ = ["RepliconClient", "RepliconGroup", "RepliconRep"]

#: the failover discipline: by default failover is immediate (base 0 us,
#: so historical sim totals are unchanged); deployments expecting flappy
#: replicas derive() a policy with a real backoff or a circuit breaker
DEFAULT_FAILOVER_POLICY = RetryPolicy(base_us=0.0, multiplier=1.0, max_attempts=1)


@_tsan.shared_state
class RepliconRep(DoorSetRep):
    """A set of kernel door identifiers, one per replica, plus the epoch
    of the replica set they came from.

    Client threads sharing one replicon object mutate the rep on
    failover (pruning a dead member) and on epoch updates (adopting a
    fresh door set); ``lock`` serializes those updates against the
    member selection at the top of each invoke and against the hooks.
    """

    __slots__ = ("epoch",)

    def __init__(self, doors: list["DoorIdentifier"], epoch: int) -> None:
        super().__init__(doors)
        self.epoch = epoch

    def write(self, buffer: MarshalBuffer, put_door: Callable) -> None:
        """Wire form: INT32 epoch, door count, each door identifier."""
        with self.lock:
            buffer.put_int32(self.epoch)
            self._put_doors(buffer, put_door)

    @classmethod
    def read(cls, buffer: MarshalBuffer, get_door: Callable) -> "RepliconRep":
        epoch = buffer.get_int32()
        return cls(cls._get_doors(buffer, get_door), epoch)

    def duplicate(self, dup_door: Callable) -> "RepliconRep":
        """A second identifier for every current member, same epoch."""
        with self.lock:
            return RepliconRep([dup_door(door) for door in self.doors], self.epoch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RepliconRep {len(self.doors)} doors epoch={self.epoch}>"


class RepliconClient(RepClient):
    """Client operations vector for the replicon subcontract."""

    id = "replicon"
    rep_type = RepliconRep

    #: the failover discipline; derive() to add backoff between members
    failover_policy = DEFAULT_FAILOVER_POLICY

    def invoke_preamble(self, obj: SpringObject, buffer: MarshalBuffer) -> None:
        # Piggybacked control: the epoch of the client's replica set, so
        # a server with a newer set can send a correction in the reply.
        buffer.put_int32(obj._rep.epoch)

    def invoke(self, obj: SpringObject, buffer: MarshalBuffer) -> MarshalBuffer:
        kernel = self.domain.kernel
        tracer = kernel.tracer
        rep: RepliconRep = obj._rep
        policy = self.failover_policy
        #: replicas pruned during this invocation, for tests/benches
        pruned = 0
        #: members that shed this invocation — busy is not dead, so they
        #: stay in the target set; we just stop re-asking them this round
        busy_skipped: set[int] = set()
        last_busy: ServerBusyError | None = None
        while True:
            with rep.lock:
                if not rep.doors:
                    break
                members = len(rep.doors)
                epoch = rep.epoch
                if busy_skipped:
                    door = self._least_loaded(kernel, rep, busy_skipped)
                else:
                    door = rep.doors[0]
            if door is None:  # every member shed: surface the overload
                raise last_busy
            try:
                if self.membership is not None:
                    evicted = gossip_evicted(self, door)
                    if evicted is not None:
                        raise evicted
                if tracer.enabled:
                    tracer.event(
                        "replicon.member",
                        subcontract=self.id,
                        door=door.uid,
                        epoch=epoch,
                    )
                kernel.clock.charge("memory_copy_byte", buffer.size)
                reply = kernel.door_call(self.domain, door, buffer)
            except (CommunicationError, InvalidDoorError) as exc:
                verdict = failure_verdict(exc)
                if verdict is SPENT:
                    # Failing over to another member would only dishonour
                    # the deadline further, and the replica is not at fault.
                    raise
                if verdict is BUSY:
                    # Shedding alone never triggers failover: the member is
                    # healthy, only overloaded.  Divert to the least-loaded
                    # remaining replica; once every member has shed, raise
                    # the busy (with its retry_after_us hint) to the caller.
                    last_busy = exc
                    busy_skipped.add(door.uid)
                    if tracer.enabled:
                        tracer.event(
                            "replicon.divert",
                            subcontract=self.id,
                            door=door.uid,
                            retry_after_us=round(exc.retry_after_us, 2),
                        )
                    if len(busy_skipped) >= members:
                        raise
                    continue
                # This replica is unreachable: delete the identifier from
                # the target set and proceed to the next one.  Another
                # thread may have pruned (or replaced) it concurrently.
                with rep.lock:
                    if door in rep.doors:
                        rep.doors.remove(door)
                quiet_delete(self.domain, door)
                pruned += 1
                if verdict is EVICTED:
                    # Learned from gossip, not a failed call: say *why* (the
                    # incarnation separates "dead" from "busy" in attribution
                    # waterfalls); no attempt was made, so no backoff is due.
                    if tracer.enabled:
                        tracer.event(
                            "replicon.evicted",
                            subcontract=self.id,
                            door=door.uid,
                            member=exc.member,
                            incarnation=exc.incarnation,
                        )
                    continue
                wait_us = policy.backoff_us(min(pruned, policy.max_attempts))
                if tracer.enabled:
                    tracer.event(
                        "replicon.failover",
                        subcontract=self.id,
                        door=door.uid,
                        error=type(exc).__name__,
                        backoff_us=wait_us,
                    )
                if wait_us > 0.0:
                    kernel.clock.advance(wait_us, "retry_backoff")
                continue
            kernel.clock.charge("memory_copy_byte", reply.size)
            if tracer.enabled and pruned:
                tracer.annotate(failovers=pruned)
            self._read_reply_control(rep, reply)
            return reply
        raise CommunicationError(
            f"replicon: all {pruned} replica doors are unreachable"
        )

    def _least_loaded(
        self, kernel, rep: RepliconRep, skip: set[int]
    ) -> "DoorIdentifier | None":
        """The remaining member with the smallest projected admission
        wait (list order breaks ties); ``None`` once every member shed.
        Called with ``rep.lock`` held (it walks ``rep.doors``)."""
        admission = kernel.admission
        best = None
        best_wait = 0.0
        for door in rep.doors:
            if door.uid in skip:
                continue
            wait = (
                admission.projected_wait_us(door) if admission is not None else 0.0
            )
            if best is None or wait < best_wait:
                best, best_wait = door, wait
        return best

    def _read_reply_control(self, rep: RepliconRep, reply: MarshalBuffer) -> None:
        updated = reply.get_bool()
        if not updated:
            return
        tracer = self.domain.kernel.tracer
        new_epoch = reply.get_int32()
        count = reply.get_sequence_header()
        new_doors = [reply.get_door_id(self.domain) for _ in range(count)]
        if not new_doors:
            return  # a server never advertises an empty set; ignore defensively
        with rep.lock:
            old_epoch = rep.epoch
            adopted = new_epoch > old_epoch
            if adopted:
                retired, rep.doors, rep.epoch = rep.doors, new_doors, new_epoch
            else:
                # Another thread already adopted this epoch (or a newer
                # one); this reply's door set is redundant, not fresher.
                retired = new_doors
        for door in retired:
            quiet_delete(self.domain, door)
        if adopted and tracer.enabled:
            tracer.event(
                "replicon.epoch_update",
                subcontract=self.id,
                old_epoch=old_epoch,
                new_epoch=new_epoch,
                members=len(new_doors),
            )


@_tsan.shared_state
class RepliconGroup:
    """The server side of replicon: a set of conspiring server domains.

    Each member domain exports a door onto its local copy of the state;
    the group tracks membership and hands out door-identifier sets.  The
    group abstraction stands in for the servers' own synchronization
    protocol, which the paper leaves to the servers ("the servers are
    required to perform their own state synchronization"); the
    :meth:`broadcast` helper is what a replicated service uses to apply a
    state change on every live replica.

    Because domains own door identifiers, the group keeps a full matrix:
    for every member domain, one identifier per member door, so any member
    can service an epoch update by handing the client copies it owns.
    """

    id = "replicon"

    def __init__(self, binding: "InterfaceBinding") -> None:
        self.binding = binding
        self.epoch = 0
        #: (domain, impl, door identifier owned by that domain)
        self.members: list[tuple["Domain", Any, "DoorIdentifier"]] = []
        #: domain uid -> list of identifiers (one per member) owned by it
        self._matrix: dict[int, list["DoorIdentifier"]] = {}
        #: domain uid -> that replica's idempotency-key dedup memo
        self.dedup_memos: dict[int, DedupMemo] = {}
        #: machine name -> (domain, impl, door) tuples parked by a gossip
        #: eviction, re-admitted when the member rejoins
        self._parked: dict[str, list] = {}
        # Serializes membership changes (epoch bumps, matrix rebuilds)
        # against each other and against handler threads reading the
        # epoch/matrix in the control hook.
        self._lock = _tsan.instrument_lock(
            threading.Lock(), f"RepliconGroup.lock@{id(self):x}"
        )

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def add_replica(self, domain: "Domain", impl: Any) -> None:
        """A new server domain joins the conspiracy."""
        # Each replica fronts its door with its own dedup memo: a client
        # retry that lands on the *same* replica replays the recorded
        # reply (a retry that fails over to a sibling re-executes there —
        # replicas synchronize state, not memos).
        memo = DedupMemo()
        handler = wrap_idempotent(
            domain,
            make_door_handler(
                domain, impl, self.binding, control_hook=self._control_hook(domain)
            ),
            memo,
        )
        door = domain.kernel.create_door(
            domain, handler, label=f"replicon:{self.binding.name}"
        )
        with self._lock:
            self.dedup_memos[domain.uid] = memo
            self.members.append((domain, impl, door))
            self.epoch += 1
            self._rebuild_matrix()

    def prune_dead(self) -> None:
        """The peers' failure detector: drop crashed member domains.

        All dead members leave in one membership change (one epoch bump,
        one matrix rebuild) — rebuilding per-removal would try to copy
        door identifiers still owned by other dead members.
        """
        with self._lock:
            live = [m for m in self.members if m[0].alive]
            if len(live) != len(self.members):
                self.members = live
                self.epoch += 1
                self._rebuild_matrix()

    def watch_membership(self, node) -> None:
        """Subscribe the group to gossip membership instead of static
        configuration: an ``evict`` removes every replica on the evicted
        machine (one epoch bump, doors parked, clients fail over); a
        ``rejoin`` re-admits the parked replicas (another epoch bump, so
        clients re-adopt the full set).  ``node`` is the
        :class:`~repro.runtime.membership.MembershipNode` whose view the
        group trusts — typically one co-located with the group's state.
        """
        node.subscribe(self._on_membership_event)

    def _on_membership_event(self, kind: str, member: str, incarnation: int) -> None:
        if kind == "evict":
            self.evict_machine(member)
        elif kind == "rejoin":
            self.readmit_machine(member)

    def evict_machine(self, machine_name: str) -> int:
        """Remove (and park) every replica on a machine; returns the count.

        Parked replicas keep their doors — a partition-evicted machine's
        domains are still alive, and its doors become valid targets again
        the moment a rejoin re-admits them.
        """
        with self._lock:
            leaving = [
                member
                for member in self.members
                if member[0].machine is not None
                and member[0].machine.name == machine_name
            ]
            if not leaving:
                return 0
            keep = [member for member in self.members if member not in leaving]
            self.members = keep
            self._parked.setdefault(machine_name, []).extend(leaving)
            self.epoch += 1
            self._rebuild_matrix()
        return len(leaving)

    def readmit_machine(self, machine_name: str) -> int:
        """Re-admit the machine's parked replicas; returns the count."""
        with self._lock:
            returning = [
                member
                for member in self._parked.pop(machine_name, ())
                if member[0].alive
            ]
            if not returning:
                return 0
            self.members = self.members + returning
            self.epoch += 1
            self._rebuild_matrix()
        return len(returning)

    def _rebuild_matrix(self) -> None:
        # Drop identifiers owned by previous matrix holders.
        for domain_uid, idents in self._matrix.items():
            for ident in idents:
                if ident.valid and ident.owner.alive:
                    quiet_delete(ident.owner, ident)
        self._matrix = {}
        for holder, _, _ in self.members:
            idents = []
            for _, _, door in self.members:
                kernel = holder.kernel
                idents.append(kernel.copy_door_id(door.owner, door))
            # Transfer ownership of the copies to the holder by detaching
            # and re-attaching through the kernel (the members' private
            # synchronization channel).
            owned = []
            for ident in idents:
                transit = ident.owner.kernel.detach_door_id(ident.owner, ident)
                owned.append(holder.kernel.attach_door_id(holder, transit))
            self._matrix[holder.uid] = owned

    # ------------------------------------------------------------------
    # server-side call processing
    # ------------------------------------------------------------------

    def _control_hook(self, domain: "Domain"):
        def hook(request: MarshalBuffer, reply: MarshalBuffer) -> None:
            client_epoch = request.get_int32()
            with self._lock:
                epoch = self.epoch
                idents = list(self._matrix.get(domain.uid, []))
            if client_epoch >= epoch:
                reply.put_bool(False)
                return
            reply.put_bool(True)
            reply.put_int32(epoch)
            fresh = [
                domain.kernel.copy_door_id(domain, ident)
                for ident in idents
                if ident.valid
            ]
            reply.put_sequence_header(len(fresh))
            for ident in fresh:
                reply.put_door_id(domain, ident)

        return hook

    # ------------------------------------------------------------------
    # object fabrication
    # ------------------------------------------------------------------

    def make_object(self, domain: "Domain") -> SpringObject:
        """Fabricate a client-side replicon object owned by ``domain``.

        ``domain`` is typically one of the member domains, which then
        marshals the object out to clients.
        """
        with self._lock:
            idents = self._matrix.get(domain.uid)
            if idents is None:
                raise SubcontractError(
                    f"domain {domain.name!r} is not a member of this replicon group"
                )
            idents = list(idents)
            epoch = self.epoch
        doors = [domain.kernel.copy_door_id(domain, ident) for ident in idents]
        client_vector = ensure_registry(domain).lookup(self.id)
        return client_vector.make_object(RepliconRep(doors, epoch), self.binding)

    # ------------------------------------------------------------------
    # the servers' own state synchronization
    # ------------------------------------------------------------------

    def broadcast(self, apply_fn) -> int:
        """Apply a state change on every live replica; returns the count."""
        with self._lock:
            members = list(self.members)
        applied = 0
        for domain, impl, _ in members:
            if domain.alive:
                apply_fn(impl)
                applied += 1
        return applied
