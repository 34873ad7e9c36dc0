"""The Spring nucleus emulation: kernel-mediated door operations.

All operations on doors and door identifiers go through the kernel
(Section 3.3): construction, destruction, copying, transmission, and of
course cross-domain calls.  The kernel also implements:

* capability enforcement — only the owning domain may use an identifier;
* refcounting with *unreferenced notification* — when the last identifier
  for a door is deleted, the door's server is told so it can reclaim the
  underlying state (Section 7);
* revocation — a server invalidates every outstanding identifier at once
  (Section 5.2.3);
* domain crash semantics — a crashed domain's doors die and its
  identifiers evaporate, which is exactly the failure the reconnectable
  subcontract (Section 8.3) exists to mask.

Calls between domains on *different machines* are delegated to the network
fabric installed by :mod:`repro.net`; the kernel only ever performs the
local leg, matching the paper's split between the nucleus and the network
servers.
"""

from __future__ import annotations

import os
import threading
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.kernel.clock import CostModel, SimClock
from repro.kernel.doors import Door, DoorHandler, DoorIdentifier, DoorState, TransitDoorRef
from repro.kernel.domain import Domain
from repro.kernel.errors import (
    DeadlineExceeded,
    DoorAccessError,
    DoorRevokedError,
    InvalidDoorError,
    ServerDiedError,
)
from repro.marshal.context import DEADLINE, HOP_KEYS
from repro.obs.tracer import NULL_TRACER

if TYPE_CHECKING:
    from repro.marshal.buffer import MarshalBuffer

__all__ = ["Kernel"]

#: ``REPRO_TSAN=1`` in the environment => every new kernel installs the
#: happens-before race detector on itself (read once at import).
_TSAN_FROM_ENV = os.environ.get("REPRO_TSAN", "") not in ("", "0")

_ACTIVE = DoorState.ACTIVE


class _ThreadContext(threading.local):
    """Per-thread call-context slot with a class-level default.

    The default makes the unset read (``kernel.context.value``) an
    ordinary attribute lookup; ``getattr(local, "value", None)`` on a
    fresh thread is AttributeError-driven and ~6x slower: too hot for
    the gate that runs on every door call."""

    value: dict | None = None


class Kernel:
    """One Spring nucleus instance.

    A single kernel may host many domains; :mod:`repro.net` groups domains
    into machines and installs a fabric hook for cross-machine calls.  In
    tests that don't care about machines, all domains share one kernel and
    every door call is a local (cross-domain, same-machine) call.
    """

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.clock = SimClock(cost_model)
        self.domains: dict[int, Domain] = {}
        self.doors: dict[int, Door] = {}
        # Guards the capability tables, held across table mutations only:
        # never across a door handler, so nested and concurrent calls
        # proceed (domains have threads, Section 3.3).
        self._table_lock = threading.RLock()
        #: optional hook installed by the network layer: called for door
        #: calls whose server lives on a different machine than the caller.
        self.fabric: Callable[[Domain, Door, "MarshalBuffer"], "MarshalBuffer"] | None = None
        # Nested door-call depth is tracked per thread (a chain of nested
        # calls lives on one thread), so no lock guards it.
        self._depth = threading.local()
        #: the calling thread's call context (repro.marshal.context): stamped
        #: onto buffers at door_call, swapped for the request's in incoming
        self.context = _ThreadContext()
        # Kernel-scoped sequence counters (txn ids, saga ids, idempotency
        # keys): they reset with the kernel, so seeded worlds replay.
        self._seqs: dict[str, int] = {}
        #: the call-path seams (see interpose): a composed stage, or None,
        #: which costs the legs one attribute read and one branch
        self.launch_seam = self.gate_seam = self.handler_seam = None
        self._interposers: dict[int, object] = {}
        #: installed features, for code that asks for one by name (never
        #: the legs); the tracer boots as a no-op whose ``enabled`` is False
        self.tracer = NULL_TRACER
        self.chaos = self.admission = self.tsan = None
        if _TSAN_FROM_ENV:
            from repro.runtime.tsan import install_tsan

            install_tsan(self)

    @property
    def call_depth(self) -> int:
        """Depth of the calling thread's nested door-call chain."""
        return getattr(self._depth, "value", 0)

    def live_door_count(self) -> int:
        """Number of doors currently registered with the kernel (E4)."""
        return len(self.doors)

    def next_seq(self, kind: str) -> int:
        """Allocate the next kernel-scoped sequence number for ``kind``.

        Used for identifiers that must be deterministic per world
        (transaction ids, saga ids, idempotency keys): two worlds built
        from the same seed allocate the same numbers in the same order,
        regardless of what other tests ran in the process before them.
        """
        with self._table_lock:
            value = self._seqs.get(kind, 0) + 1
            self._seqs[kind] = value
            return value

    # ------------------------------------------------------------------
    # domains
    # ------------------------------------------------------------------

    def create_domain(self, name: str) -> Domain:
        """Boot a new domain (address space + threads)."""
        with self._table_lock:
            domain = Domain(self, name)
            self.domains[domain.uid] = domain
        ts = self.tsan
        if ts is not None:
            ts.on_domain_created(domain)
        return domain

    def crash_domain(self, domain: Domain) -> None:
        """Terminate a domain abruptly.

        Every door the domain serves becomes DEAD (future calls raise
        :class:`ServerDiedError` wrapped as a communication failure) and
        every identifier the domain owns is deleted — without running
        unreferenced notifications into the crashed domain itself.
        """
        with self._table_lock:
            if not domain.alive:
                return
            domain.alive = False
            for door in list(domain.served_doors.values()):
                door.state = DoorState.DEAD
            # Deleting the crashed domain's identifiers may drop other
            # (still-alive) servers' doors to zero references; those
            # servers do get their unreferenced notification.
            for ident in list(domain.door_ids.values()):
                self._release_identifier(ident)
            domain.door_ids.clear()

    # ------------------------------------------------------------------
    # door construction / destruction
    # ------------------------------------------------------------------

    def create_door(
        self,
        server: Domain,
        handler: DoorHandler,
        unreferenced: Callable[[Door], None] | None = None,
        label: str = "",
    ) -> DoorIdentifier:
        """Create a door served by ``server`` and return its first identifier.

        The returned identifier is owned by ``server``; the server passes
        it (or copies of it) to clients through marshalled objects.
        """
        server.check_alive()
        self.clock.charge("door_create")
        with self._table_lock:
            door = Door(server, handler, unreferenced, label)
            self.doors[door.uid] = door
            server.served_doors[door.uid] = door
            return self._issue_identifier(door, server)

    def copy_door_id(self, domain: Domain, ident: DoorIdentifier) -> DoorIdentifier:
        """Duplicate an identifier (kernel door-id copy; Section 7 simplex copy).

        Copying is permitted even when the door is dead or revoked —
        holding or passing a stale capability is legal (compare Mach dead
        names); only *calls* on it fail.
        """
        domain.check_alive()
        self.clock.charge("door_copy")
        with self._table_lock:
            self._check_usable(domain, ident, for_call=False)
            return self._issue_identifier(ident.door, domain, allow_inactive=True)

    def delete_door_id(self, domain: Domain, ident: DoorIdentifier) -> None:
        """Delete an identifier the domain owns (Section 7 simplex consume).

        When the door's last identifier disappears the kernel notifies the
        door's target so the server-side subcontract can clean up.
        """
        domain.check_alive()
        self.clock.charge("door_delete")
        with self._table_lock:
            if not domain.owns(ident):
                raise DoorAccessError(
                    f"domain {domain.name!r} does not own identifier #{ident.uid}"
                )
            self._release_identifier(ident)

    def revoke_door(self, server: Domain, door: Door) -> None:
        """Server-side revocation (Section 5.2.3).

        The server discards a piece of state even though clients still
        hold objects pointing at it; revoking the underlying door
        effectively prevents further incoming calls.  Outstanding
        identifiers remain in client tables but every use raises
        :class:`DoorRevokedError`.
        """
        server.check_alive()
        with self._table_lock:
            if door.uid not in server.served_doors:
                raise DoorAccessError(
                    f"domain {server.name!r} does not serve door #{door.uid}"
                )
            door.state = DoorState.REVOKED

    # ------------------------------------------------------------------
    # transmission (marshal-layer support)
    # ------------------------------------------------------------------

    def detach_door_id(self, domain: Domain, ident: DoorIdentifier) -> TransitDoorRef:
        """Move an identifier out of a domain and into transit.

        Used when a subcontract marshals an object: the object's door
        identifiers leave the sender's address space (marshal *deletes all
        the local state associated with the object*, Section 5.1.1) but
        keep their refcount unit so the door stays referenced in flight.
        """
        domain.check_alive()
        with self._table_lock:
            self._check_usable(domain, ident, for_call=False)
            domain._disown(ident)
            ident.valid = False
            return TransitDoorRef(ident.door)

    def attach_door_id(self, domain: Domain, transit: TransitDoorRef) -> DoorIdentifier:
        """Materialise an in-transit door reference as a domain-owned identifier."""
        domain.check_alive()
        with self._table_lock:
            if not transit.live:
                raise InvalidDoorError("transit door reference already consumed")
            transit.live = False
            # The refcount unit transfers from the transit ref to the
            # new identifier.
            ident = DoorIdentifier(transit.door, domain)
            domain._adopt(ident)
            return ident

    def discard_transit(self, transit: TransitDoorRef) -> None:
        """Drop an in-transit reference (message destroyed undelivered)."""
        with self._table_lock:
            if not transit.live:
                return
            transit.live = False
            self._drop_ref(transit.door)

    # ------------------------------------------------------------------
    # invocation
    # ------------------------------------------------------------------

    def door_call(
        self, caller: Domain, ident: DoorIdentifier, buffer: "MarshalBuffer"
    ) -> "MarshalBuffer":
        """Execute a cross-address-space call through a door.

        This is the launch leg: the kernel validates the caller's budget
        and capability, stamps the caller's call context, seals the buffer
        and routes it, through the launch seam when a feature is
        installed there — to the network fabric when the server lives on
        another machine, otherwise straight to :meth:`incoming`, which
        the fabric also ends in.  The gate order is the "launch" rows
        of the table in ``docs/architecture.md``.

        The liveness and capability gates test inline and call
        ``check_alive`` / ``_check_usable`` only to raise, so each
        refusal is worded in one place.
        """
        if not caller.alive:
            caller.check_alive()

        # Before the capability check: retry loops must see a spent
        # budget as DeadlineExceeded (which they refuse to retry), not as
        # a dead door's retryable ServerDiedError.
        ctx = self.context.value
        if ctx is not None:
            dl = ctx.get(DEADLINE)
            if dl is not None and self.clock.now_us >= dl:
                raise DeadlineExceeded(
                    f"deadline passed before calling door #{ident.uid} "
                    f"({self.clock.now_us - dl:.1f} us over budget)"
                )

        with self._table_lock:
            door = ident.door
            if (
                ident.owner is not caller
                or not ident.valid
                or door.state is not _ACTIVE
                or ident.uid not in caller.door_ids
            ):
                self._check_usable(caller, ident, for_call=True)
            server = door.server
        if not server.alive:
            raise ServerDiedError(
                f"server domain {server.name!r} of door #{door.uid} has crashed"
            )

        # The call context follows the call on the buffer's out-of-band
        # slot (release clears it: a call that carries nothing writes none).
        if ctx is not None:
            buffer.ctx = ctx

        # Seal: the receiving side reads from the start.
        buffer.pos = 0
        buffer.sealed = True
        remote = (
            self.fabric is not None
            and caller.machine is not None
            and server.machine is not None
            and caller.machine is not server.machine
        )
        launch = self.launch_seam
        if launch is not None:
            reply = launch(caller, door, buffer, remote)
        elif remote:
            reply = self.fabric(caller, door, buffer)
        else:
            reply = self.incoming(door, buffer)
        reply.pos = 0
        reply.sealed = True
        return reply

    def incoming(
        self, door: Door, buffer: "MarshalBuffer", *, admitted: bool = False
    ) -> "MarshalBuffer":
        """The incoming leg: gate, charge and run one call at its door.

        Every call reaches its handler through here, on the server's
        machine: from the local tail of :meth:`door_call`, from the sim
        fabric once the request wire leg is paid, and from a worker
        process that rebuilt the request from an envelope.  The gate
        order (and what each refusal has charged by then) is the
        "incoming" rows of the table in ``docs/architecture.md``.
        ``admitted=True`` is the gate seam's innermost stage: the call
        has passed the liveness checks and every gate.
        """
        if not admitted:
            # Before the gate seam: busy is not dead.  A door that died or
            # was revoked after launch must not occupy a slot or hand retry
            # loops a ``retry_after_us`` to back off on.
            server = door.server
            if not server.alive or door.state is DoorState.DEAD:
                raise ServerDiedError(
                    f"server domain {server.name!r} of door #{door.uid} has crashed"
                )
            if door.state is DoorState.REVOKED:
                raise DoorRevokedError(f"door #{door.uid} has been revoked")
            gate = self.gate_seam
            if gate is not None:
                return gate(door, buffer)
        self.clock.charge("door_call")
        with self._table_lock:
            door.calls_handled += 1
        # The request has been consumed: from here a refusal (late
        # arrival, crash-mid-call) counts as a handled call.
        ctx = buffer.ctx
        if ctx is not None:
            dl = ctx.get(DEADLINE)
            if dl is not None and self.clock.now_us >= dl:
                raise DeadlineExceeded(
                    f"deadline passed before door #{door.uid} handler ran "
                    f"({self.clock.now_us - dl:.1f} us over budget)"
                )
        depth_local = self._depth
        depth = getattr(depth_local, "value", 0)
        depth_local.value = depth + 1
        # The handler runs in the context that came with the call, less
        # the keys that name this hop only (an idempotency key names one
        # request, not the calls it makes); door_call stamps every
        # non-empty context, so a call carrying none is already in its own,
        # and so is one carrying hop keys alone (every traced call's).
        swap = False
        if ctx is not None:
            ctx_local = self.context
            held = ctx_local.value
            inherited = None if ctx.keys() <= HOP_KEYS else {
                key_id: value for key_id, value in ctx.items() if key_id not in HOP_KEYS
            }
            swap = inherited is not held
            if swap:
                ctx_local.value = inherited
        handle = self.handler_seam
        try:
            if handle is not None:
                return handle(door, buffer)
            return door.handler(buffer)
        finally:
            depth_local.value = depth
            if swap:
                ctx_local.value = held

    def interpose(self, feature) -> None:
        """Compose ``feature`` into the seams: ``around_launch``,
        ``around_gate`` and ``around_handler``, where it has them, each
        take the next stage inward and return the stage that calls it.
        The class-constant ``rank`` orders them (lower wraps outside) and
        names the slot: a second feature at a rank replaces the first."""
        self._interposers[feature.rank] = feature
        self._compose()

    def withdraw(self, feature) -> None:
        """Take ``feature`` out of the seams if it is installed (else no-op)."""
        if feature is not None and self._interposers.get(feature.rank) is feature:
            del self._interposers[feature.rank]
            self._compose()

    def _compose(self) -> None:
        inward = [f for _, f in sorted(self._interposers.items(), reverse=True)]
        for seam, stage in (
            ("launch", self._route),
            ("gate", partial(self.incoming, admitted=True)),
            ("handler", lambda door, buffer: door.handler(buffer)),
        ):
            composed = None
            for feature in inward:
                around = getattr(feature, "around_" + seam, None)
                if around is not None:
                    stage = composed = around(stage)
            setattr(self, seam + "_seam", composed)

    def _route(self, caller, door, buffer, remote):
        """The launch seam's innermost stage: the wire or incoming leg."""
        return self.fabric(caller, door, buffer) if remote else self.incoming(door, buffer)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _issue_identifier(
        self, door: Door, owner: Domain, allow_inactive: bool = False
    ) -> DoorIdentifier:
        if door.state is not DoorState.ACTIVE and not allow_inactive:
            raise InvalidDoorError(f"door #{door.uid} is {door.state.value}")
        ident = DoorIdentifier(door, owner)
        door.refcount += 1
        owner._adopt(ident)
        return ident

    def _release_identifier(self, ident: DoorIdentifier) -> None:
        if not ident.valid:
            return
        ident.valid = False
        ident.owner._disown(ident)
        self._drop_ref(ident.door)

    def _drop_ref(self, door: Door) -> None:
        door.refcount -= 1
        if door.refcount < 0:  # pragma: no cover - invariant guard
            raise AssertionError(f"door #{door.uid} refcount went negative")
        if door.refcount == 0:
            self._door_unreferenced(door)

    def _door_unreferenced(self, door: Door) -> None:
        """Last identifier gone: notify the door's target, then retire it."""
        server = door.server
        server.served_doors.pop(door.uid, None)
        self.doors.pop(door.uid, None)
        was_active = door.state is DoorState.ACTIVE
        door.state = DoorState.DEAD
        if was_active and server.alive and door.unreferenced is not None:
            door.unreferenced(door)

    def _check_usable(
        self, domain: Domain, ident: DoorIdentifier, for_call: bool
    ) -> None:
        if not domain.owns(ident):
            raise DoorAccessError(
                f"domain {domain.name!r} does not own identifier #{ident.uid}"
            )
        if not ident.valid:
            raise InvalidDoorError(f"identifier #{ident.uid} is no longer valid")
        door = ident.door
        if not for_call:
            # Holding, copying, and transmitting stale capabilities is
            # legal; only calls on them fail.
            return
        if door.state is DoorState.REVOKED:
            raise DoorRevokedError(f"door #{door.uid} has been revoked")
        if door.state is DoorState.DEAD:
            # Calls on a dead door are a communication failure — the
            # signal replicon and reconnectable recover from.
            raise ServerDiedError(f"server of door #{door.uid} has crashed")
