"""The caching subcontract (Section 8.2, Figure 5).

"When a server is on a different machine from its clients, it is often
useful to perform caching on the client machines.  So when we transmit a
cacheable object between machines, we'd like the receiving machine to
register the received object with a local cache manager and access the
object via the cache.

The representation of a caching object includes a door identifier D1 that
points to the server, a door identifier D2 that points to a local cache,
and the name of a cache manager.

When we transmit a caching object between machines, we only transmit the
D1 door identifier and the cache manager name.  The caching unmarshal
code resolves the cache manager name in a machine-local context to
discover a suitable local cache manager and then presents the D1 door
identifier to the local cache manager and receives a new D2.  Whenever
the subcontract performs an invoke operation it uses the D2 door
identifier."

The machine-local context is the naming subtree
``/machines/<machine>/caches`` maintained by the runtime environment.  If
no suitable cache manager exists on the receiving machine, the subcontract
degrades gracefully: D2 is absent and invocations go straight to the
server through D1.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.core.object import SpringObject
from repro.kernel.errors import CommunicationError, InvalidDoorError
from repro.marshal.buffer import MarshalBuffer
from repro.runtime import tsan as _tsan
from repro.runtime.retry import BUSY, SPENT, failure_verdict
from repro.subcontracts.common import RepClient, quiet_delete
from repro.subcontracts.singleton import SingleDoorServer

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.doors import DoorIdentifier

__all__ = ["CachingClient", "CachingServer", "CachingRep"]


@_tsan.shared_state
class CachingRep:
    """D1 (server door), D2 (local cache door, may be None), and the
    cache manager name.

    ``stale`` is the degradation memo: the last good reply bytes per
    request bytes, consulted only when the authority sheds the call
    under overload (see :meth:`CachingClient.invoke`).  It is local
    soft state — never marshalled, never copied.

    ``lock`` serialises the mutable fields (``cache_door`` demotion and
    the ``stale`` memo) when sibling threads of one domain share the
    object; the door-call fast path never takes it.
    """

    __slots__ = ("server_door", "cache_door", "manager_name", "stale", "lock")

    def __init__(
        self,
        server_door: "DoorIdentifier",
        cache_door: "DoorIdentifier | None",
        manager_name: str,
    ) -> None:
        self.lock = _tsan.instrument_lock(
            threading.Lock(), f"CachingRep.lock@{id(self):x}"
        )
        self.server_door = server_door
        self.cache_door = cache_door
        self.manager_name = manager_name
        self.stale: dict[bytes, bytes] | None = None

    @property
    def door(self) -> "DoorIdentifier":
        """D1 under the name the single-door server machinery revokes by."""
        return self.server_door

    def write(self, buffer: MarshalBuffer, put_door: Callable) -> None:
        """Wire form: D1, STRING manager name (D2 is machine-local and
        never travels)."""
        put_door(self.server_door)
        buffer.put_string(self.manager_name)

    @classmethod
    def read(cls, buffer: MarshalBuffer, get_door: Callable) -> "CachingRep":
        return cls(get_door(), None, buffer.get_string())

    def duplicate(self, dup_door: Callable) -> "CachingRep":
        """Second identifiers for D1 and, while a cache front exists, D2."""
        with self.lock:
            d1 = dup_door(self.server_door)
            d2 = dup_door(self.cache_door) if self.cache_door is not None else None
        return CachingRep(d1, d2, self.manager_name)

    def held_doors(self) -> tuple:
        """D1, then D2 while a cache front exists."""
        with self.lock:
            if self.cache_door is None:
                return (self.server_door,)
            return (self.server_door, self.cache_door)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        d2 = f"#{self.cache_door.uid}" if self.cache_door else "none"
        return (
            f"<CachingRep D1=#{self.server_door.uid} D2={d2}"
            f" manager={self.manager_name!r}>"
        )


class CachingClient(RepClient):
    """Client operations vector for the caching subcontract.  It hand-
    writes the three tail operations D2 changes: ``marshal_rep`` releases
    it, ``unmarshal_rep`` re-registers for one, ``marshal_copy`` never
    duplicates it."""

    id = "caching"
    rep_type = CachingRep

    #: only door-free replies up to this size are memoised for staleness
    STALE_REPLY_CAP = 4096

    #: distinct request keys memoised per object before eviction
    STALE_MEMO_ENTRIES = 32

    def invoke(self, obj: SpringObject, buffer: MarshalBuffer) -> MarshalBuffer:
        kernel = self.domain.kernel
        rep: CachingRep = obj._rep
        # "Whenever the subcontract performs an invoke operation it uses
        # the D2 door identifier" — D1 only when no local cache exists.
        # Snapshot D2 under the rep lock: a sibling thread's fallback may
        # demote it concurrently.
        with rep.lock:
            cache_door = rep.cache_door
        door = cache_door if cache_door is not None else rep.server_door
        tracer = kernel.tracer
        if tracer.enabled:
            tracer.event(
                "caching.route",
                subcontract=self.id,
                via="cache" if cache_door is not None else "server",
            )
        kernel.clock.charge("memory_copy_byte", buffer.size)
        try:
            reply = kernel.door_call(self.domain, door, buffer)
        except (CommunicationError, InvalidDoorError) as failure:
            verdict = failure_verdict(failure)
            if verdict is BUSY:
                # Busy is not dead: the cache front must NOT be dropped.
                # Serve the last good local copy of this exact reply if we
                # hold one; otherwise surface the busy and its hint.
                memo = None
                if not buffer.doors:
                    with rep.lock:
                        if rep.stale is not None:
                            memo = rep.stale.get(bytes(buffer.data))
                if memo is None:
                    raise
                if tracer.enabled:
                    tracer.event(
                        "caching.stale_hit", subcontract=self.id, bytes=len(memo)
                    )
                reply = self._stale_reply(kernel, memo)
                kernel.clock.charge("memory_copy_byte", reply.size)
                return reply
            if cache_door is None or verdict is SPENT:
                # No cache front to fall back from (or the caller's
                # deadline is spent): surface the failure unchanged.
                raise
            # The local cache front died.  Drop D2 and degrade gracefully:
            # all further invocations go straight to the server via D1.
            with rep.lock:
                dead = rep.cache_door
                rep.cache_door = None
            if dead is not None:
                quiet_delete(self.domain, dead)
            if tracer.enabled:
                tracer.event(
                    "caching.fallback",
                    subcontract=self.id,
                    error=type(failure).__name__,
                )
            reply = kernel.door_call(self.domain, rep.server_door, buffer)
        kernel.clock.charge("memory_copy_byte", reply.size)
        # Memoise door-free request/reply byte pairs so a later shed can
        # be answered locally.  Door-carrying payloads never memoise: the
        # bytes alone do not reproduce a capability transfer.
        if (
            not buffer.doors
            and not reply.doors
            and len(reply.data) <= self.STALE_REPLY_CAP
        ):
            with rep.lock:
                stale = rep.stale
                if stale is None:
                    stale = rep.stale = _tsan.track({}, "caching.stale")
                elif len(stale) >= self.STALE_MEMO_ENTRIES:
                    stale.pop(next(iter(stale)))
                stale[bytes(buffer.data)] = bytes(reply.data)
        return reply

    @staticmethod
    def _stale_reply(kernel: Any, memo: bytes) -> MarshalBuffer:
        """Fabricate a reply buffer from memoised bytes (one local copy)."""
        reply = MarshalBuffer(kernel)
        reply.data.extend(memo)
        kernel.clock.charge("memory_copy_byte", len(memo))
        return reply

    # ------------------------------------------------------------------
    # transmission: only D1 and the manager name travel
    # ------------------------------------------------------------------

    def marshal_rep(self, obj: SpringObject, buffer: MarshalBuffer) -> None:
        super().marshal_rep(obj, buffer)
        rep: CachingRep = obj._rep
        with rep.lock:
            cache_door, rep.cache_door = rep.cache_door, None
        if cache_door is not None:
            # D2 is machine-local: it does not travel, so release it.
            quiet_delete(self.domain, cache_door)

    def unmarshal_rep(
        self, buffer: MarshalBuffer, binding: "InterfaceBinding"
    ) -> SpringObject:
        obj = super().unmarshal_rep(buffer, binding)
        rep: CachingRep = obj._rep
        cache_door = self._register_with_local_cache(
            rep.server_door, rep.manager_name
        )
        with rep.lock:
            rep.cache_door = cache_door
        return obj

    def _register_with_local_cache(
        self, server_door: "DoorIdentifier", manager_name: str
    ) -> "DoorIdentifier | None":
        """Resolve the manager name in a machine-local context and present
        D1 to the discovered cache manager, receiving a new D2.

        This is the "significant overhead to object unmarshalling"
        Section 9.3 mentions — it buys local caching on every later read.
        """
        from repro.core.errors import SubcontractError
        from repro.core.stubs import narrow

        machine = self.domain.machine
        naming = self.domain.locals.get("naming_root")
        if machine is None or naming is None:
            return None
        try:
            resolved = naming.resolve(
                f"/machines/{machine.name}/caches/{manager_name}"
            )
        except Exception:
            return None
        from repro.services.cachemgr import cache_manager_binding

        try:
            manager = narrow(resolved, cache_manager_binding())
        except SubcontractError:
            resolved.spring_consume()
            return None
        try:
            presented = self.domain.kernel.copy_door_id(self.domain, server_door)
            return manager.register_cache(presented)
        finally:
            manager.spring_consume()

    def marshal_copy(self, obj: SpringObject, buffer: MarshalBuffer) -> None:
        # Fused copy+marshal (Section 5.1.5).  The plain copy-then-marshal
        # path would duplicate D2 only to delete it again (D2 never
        # travels); the fused form touches only D1.
        obj._check_live()
        self.domain.kernel.clock.charge("indirect_call")
        rep: CachingRep = obj._rep
        d1 = self.domain.kernel.copy_door_id(self.domain, rep.server_door)
        buffer.put_object_header(self.id)
        buffer.put_door_id(self.domain, d1)
        buffer.put_string(rep.manager_name)


class CachingServer(SingleDoorServer):
    """Server-side caching machinery.

    Exporting creates the server door (D1's target) exactly like
    singleton; the subcontract ID in the marshalled form is what makes
    receivers register with their local cache manager.  ``manager_name``
    selects which cache manager receivers should look for.
    """

    id = "caching"

    def __init__(self, domain: Any, manager_name: str = "default") -> None:
        super().__init__(domain)
        self.manager_name = manager_name

    def make_rep(
        self, door_id: "DoorIdentifier", binding: "InterfaceBinding"
    ) -> CachingRep:
        # The exporting domain itself talks straight to the state (no D2):
        # caching begins when the object crosses to another machine.
        return CachingRep(door_id, None, self.manager_name)
