"""The reconnectable subcontract (Section 8.3).

"Some servers keep their state in stable storage.  If a client has an
object whose state is kept in such a server, it would like the object to
be able to quietly recover from server crashes.  Normal Spring door
identifiers become invalid when a server crashes, so we need to add some
new mechanism to allow a client to reconnect to a server.

The reconnectable subcontract uses a representation consisting of a
normal door identifier, plus an object name.

Normally the recoverable subcontract's invoke code simply does a kernel
door invocation on the door identifier.  However, if this fails, the
subcontract instead attempts to resolve the object name to obtain a new
object and retries the operation on that.  It retries periodically until
it succeeds in getting a new valid object."

The object name is resolved against the domain's naming context, which
the runtime environment plants in ``domain.locals["naming_root"]``
(standing in for the name-service capability every Spring domain is
booted with).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import SubcontractError
from repro.core.object import SpringObject
from repro.kernel.errors import CommunicationError, InvalidDoorError
from repro.marshal.buffer import MarshalBuffer
from repro.runtime.idem import DedupMemo, wrap_idempotent
from repro.runtime.retry import (
    BUSY,
    DEAD,
    EVICTED,
    SPENT,
    BreakerOpenError,
    RetryPolicy,
    failure_verdict,
)
from repro.subcontracts.common import (
    RepClient,
    SingleDoorRep,
    gossip_evicted,
    quiet_delete,
)
from repro.subcontracts.singleton import SingleDoorServer

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.doors import DoorHandler, DoorIdentifier

__all__ = ["ReconnectableClient", "ReconnectableServer", "ReconnectableRep"]

#: base simulated pause between reconnection attempts, charged to the
#: clock; the retry policy grows it exponentially across attempts
RETRY_BACKOFF_US = 50_000.0

#: how many resolve-and-retry rounds before giving up
DEFAULT_MAX_RETRIES = 8

#: the shared retry discipline: exponential backoff from the historical
#: flat constant, capped so a full budget stays within ~1.6 s of sim time
DEFAULT_RETRY_POLICY = RetryPolicy(
    base_us=RETRY_BACKOFF_US,
    multiplier=2.0,
    max_backoff_us=RETRY_BACKOFF_US * 16,
    max_attempts=DEFAULT_MAX_RETRIES,
)


class ReconnectableRep(SingleDoorRep):
    """A normal door identifier, plus an object name."""

    __slots__ = ("name",)

    def __init__(self, door: "DoorIdentifier", name: str) -> None:
        self.door = door
        self.name = name

    def write(self, buffer: MarshalBuffer, put_door: Callable) -> None:
        """Wire form: the door identifier, STRING object name."""
        put_door(self.door)
        buffer.put_string(self.name)

    @classmethod
    def read(cls, buffer: MarshalBuffer, get_door: Callable) -> "ReconnectableRep":
        return cls(get_door(), buffer.get_string())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReconnectableRep door_id=#{self.door.uid} name={self.name!r}>"


class ReconnectableClient(RepClient):
    """Client operations vector for the reconnectable subcontract."""

    id = "reconnectable"
    rep_type = ReconnectableRep

    #: the retry discipline — backoff, breaker, and the budget
    #: (``max_attempts``); tests override with derive()
    retry_policy = DEFAULT_RETRY_POLICY

    @property
    def max_retries(self) -> int:
        """The resolve-and-retry budget: ``retry_policy.max_attempts``."""
        return self.retry_policy.max_attempts

    def invoke(self, obj: SpringObject, buffer: MarshalBuffer) -> MarshalBuffer:
        kernel = self.domain.kernel
        tracer = kernel.tracer
        rep: ReconnectableRep = obj._rep
        policy = self.retry_policy
        breaker = policy.breaker
        attempts = 0
        while True:
            # Gossip already evicted the serving machine: skip the doomed
            # call (and the breaker, which only counts attempts made).
            failure = None
            if self.membership is not None:
                failure = gossip_evicted(self, rep.door)
            if failure is None:
                if breaker is not None:
                    gate = breaker.allow(rep.name, kernel.clock.now_us)
                    if gate == "open":
                        raise BreakerOpenError(
                            f"reconnectable: circuit open for {rep.name!r}; "
                            f"failing fast until the cooldown elapses"
                        )
                    if gate == "half_open" and tracer.enabled:
                        tracer.event("retry.breaker_probe", subcontract=self.id)
                try:
                    reply = kernel.door_call(self.domain, rep.door, buffer)
                    if breaker is not None:
                        healed = breaker.record_success(rep.name)
                        if healed is not None and tracer.enabled:
                            tracer.event("retry.breaker_closed", subcontract=self.id)
                    if tracer.enabled:
                        tracer.annotate(retries=attempts)
                    return reply
                except (CommunicationError, InvalidDoorError) as exc:
                    failure = exc
            verdict = failure_verdict(failure)
            if verdict is SPENT:
                raise failure  # an exceeded deadline cannot be retried away
            # Busy is not dead: the server is healthy, so don't count it
            # against the breaker and don't re-resolve — just back off (no
            # shorter than its retry_after_us hint).  Dead or evicted: back
            # off, then re-resolve to whatever replacement the name now binds.
            if breaker is not None and verdict is DEAD:
                tripped = breaker.record_failure(rep.name, kernel.clock.now_us)
                if tripped is not None and tracer.enabled:
                    tracer.event("retry.breaker_open", subcontract=self.id)
            attempts += 1
            if attempts > policy.max_attempts:
                why = (
                    f" (machine {failure.member!r} evicted at incarnation "
                    f"{failure.incarnation})"
                    if verdict is EVICTED
                    else ""
                )
                raise CommunicationError(
                    f"reconnectable: gave up re-resolving {rep.name!r} "
                    f"after {policy.max_attempts} attempts{why}"
                ) from failure
            wait_us = policy.backoff_us(
                attempts, floor_us=policy.retry_after_us(failure)
            )
            if tracer.enabled:
                if verdict is EVICTED:
                    tracer.event(
                        "reconnect.evicted",
                        subcontract=self.id,
                        member=failure.member,
                        incarnation=failure.incarnation,
                        attempt=attempts,
                        backoff_us=wait_us,
                    )
                else:
                    tracer.event(
                        "reconnect.busy_backoff"
                        if verdict is BUSY
                        else "reconnect.retry",
                        subcontract=self.id,
                        attempt=attempts,
                        error=type(failure).__name__,
                        backoff_us=wait_us,
                    )
            kernel.clock.advance(wait_us, "retry_backoff")
            if verdict is not BUSY:
                self._reconnect(rep)

    def _reconnect(self, rep: ReconnectableRep) -> None:
        """Resolve the object name to obtain a new object, adopting its
        door; a failed resolve leaves the rep unchanged for the next
        periodic retry."""
        naming = self.domain.locals.get("naming_root")
        if naming is None:
            raise SubcontractError(
                f"domain {self.domain.name!r} has no naming context "
                f"(domain.locals['naming_root']); reconnectable objects "
                f"cannot recover without one"
            )
        try:
            fresh = naming.resolve(rep.name)
        except Exception:
            return  # name still unbound; retry later
        if not isinstance(fresh, SpringObject) or not isinstance(
            fresh._rep, ReconnectableRep
        ):
            # The name was rebound to something that is not a
            # reconnectable object; we cannot adopt it.
            if isinstance(fresh, SpringObject):
                fresh.spring_consume()
            return
        old_door = rep.door
        rep.door = fresh._rep.door
        fresh._mark_consumed()  # we absorbed its representation
        quiet_delete(self.domain, old_door)


class ReconnectableServer(SingleDoorServer):
    """Server-side reconnectable machinery.

    ``export`` creates the door and *binds* a reconnectable object under
    the given name in the naming context, so clients can re-resolve it
    after a crash.  A restarted server calls ``export`` again with the
    same name; the rebind replaces the stale object.
    """

    id = "reconnectable"

    def export(
        self,
        impl: Any,
        binding: "InterfaceBinding",
        name: str = "",
        unreferenced: Callable[[Any], None] | None = None,
        dedup: "DedupMemo | None" = None,
        **options: Any,
    ) -> SpringObject:
        if not name:
            raise TypeError("reconnectable export requires a stable object name")
        naming = self.domain.locals.get("naming_root")
        if naming is None:
            raise SubcontractError(
                f"domain {self.domain.name!r} has no naming context; "
                f"reconnectable servers must be able to (re)bind their name"
            )
        # A reconnectable export is by definition retried by its clients,
        # so every one gets an idempotency-key dedup memo in front of the
        # skeleton: a retry after a lost reply replays the recorded reply
        # instead of re-executing.  Pass ``dedup`` to share a memo across
        # incarnations (durable services back it with stable storage).
        # The memo and the name of this export, for the two hooks below.
        self.dedup = DedupMemo() if dedup is None else dedup
        self.name = name
        obj = super().export(impl, binding, unreferenced, **options)
        naming.rebind(name, obj.spring_copy())
        return obj

    def wrap_handler(
        self, inner: "DoorHandler", impl: Any, binding: "InterfaceBinding"
    ) -> "DoorHandler":
        return wrap_idempotent(self.domain, inner, self.dedup)

    def make_rep(
        self, door_id: "DoorIdentifier", binding: "InterfaceBinding"
    ) -> ReconnectableRep:
        return ReconnectableRep(door_id, self.name)
