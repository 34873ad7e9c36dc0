"""The transact subcontract (Section 8.4, future directions).

"Another is to transfer control information for atomic transactions at
the subcontract level."

A client opens a transaction with :func:`begin_transaction`; while it is
open, every call the client makes on transact objects piggybacks the
transaction ID.  Server-side, the subcontract enlists the target
implementation as a participant with the coordinator before forwarding
the call.  Commit runs a two-phase protocol over the enlisted
implementations:

* ``txn_prepare(txn_id) -> bool`` — vote (absent method = vote yes);
* ``txn_commit(txn_id)`` / ``txn_rollback(txn_id)`` — outcome hooks.

Application code never mentions transactions in its IDL interfaces — the
context rides entirely in subcontract control space, which is the point
of the example.

Two-phase commit is the *atomic* face of this subcontract; the *durable,
retriable* face is the saga coordinator (:mod:`repro.runtime.saga`,
re-exported here): a workflow of door calls with registered
compensations, a stable-storage step journal, and automatic compensation
replay after a crash.  Use transactions when every participant shares
one coordinator and can hold its vote; use sagas when the workflow must
survive crashes, retries, and lost replies end-to-end (the coordinator
pairs with the idempotency-key dedup layer in
:mod:`repro.runtime.idem`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.errors import SubcontractError
from repro.core.object import SpringObject
from repro.marshal.buffer import MarshalBuffer
from repro.runtime.idem import DedupMemo, wrap_idempotent
from repro.runtime.saga import Saga, SagaAborted, SagaCoordinator
from repro.subcontracts.singleton import SingleDoorClient, SingleDoorServer

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.domain import Domain
    from repro.kernel.doors import DoorHandler

__all__ = [
    "TransactClient",
    "TransactServer",
    "TransactionCoordinator",
    "Transaction",
    "begin_transaction",
    "current_transaction",
    "SagaCoordinator",
    "Saga",
    "SagaAborted",
]

#: sentinel transaction ID meaning "no transaction"
NO_TXN = 0


class Transaction:
    """A client-side transaction handle."""

    def __init__(self, coordinator: "TransactionCoordinator", domain: "Domain") -> None:
        # Kernel-scoped, not process-global: seed-swept replays and
        # telemetry keys must see the same ids regardless of what other
        # worlds this process ran first (the cachemgr uid fix's twin).
        self.txn_id = domain.kernel.next_seq("txn")
        self.coordinator = coordinator
        self.domain = domain
        self.state = "active"  # active | committed | aborted

    def commit(self) -> bool:
        """Run two-phase commit; returns True when the commit succeeded."""
        self._finish()
        committed = self.coordinator.commit(self.txn_id)
        self.state = "committed" if committed else "aborted"
        return committed

    def abort(self) -> None:
        """Roll back every participant."""
        self._finish()
        self.coordinator.abort(self.txn_id)
        self.state = "aborted"

    def _finish(self) -> None:
        if self.state != "active":
            raise SubcontractError(f"transaction {self.txn_id} is {self.state}")
        if self.domain.locals.get("txn") is self:
            del self.domain.locals["txn"]


def begin_transaction(
    domain: "Domain", coordinator: "TransactionCoordinator"
) -> Transaction:
    """Open a transaction: until commit/abort, the domain's calls on
    transact objects carry its ID."""
    if domain.locals.get("txn") is not None:
        raise SubcontractError(
            f"domain {domain.name!r} already has an active transaction"
        )
    txn = Transaction(coordinator, domain)
    domain.locals["txn"] = txn
    return txn


def current_transaction(domain: "Domain") -> Transaction | None:
    """The domain's active transaction, or None."""
    return domain.locals.get("txn")


class TransactionCoordinator:
    """Tracks participants per transaction and drives two-phase commit.

    One coordinator is shared by the client and server sides of a
    deployment (in Spring this would itself be a service reached through
    doors; the protocol, not the transport, is what the subcontract
    example exercises).
    """

    def __init__(self) -> None:
        #: txn id -> enlisted implementation objects, in enlistment order
        self._participants: dict[int, list[Any]] = {}

    def enlist(self, txn_id: int, impl: Any) -> None:
        """Register an implementation as a participant in a transaction."""
        participants = self._participants.setdefault(txn_id, [])
        if impl not in participants:
            participants.append(impl)

    def participants(self, txn_id: int) -> tuple[Any, ...]:
        """The implementations enlisted in a transaction, in order."""
        return tuple(self._participants.get(txn_id, ()))

    def commit(self, txn_id: int) -> bool:
        """Run two-phase commit; True when every participant voted yes."""
        participants = self._participants.pop(txn_id, [])
        # Phase one: collect votes.
        for impl in participants:
            prepare = getattr(impl, "txn_prepare", None)
            if prepare is not None and not prepare(txn_id):
                self._rollback(txn_id, participants)
                return False
        # Phase two: commit everywhere.
        for impl in participants:
            commit = getattr(impl, "txn_commit", None)
            if commit is not None:
                commit(txn_id)
        return True

    def abort(self, txn_id: int) -> None:
        """Roll every participant back and forget the transaction."""
        participants = self._participants.pop(txn_id, [])
        self._rollback(txn_id, participants)

    @staticmethod
    def _rollback(txn_id: int, participants: list[Any]) -> None:
        for impl in participants:
            rollback = getattr(impl, "txn_rollback", None)
            if rollback is not None:
                rollback(txn_id)


class TransactClient(SingleDoorClient):
    """Client operations vector for the transact subcontract."""

    id = "transact"

    def invoke_preamble(self, obj: SpringObject, buffer: MarshalBuffer) -> None:
        txn = current_transaction(self.domain)
        buffer.put_int64(txn.txn_id if txn is not None else NO_TXN)


class TransactServer(SingleDoorServer):
    """Server-side transact machinery: enlist the implementation with the
    coordinator before forwarding the call."""

    id = "transact"

    def __init__(self, domain: Any, coordinator: TransactionCoordinator) -> None:
        super().__init__(domain)
        self.coordinator = coordinator

    def wrap_handler(
        self, inner: "DoorHandler", impl: Any, binding: "InterfaceBinding"
    ) -> "DoorHandler":
        def enlisting(request: MarshalBuffer) -> MarshalBuffer:
            txn_id = request.get_int64()
            if txn_id != NO_TXN:
                self.coordinator.enlist(txn_id, impl)
            return inner(request)

        # The dedup memo sits outside enlistment: a replayed request must
        # not enlist the participant a second time (the first execution
        # already did).
        self.dedup = DedupMemo()
        return wrap_idempotent(self.domain, enlisting, self.dedup)
