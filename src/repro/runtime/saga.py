"""Sagas: multi-object workflows that are safe to retry end-to-end.

The retry taxonomy (:mod:`repro.runtime.retry`) makes single calls safe
to retry and the idempotency-key layer (:mod:`repro.runtime.idem`) makes
them safe even after a lost reply — but a workflow touching *several*
objects can still die between calls, leaving the first update applied
and the second not.  A saga closes that gap the way Section 8.4's
transactions do at the subcontract level: forward through the steps,
and if the workflow cannot finish, run each completed step's registered
*compensation* in reverse.

Exactly-once is the composition of three mechanisms:

* every step runs under one idempotency key held across all its
  attempts, so the step's effect lands at most once no matter how many
  retries the fault plane forces;
* every step journals its intent and completion synchronously through
  the machine's :class:`~repro.services.stable.StableStore` (each write
  charged ``STABLE_WRITE_US``), so a coordinator crash cannot forget
  which effects exist;
* :meth:`SagaCoordinator.recover` scans the journal after a crash and
  replays the compensations of every saga that never reached its ``end``
  record — the "quietly recover from server crashes" stance of
  Section 8.3, applied to workflows.

Journal wire format (one :class:`StableStore` record set per
coordinator, ``saga:<name>``; keys sort in execution order)::

    <sid>.begin        -> saga label
    <sid>.<seq>.s      -> step label          (step started)
    <sid>.<seq>.d      -> compensation token  (step done; "!" if
                                               irreversible)
    <sid>.<seq>.c      -> ""                  (step compensated)
    <sid>.end          -> "committed" | "aborted"

``sid`` is ``%010d`` of the kernel-scoped saga id and ``seq`` is
``%04d`` of the step number, so a plain key sort replays history.

Each step should make **one** effectful door call (or several calls to
*distinct* doors): all calls in a step share the step's idempotency key,
and a server-side dedup memo keys replies by it, so two calls to the
same door inside one step would wrongly dedup each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.runtime.idem import idempotency_key, next_idempotency_key
from repro.runtime.retry import RetryPolicy
from repro.services.stable import STABLE_WRITE_US, stable_store_for

if TYPE_CHECKING:
    from repro.kernel.domain import Domain
    from repro.services.stable import StableStore

__all__ = ["SagaCoordinator", "Saga", "SagaAborted", "SagaUsageError"]

#: sentinel compensation token journalled for irreversible steps
IRREVERSIBLE = "!"

#: the saga's own retry discipline on top of each subcontract's: a step
#: whose subcontract-level retries were exhausted gets this many more
#: rounds before the saga gives up and compensates
DEFAULT_SAGA_POLICY = RetryPolicy(
    base_us=100_000.0, multiplier=2.0, max_attempts=3
)


class SagaUsageError(Exception):
    """The saga API was misused (e.g. a step with no compensation)."""


class SagaAborted(Exception):
    """The saga could not finish; completed steps were compensated.

    ``cause`` is the failure that stopped the forward path and
    ``uncompensated`` lists step labels whose compensation also failed —
    those remain journalled for :meth:`SagaCoordinator.recover`.
    """

    def __init__(
        self,
        saga_id: int,
        label: str,
        step: str,
        cause: BaseException,
        uncompensated: "tuple[str, ...]" = (),
    ) -> None:
        tail = (
            f"; compensation still pending for {list(uncompensated)}"
            if uncompensated
            else ""
        )
        super().__init__(
            f"saga {saga_id} ({label!r}) aborted at step {step!r}: "
            f"{type(cause).__name__}: {cause}{tail}"
        )
        self.saga_id = saga_id
        self.label = label
        self.step = step
        self.cause = cause
        self.uncompensated = uncompensated


class SagaCoordinator:
    """Runs sagas for one domain and owns their durable journal.

    The journal lives in the domain's machine's stable store (or an
    explicit ``store``), so it survives the domain — a replacement
    coordinator on the same machine recovers it by name.
    """

    def __init__(
        self,
        domain: "Domain",
        name: str = "saga",
        policy: "RetryPolicy | None" = None,
        store: "StableStore | None" = None,
    ) -> None:
        self.domain = domain
        self.name = name
        self.policy = policy if policy is not None else DEFAULT_SAGA_POLICY
        if store is None:
            machine = domain.machine
            if machine is None:
                raise SagaUsageError(
                    f"domain {domain.name!r} has no machine; pass an "
                    "explicit StableStore for the saga journal"
                )
            store = stable_store_for(machine)
        self.store = store
        self.record = f"saga:{name}"
        self.committed = 0
        self.aborted = 0
        self.recovered = 0

    # ------------------------------------------------------------------
    # journal
    # ------------------------------------------------------------------

    def _journal(self, key: str, value: str) -> None:
        # A write of its own, never part of an open write group: recovery
        # trusts a step's ".d" record only once it is on stable storage.
        self.store.write(((self.record, key, value),))
        tracer = self.domain.kernel.tracer
        if tracer.enabled:
            tracer.event(
                "saga.journal",
                subcontract="saga",
                key=key,
                write_us=STABLE_WRITE_US,
            )

    def journal_snapshot(self) -> dict[str, str]:
        """The journal's current records (free — no scan charge; tests
        and telemetry only, recovery uses the charged ``load``)."""
        return dict(self.store._records.get(self.record, {}))

    # ------------------------------------------------------------------
    # running sagas
    # ------------------------------------------------------------------

    def begin(self, label: str) -> "Saga":
        """Open a saga.  Use as a context manager: a clean exit commits,
        an exception compensates completed steps and re-raises."""
        saga = Saga(self, label)
        tracer = self.domain.kernel.tracer
        if tracer.enabled:
            tracer.event(
                "saga.begin", subcontract="saga", saga=saga.saga_id, label=label
            )
        self._journal(f"{saga.saga_id:010d}.begin", label)
        return saga

    def recover(
        self, compensators: "dict[str, Callable[[str], None]]"
    ) -> list[int]:
        """Compensate every journalled saga that never reached its end.

        ``compensators`` maps step labels to ``fn(comp_token)`` callables
        (the closures died with the crashed coordinator; recovery works
        from the journalled token instead).  Pays the recovery scan, then
        replays compensations newest-step-first per saga.  Returns the
        ids of the sagas it aborted.
        """
        journal = self.store.load(self.record)  # charged STABLE_SCAN_US
        kernel = self.domain.kernel
        tracer = kernel.tracer
        # Group journal keys by saga id; a plain key sort is history order.
        sagas: dict[int, dict[str, str]] = {}
        for key in sorted(journal):
            sid, _, rest = key.partition(".")
            sagas.setdefault(int(sid), {})[rest] = journal[key]
        aborted: list[int] = []
        for sid, entries in sagas.items():
            if "end" in entries:
                continue  # finished before the crash
            if tracer.enabled:
                tracer.event("saga.replay", subcontract="saga", saga=sid)
            # Steps that journalled done but not compensated, newest first.
            pending = [
                rest[: -len(".d")]
                for rest in sorted(entries)
                if rest.endswith(".d") and f"{rest[:-2]}.c" not in entries
            ]
            failed: list[str] = []
            for seq in reversed(pending):
                token = entries[f"{seq}.d"]
                label = entries.get(f"{seq}.s", "?")
                if token == IRREVERSIBLE:
                    continue
                fn = compensators.get(label)
                if fn is None:
                    raise SagaUsageError(
                        f"recovery of saga {sid} needs a compensator for "
                        f"step {label!r} and none was supplied"
                    )
                if self._compensate_one(sid, label, fn, token):
                    self._journal(f"{sid:010d}.{seq}.c", "")
                else:
                    failed.append(label)
            if failed:
                # Leave the saga open: a later recover() finishes the job.
                continue
            self._journal(f"{sid:010d}.end", "aborted")
            self.aborted += 1
            self.recovered += 1
            aborted.append(sid)
        return aborted

    def _compensate_one(
        self, sid: int, label: str, fn: Callable[..., Any], token: str
    ) -> bool:
        """Run one compensation under its own key + retry budget."""
        kernel = self.domain.kernel
        tracer = kernel.tracer
        policy = self.policy
        key = next_idempotency_key(kernel)
        if tracer.enabled:
            tracer.event(
                "saga.compensate", subcontract="saga", saga=sid, step=label
            )
        attempts = 0
        with idempotency_key(kernel, key):
            while True:
                try:
                    fn(token)
                    return True
                except Exception as failure:
                    attempts += 1
                    if (
                        not policy.retryable(failure)
                        or attempts >= policy.max_attempts
                    ):
                        if tracer.enabled:
                            tracer.event(
                                "saga.compensation_failed",
                                subcontract="saga",
                                saga=sid,
                                step=label,
                                error=type(failure).__name__,
                            )
                        return False
                    policy.pause(
                        kernel.clock,
                        attempts,
                        floor_us=policy.retry_after_us(failure),
                        tracer=tracer,
                    )


class Saga:
    """One running saga: forward steps, reverse compensations."""

    def __init__(self, coordinator: SagaCoordinator, label: str) -> None:
        self.coordinator = coordinator
        self.label = label
        self.saga_id = coordinator.domain.kernel.next_seq("saga")
        self.state = "active"  # active | committed | aborted
        #: completed steps as (seq, label, compensation, token) — the
        #: reverse path; irreversible steps record compensation=None
        self._done: list[tuple[int, str, "Callable[[str], None] | None", str]] = []
        self._seq = 0

    # -- context manager ------------------------------------------------

    def __enter__(self) -> "Saga":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is None:
            if self.state == "active":
                self.commit()
            return False
        if self.state == "active":
            if isinstance(exc, SagaAborted):
                return False  # a failed step already compensated
            self.abort(exc)
        return False

    # -- forward path ---------------------------------------------------

    def run(
        self,
        label: str,
        action: Callable[[], Any],
        compensation: "Callable[[str], None] | None" = None,
        comp_token: str = "",
        irreversible: bool = False,
    ) -> Any:
        """Run one step; returns the action's result.

        ``compensation`` is called with ``comp_token`` if a later step
        fails (or by :meth:`SagaCoordinator.recover` after a crash — the
        token is what the journal persists, so it must carry everything
        the compensation needs).  A step with no compensation must say so
        with ``irreversible=True``; springlint's ``compensation-
        discipline`` rule flags the silent omission.
        """
        if self.state != "active":
            raise SagaUsageError(f"saga {self.saga_id} is {self.state}")
        if compensation is None and not irreversible:
            raise SagaUsageError(
                f"step {label!r} has no compensation; register one or "
                "mark the step irreversible=True"
            )
        coord = self.coordinator
        kernel = coord.domain.kernel
        tracer = kernel.tracer
        policy = coord.policy
        self._seq += 1
        seq = self._seq
        coord._journal(f"{self.saga_id:010d}.{seq:04d}.s", label)
        key = next_idempotency_key(kernel)
        if tracer.enabled:
            tracer.event(
                "saga.step",
                subcontract="saga",
                saga=self.saga_id,
                step=label,
                seq=seq,
            )
        attempts = 0
        # One idempotency key across every attempt: the step is one
        # logical request, however many times the fault plane makes us
        # send it.
        with idempotency_key(kernel, key):
            while True:
                try:
                    result = action()
                    break
                except Exception as failure:
                    attempts += 1
                    if (
                        not policy.retryable(failure)
                        or attempts >= policy.max_attempts
                    ):
                        self.abort(failure, failed_step=label)
                        raise SagaAborted(
                            self.saga_id,
                            self.label,
                            label,
                            failure,
                            uncompensated=self._uncompensated,
                        ) from failure
                    if tracer.enabled:
                        tracer.event(
                            "saga.retry",
                            subcontract="saga",
                            saga=self.saga_id,
                            step=label,
                            attempt=attempts,
                        )
                    policy.pause(
                        kernel.clock,
                        attempts,
                        floor_us=policy.retry_after_us(failure),
                        tracer=tracer,
                    )
        coord._journal(
            f"{self.saga_id:010d}.{seq:04d}.d",
            IRREVERSIBLE if compensation is None else comp_token,
        )
        self._done.append((seq, label, compensation, comp_token))
        return result

    # -- outcomes -------------------------------------------------------

    def commit(self) -> None:
        """Mark the saga finished; its compensations will never run."""
        if self.state != "active":
            raise SagaUsageError(f"saga {self.saga_id} is {self.state}")
        coord = self.coordinator
        coord._journal(f"{self.saga_id:010d}.end", "committed")
        self.state = "committed"
        coord.committed += 1
        tracer = coord.domain.kernel.tracer
        if tracer.enabled:
            tracer.event("saga.commit", subcontract="saga", saga=self.saga_id)

    def abort(
        self, cause: "BaseException | None" = None, failed_step: str = ""
    ) -> None:
        """Compensate completed steps in reverse and close the saga."""
        if self.state != "active":
            raise SagaUsageError(f"saga {self.saga_id} is {self.state}")
        coord = self.coordinator
        tracer = coord.domain.kernel.tracer
        self._uncompensated: tuple[str, ...] = ()
        failed: list[str] = []
        fully = True
        for seq, label, compensation, token in reversed(self._done):
            if compensation is None:
                continue  # irreversible: nothing to undo
            if coord._compensate_one(self.saga_id, label, compensation, token):
                coord._journal(f"{self.saga_id:010d}.{seq:04d}.c", "")
            else:
                failed.append(label)
                fully = False
        self._uncompensated = tuple(failed)
        if fully:
            # Every effect undone: the journal can close.  Otherwise the
            # saga stays open for recover() to finish.
            coord._journal(f"{self.saga_id:010d}.end", "aborted")
        self.state = "aborted"
        coord.aborted += 1
        if tracer.enabled:
            tracer.event(
                "saga.abort",
                subcontract="saga",
                saga=self.saga_id,
                step=failed_step,
                error=type(cause).__name__ if cause is not None else "",
            )
