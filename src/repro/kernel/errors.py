"""Kernel error hierarchy.

The Spring nucleus reports door failures to callers so that subcontracts
can react: replicon prunes a dead replica on a communication error,
reconnectable re-resolves its object name when a door has gone away, and
ordinary subcontracts surface the failure to the application.  The error
taxonomy below mirrors the distinctions those subcontracts rely on.
"""

from __future__ import annotations

__all__ = [
    "KernelError",
    "InvalidDoorError",
    "DoorRevokedError",
    "DoorAccessError",
    "DomainCrashedError",
    "CommunicationError",
    "NetworkPartitionError",
    "ServerDiedError",
    "ServerBusyError",
    "DeadlineExceeded",
]


class KernelError(Exception):
    """Base class for all errors raised by the Spring nucleus emulation."""


class InvalidDoorError(KernelError):
    """A door identifier does not name any live door.

    Raised when an identifier was deleted, never issued, or belongs to a
    door whose server domain has been destroyed.
    """


class DoorRevokedError(InvalidDoorError):
    """The server explicitly revoked the door (Section 5.2.3).

    Revocation invalidates every outstanding identifier at once; clients
    discover it on their next invocation.
    """


class DoorAccessError(KernelError):
    """A domain used a door identifier it does not own.

    Door identifiers function as software capabilities: only the
    legitimate owner of an identifier may issue a call on its door
    (Section 3.3).  Attempting to use another domain's identifier is a
    protection violation, not a communication failure.
    """


class DomainCrashedError(KernelError):
    """An operation was attempted by or on a crashed domain."""


class CommunicationError(KernelError):
    """A call could not reach the target door.

    This is the failure subcontracts treat as 'the replica/server is
    unreachable' — replicon prunes the target, reconnectable begins its
    recovery protocol.
    """


class NetworkPartitionError(CommunicationError):
    """The network fabric refused to carry the call between two machines."""


class ServerDiedError(CommunicationError):
    """The server domain crashed while (or before) handling the call."""


class ServerBusyError(CommunicationError):
    """The server shed the call under overload (admission control).

    Raised by the :class:`~repro.runtime.admission.AdmissionController`
    when a door's bounded wait queue is full, or when the call's stamped
    deadline would be spent before it could reach the front.  Busy is
    *not* dead: the call never ran, the server is healthy, and the error
    is retryable.  ``retry_after_us`` carries the server's seeded-jitter
    hint of when capacity should free up; retry policies honour it as
    the floor of their next backoff, and circuit breakers must not count
    it as a failure.
    """

    def __init__(self, message: str, retry_after_us: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_us = retry_after_us


class DeadlineExceeded(CommunicationError):
    """The call's deadline expired before it completed.

    A deadline installed with :func:`repro.runtime.deadline.deadline`
    travels in the call context and is enforced at the door, fabric,
    network-server and process-fabric legs.  It is a communication
    failure — the server may or may not have executed the operation — but
    retry policies treat it as *non-retryable*: the caller's time budget
    is spent, so retrying would only dishonour the deadline further.
    """
