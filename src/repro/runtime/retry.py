"""The shared retry policy: backoff, budgets, and circuit breakers.

A :class:`RetryPolicy` is the one retry discipline the retrying
subcontracts (reconnectable, replicon, rawnet) and sagas share:

* **exponential backoff** — attempt *n* waits
  ``base_us * multiplier**(n-1)``, capped at ``max_backoff_us``;
* **seeded jitter** — an optional multiplicative spread drawn from the
  policy's own ``random.Random(seed)``, so two clients backing off from
  the same failure do not retry in lockstep, yet every run with the same
  seed replays the same waits (the chaos soak relies on this);
* **a retry budget** — ``max_attempts`` bounds the loop; exhaustion is
  the caller's cue to raise cleanly;
* **circuit-breaker state** — after ``breaker_threshold`` consecutive
  failures against one target the breaker *opens* and calls fail fast
  (:class:`BreakerOpenError`) until ``breaker_cooldown_us`` of simulated
  time has passed; the first call after cooldown is the *half-open*
  probe whose outcome closes or re-opens the circuit.

All waiting is simulated time on the kernel clock (``clock.advance``);
nothing sleeps.  :func:`failure_verdict` is the one taxonomy decision
every loop was making by hand — is the target *dead*, merely *busy*, is
the caller's deadline *spent*, or did gossip already *evict* the target —
and :meth:`RetryPolicy.retryable` is a view of it.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Hashable

from repro.kernel.errors import (
    CommunicationError,
    DeadlineExceeded,
    InvalidDoorError,
    ServerBusyError,
)

if TYPE_CHECKING:
    from repro.kernel.clock import SimClock

__all__ = [
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerOpenError",
    "MemberEvictedError",
    "failure_verdict",
]


class BreakerOpenError(CommunicationError):
    """The circuit breaker for this target is open: failing fast.

    Raised *instead of* attempting the call, so a client that has already
    watched a target fail repeatedly spends no further simulated time on
    it until the breaker's cooldown elapses.
    """


class MemberEvictedError(CommunicationError):
    """Gossip evicted the target's machine (at ``incarnation``): like
    :class:`BreakerOpenError`, raised *instead of* attempting a call the
    membership view already knows is doomed."""

    def __init__(self, subcontract_id: str, member: str, incarnation: int) -> None:
        super().__init__(
            f"{subcontract_id}: machine {member!r} was evicted from "
            f"membership (incarnation {incarnation})"
        )
        self.member = member
        self.incarnation = incarnation


#: the caller's deadline is spent and the target is not at fault:
#: re-raise, touch nothing
SPENT = "spent"
#: the target shed the call but is healthy: keep it, honour
#: ``retry_after_us``, never count it against a breaker
BUSY = "busy"
#: dead, learned from gossip without paying the call: as ``DEAD``, except
#: that no failed attempt exists to charge a breaker with
EVICTED = "evicted"
#: unreachable, or the door identifier is invalid: prune / re-resolve /
#: fall back
DEAD = "dead"


def failure_verdict(failure: BaseException) -> str | None:
    """What this failure says about the target it came from; ``None`` for
    anything that is not a target failure (surface it unchanged).

    Spent beats busy beats dead.  Which target to try *next* is each
    subcontract's own business; what a failure *means* is decided here.
    """
    if isinstance(failure, DeadlineExceeded):
        return SPENT
    if isinstance(failure, ServerBusyError):
        return BUSY
    if isinstance(failure, MemberEvictedError):
        return EVICTED
    if isinstance(failure, (CommunicationError, InvalidDoorError)):
        return DEAD
    return None


#: breaker states (kept as strings so traces read naturally)
_CLOSED = "closed"
_OPEN = "open"
_HALF_OPEN = "half_open"


class _BreakerEntry:
    __slots__ = ("state", "failures", "opened_at_us")

    def __init__(self) -> None:
        self.state = _CLOSED
        self.failures = 0
        self.opened_at_us = 0.0


class CircuitBreaker:
    """Per-target failure accounting with open/half-open/closed states.

    Targets are arbitrary hashable keys (a door uid, a ``(machine,
    port)`` endpoint, an object name).  The breaker never raises itself;
    callers ask :meth:`allow` before attempting and raise
    :class:`BreakerOpenError` on refusal, then report the attempt's
    outcome with :meth:`record_failure` / :meth:`record_success`.  State
    transitions are returned as strings (``"open"``, ``"half_open"``,
    ``"closed"``) so call sites can annotate them onto the active trace.
    """

    __slots__ = ("threshold", "cooldown_us", "_entries")

    def __init__(self, threshold: int, cooldown_us: float) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.cooldown_us = cooldown_us
        self._entries: dict[Hashable, _BreakerEntry] = {}

    def _entry(self, key: Hashable) -> _BreakerEntry:
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _BreakerEntry()
        return entry

    def state(self, key: Hashable) -> str:
        """The breaker state for ``key`` (``closed`` when never tripped)."""
        entry = self._entries.get(key)
        return entry.state if entry is not None else _CLOSED

    def allow(self, key: Hashable, now_us: float) -> str | None:
        """May a call proceed against ``key`` right now?

        Returns ``None`` (closed: proceed), ``"half_open"`` (cooldown
        elapsed: this call is the probe), or raises nothing — a refusal
        is signalled by the ``"open"`` return so the caller can raise
        :class:`BreakerOpenError` with its own context.
        """
        entry = self._entries.get(key)
        if entry is None or entry.state == _CLOSED:
            return None
        if entry.state == _OPEN:
            if now_us - entry.opened_at_us < self.cooldown_us:
                return _OPEN
            entry.state = _HALF_OPEN
            return _HALF_OPEN
        # Already half-open: one probe is in flight per cooldown window;
        # further calls keep probing (single-threaded sims reach here only
        # after a probe failed and re-opened, so treat it as a probe too).
        return _HALF_OPEN

    def record_failure(self, key: Hashable, now_us: float) -> str | None:
        """Count a failed attempt; returns ``"open"`` on a new trip."""
        entry = self._entry(key)
        entry.failures += 1
        if entry.state == _HALF_OPEN or entry.failures >= self.threshold:
            was_open = entry.state == _OPEN
            entry.state = _OPEN
            entry.opened_at_us = now_us
            return None if was_open else _OPEN
        return None

    def record_success(self, key: Hashable) -> str | None:
        """Count a success; returns ``"closed"`` when it heals the circuit."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        healed = entry.state != _CLOSED
        entry.state = _CLOSED
        entry.failures = 0
        return _CLOSED if healed else None


class RetryPolicy:
    """One retry discipline, shared by every retrying subcontract.

    The defaults are deliberately conservative: no jitter and no breaker,
    so a subcontract that swaps its flat constant for
    ``RetryPolicy(base_us=OLD_CONSTANT, multiplier=1.0)`` reproduces its
    historical waits bit-for-bit, and the knobs are opted into one at a
    time.
    """

    __slots__ = (
        "base_us",
        "multiplier",
        "max_backoff_us",
        "max_attempts",
        "jitter",
        "seed",
        "_rng",
        "breaker",
    )

    def __init__(
        self,
        base_us: float,
        multiplier: float = 2.0,
        max_backoff_us: float | None = None,
        max_attempts: int = 8,
        jitter: float = 0.0,
        seed: int = 0,
        breaker_threshold: int | None = None,
        breaker_cooldown_us: float = 1_000_000.0,
    ) -> None:
        if base_us < 0:
            raise ValueError("base_us must be >= 0")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.base_us = base_us
        self.multiplier = multiplier
        self.max_backoff_us = max_backoff_us
        self.max_attempts = max_attempts
        self.jitter = jitter
        self.seed = seed
        self._rng = random.Random(seed)
        self.breaker: CircuitBreaker | None = (
            CircuitBreaker(breaker_threshold, breaker_cooldown_us)
            if breaker_threshold is not None
            else None
        )

    def reseed(self, seed: int) -> None:
        """Rewind the jitter stream (replaying a recorded chaos run)."""
        self.seed = seed
        self._rng = random.Random(seed)

    def backoff_us(self, attempt: int, floor_us: float = 0.0) -> float:
        """The wait before retry ``attempt`` (1-based), jitter applied.

        ``floor_us`` is a server-supplied lower bound — the
        ``retry_after_us`` hint a :class:`ServerBusyError` carries.  It is
        applied *after* jitter: the server said capacity frees up no
        sooner than that, so no jitter draw may undercut it (jitter still
        spreads retries out above the floor through the hint's own
        server-side jitter).
        """
        if attempt < 1:
            raise ValueError("attempt numbering is 1-based")
        wait = self.base_us * self.multiplier ** (attempt - 1)
        if self.max_backoff_us is not None and wait > self.max_backoff_us:
            wait = self.max_backoff_us
        if self.jitter:
            wait *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        if wait < floor_us:
            wait = floor_us
        return wait

    def pause(
        self,
        clock: "SimClock",
        attempt: int,
        category: str = "retry_backoff",
        floor_us: float = 0.0,
        tracer: "Any | None" = None,
    ) -> float:
        """Charge the backoff for ``attempt`` to the clock; returns it.

        Pass the kernel's ``tracer`` to stamp a ``retry.backoff`` event
        (with ``backoff_us`` detail) onto the current span, which is how
        latency attribution separates backoff from service time.
        """
        wait = self.backoff_us(attempt, floor_us=floor_us)
        if wait > 0.0:
            if tracer is not None and tracer.enabled:
                tracer.event(
                    "retry.backoff",
                    subcontract="retry",
                    attempt=attempt,
                    backoff_us=round(wait, 2),
                )
            clock.advance(wait, category)
        return wait

    @staticmethod
    def retryable(failure: BaseException) -> bool:
        """Is this failure worth another attempt at the same target?  A
        view of :func:`failure_verdict`: any communication failure is
        unless its verdict is ``SPENT``; an invalid door is not (only a
        new target helps), nor is anything without a verdict."""
        return (
            isinstance(failure, CommunicationError)
            and failure_verdict(failure) is not SPENT
        )

    @staticmethod
    def retry_after_us(failure: BaseException) -> float:
        """The server's busy hint riding on ``failure``, else ``0.0``.

        Feed the result to :meth:`backoff_us` / :meth:`pause` as
        ``floor_us`` so the next wait honours the server's own estimate
        of when capacity frees up.
        """
        return getattr(failure, "retry_after_us", 0.0)

    def derive(self, **overrides: Any) -> "RetryPolicy":
        """A copy of this policy with some knobs replaced (fresh rng)."""
        kwargs: dict[str, Any] = {
            "base_us": self.base_us,
            "multiplier": self.multiplier,
            "max_backoff_us": self.max_backoff_us,
            "max_attempts": self.max_attempts,
            "jitter": self.jitter,
            "seed": self.seed,
        }
        if self.breaker is not None:
            kwargs["breaker_threshold"] = self.breaker.threshold
            kwargs["breaker_cooldown_us"] = self.breaker.cooldown_us
        kwargs.update(overrides)
        return RetryPolicy(**kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RetryPolicy base={self.base_us}us x{self.multiplier}"
            f" attempts={self.max_attempts} jitter={self.jitter}"
            f" breaker={'on' if self.breaker is not None else 'off'}>"
        )
