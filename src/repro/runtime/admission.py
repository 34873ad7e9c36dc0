"""Admission control: concurrency limits, bounded door queues, shedding.

Until this module a burst of callers drove every door at unbounded
concurrency: nothing in the nucleus could say *busy*, so overload either
blew deadlines or degenerated the sim.  An :class:`AdmissionController`
installed on the kernel (``Environment.install_admission``) gives a door
the server side of the PR-4 failure contract:

* a **concurrency limit** — up to ``limit`` calls are served at once
  (tracked as a virtual multi-server occupancy on the simulated clock);
* a **bounded FIFO wait queue** — calls over the limit wait their turn,
  charging ``admission_wait`` simulated time; calls over ``queue_limit``
  are shed immediately;
* **deadline-aware shedding** — a queued call whose call-context
  deadline would already be spent before it could reach the front
  is shed on arrival (serve what can still succeed, never what cannot);
* an optional **adaptive mode** — AIMD on observed queue delay,
  CoDel-style: while the per-window minimum delay stays under
  ``target_delay_us`` the limit is raised additively; when it exceeds
  the target the limit is cut multiplicatively.

Shed calls raise :class:`~repro.kernel.errors.ServerBusyError` — a
*retryable* communication failure carrying a seeded-jitter
``retry_after_us`` hint that :class:`~repro.runtime.retry.RetryPolicy`
honours as its next backoff floor.  Busy is not dead: reconnectable
backs off without tripping its breaker, replicon diverts to the
least-loaded replica without pruning, caching serves a stale local copy
(see each subcontract module).

Overload itself is produced by the seeded open-loop burst generator in
:mod:`repro.runtime.chaos` (:class:`~repro.runtime.chaos.OpenLoopBurst`):
*phantom* arrivals — exponential interarrivals and service demands drawn
from their own ``random.Random(seed)`` — occupy the same virtual
occupancy the real calls are admitted against, so a single-threaded
simulated workload experiences genuine queueing and shedding, and every
run replays bit-for-bit from its seed.

Enforcement sits in one place, the gate seam of ``Kernel.incoming`` —
the leg every call arrives on, whether from the local door-call tail,
the fabric's carry, or a worker process — so local and cross-machine
calls are governed identically, and a cross-machine call is admitted
once, on the serving machine.  Uninstalled, the controller is not in
the seam and costs not one simulated nanosecond; installed, an
*ungoverned* door resolves to ``None`` once and is cached, so only
doors with a policy pay anything.

Everything is observable: ``admission.queued`` / ``admission.shed`` /
``admission.rejected`` span events and queue-depth / wait histograms
under the ``admission`` metrics scope, plus plain counters on
:attr:`AdmissionController.stats` for untraced runs.
"""

from __future__ import annotations

import heapq
import random
import threading
from typing import TYPE_CHECKING, Callable

from repro.kernel.errors import ServerBusyError
from repro.marshal.context import DEADLINE
from repro.runtime import tsan as _tsan

if TYPE_CHECKING:
    from repro.kernel.domain import Domain
    from repro.kernel.doors import Door, DoorIdentifier
    from repro.kernel.nucleus import Kernel
    from repro.runtime.chaos import OpenLoopBurst

__all__ = [
    "AdmissionPolicy",
    "AdmissionController",
    "install_admission",
    "uninstall_admission",
    "QUEUE_DEPTH_BUCKETS",
    "QUEUE_WAIT_BUCKETS_US",
]

#: queue-depth histogram bounds (calls waiting, not in service)
QUEUE_DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: queue-wait histogram bounds (simulated microseconds)
QUEUE_WAIT_BUCKETS_US = (
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0,
)

#: EWMA weight for measured service times (feeds occupancy projections)
_SERVICE_EWMA_ALPHA = 0.2


class AdmissionPolicy:
    """The admission discipline for one door (or one domain's doors).

    ``queue_limit=None`` means an unbounded wait queue and
    ``deadline_aware=False`` disables the serve-what-can-still-succeed
    rule — together they are the "shedding off" configuration the P5
    goodput bench compares against (every call queues, however hopeless).
    """

    __slots__ = (
        "limit",
        "queue_limit",
        "deadline_aware",
        "service_estimate_us",
        "retry_jitter",
        "adaptive",
        "target_delay_us",
        "interval_us",
        "min_limit",
        "max_limit",
        "increase",
        "decrease",
    )

    def __init__(
        self,
        limit: int,
        queue_limit: int | None = 8,
        deadline_aware: bool = True,
        service_estimate_us: float = 200.0,
        retry_jitter: float = 0.25,
        adaptive: bool = False,
        target_delay_us: float = 500.0,
        interval_us: float = 10_000.0,
        min_limit: int = 1,
        max_limit: int = 64,
        increase: int = 1,
        decrease: float = 0.5,
    ) -> None:
        if limit < 1:
            raise ValueError("concurrency limit must be >= 1")
        if queue_limit is not None and queue_limit < 0:
            raise ValueError("queue_limit must be >= 0 (or None for unbounded)")
        if service_estimate_us <= 0:
            raise ValueError("service_estimate_us must be > 0")
        if not 0.0 <= retry_jitter < 1.0:
            raise ValueError("retry_jitter must be in [0, 1)")
        if adaptive:
            if not 1 <= min_limit <= max_limit:
                raise ValueError("need 1 <= min_limit <= max_limit")
            if increase < 1:
                raise ValueError("additive increase must be >= 1")
            if not 0.0 < decrease < 1.0:
                raise ValueError("multiplicative decrease must be in (0, 1)")
            if interval_us <= 0 or target_delay_us < 0:
                raise ValueError("adaptive window knobs must be positive")
        self.limit = limit
        self.queue_limit = queue_limit
        self.deadline_aware = deadline_aware
        self.service_estimate_us = service_estimate_us
        self.retry_jitter = retry_jitter
        self.adaptive = adaptive
        self.target_delay_us = target_delay_us
        self.interval_us = interval_us
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.increase = increase
        self.decrease = decrease

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = "inf" if self.queue_limit is None else self.queue_limit
        mode = "adaptive" if self.adaptive else "fixed"
        return f"<AdmissionPolicy limit={self.limit} queue={bound} {mode}>"


class _DoorState:
    """Per-governed-door occupancy: a virtual FIFO multi-server queue.

    ``server_free`` is a min-heap of the virtual servers' next-free
    times (materialised lazily up to the current limit); ``queued_starts``
    is a min-heap of the start times of admitted-but-not-yet-started
    calls, so the live queue depth is its length after pruning.  Both
    real calls and phantom burst arrivals pass through the same
    bookkeeping, in arrival order, which is what makes the FIFO model
    exact and the replay deterministic.
    """

    __slots__ = (
        "door",
        "policy",
        "limit",
        "server_free",
        "queued_starts",
        "ewma_service_us",
        "window_start_us",
        "window_min_wait_us",
        "bursts",
        "admitted",
        "queued",
        "shed",
        "rejected",
        "phantom_admitted",
        "phantom_shed",
        "phantom_rejected",
    )

    def __init__(self, door: "Door", policy: AdmissionPolicy) -> None:
        self.door = door
        self.policy = policy
        self.limit = policy.limit
        self.server_free: list[float] = []
        self.queued_starts: list[float] = []
        self.ewma_service_us = policy.service_estimate_us
        self.window_start_us: float | None = None
        self.window_min_wait_us = 0.0
        self.bursts: list["OpenLoopBurst"] = []
        self.admitted = 0
        self.queued = 0
        self.shed = 0
        self.rejected = 0
        self.phantom_admitted = 0
        self.phantom_shed = 0
        self.phantom_rejected = 0

    def snapshot(self) -> dict:
        return {
            "door": self.door.uid,
            "label": self.door.label,
            "limit": self.limit,
            "admitted": self.admitted,
            "queued": self.queued,
            "shed": self.shed,
            "rejected": self.rejected,
            "phantom_admitted": self.phantom_admitted,
            "phantom_shed": self.phantom_shed,
            "phantom_rejected": self.phantom_rejected,
        }


class AdmissionController:
    """Per-domain / per-door admission control for one kernel.

    Policies attach at two granularities: :meth:`govern` pins a policy to
    one door; :meth:`govern_domain` covers every door a domain serves
    (resolved lazily, per door, on its first governed call).  Doors with
    neither stay ungoverned and cost one cached dictionary miss, ever.
    """

    rank = 40  # a gate of lower rank refuses before a slot is taken here

    def __init__(self, kernel: "Kernel", seed: int = 0) -> None:
        self.kernel = kernel
        self.seed = seed
        #: jitters retry_after_us hints only — consumed once per real shed,
        #: so replays are bit-for-bit per seed and workload
        self.rng = random.Random(seed)
        self._door_policies: dict[int, AdmissionPolicy] = {}
        self._domain_policies: dict[int, AdmissionPolicy] = {}
        #: door uid -> _DoorState, or None for cached "ungoverned"
        self._states: dict[int, _DoorState | None] = {}
        # Serializes the occupancy model (heaps, counters, EWMA, rng)
        # against concurrent caller threads.  Only governed doors take
        # it: the ungoverned fast path stays a lock-free cached dict
        # read, so admission-free hot paths keep their wall parity.
        self._gate_lock = _tsan.instrument_lock(
            threading.Lock(), "AdmissionController._gate_lock"
        )
        #: controller-wide counters (real calls and phantoms separately)
        self.stats: dict[str, int] = _tsan.track(
            {
                "admitted": 0,
                "queued": 0,
                "shed": 0,
                "rejected": 0,
                "phantom_admitted": 0,
                "phantom_shed": 0,
                "phantom_rejected": 0,
            },
            "admission.stats",
        )

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    def govern(
        self, door: "Door | DoorIdentifier", policy: AdmissionPolicy
    ) -> AdmissionPolicy:
        """Attach an admission policy to one door."""
        door = _as_door(door)
        with self._gate_lock:
            self._door_policies[door.uid] = policy
            self._states.pop(door.uid, None)  # drop any cached "ungoverned"
        return policy

    def govern_domain(self, domain: "Domain", policy: AdmissionPolicy) -> AdmissionPolicy:
        """Attach an admission policy to every door ``domain`` serves."""
        with self._gate_lock:
            self._domain_policies[domain.uid] = policy
            self._states.clear()  # re-resolve lazily under the new coverage
        return policy

    def _resolve(self, door: "Door") -> "_DoorState | None":
        """Resolve a door's state; call with ``_gate_lock`` held.

        Re-checks the cache under the lock so two threads racing on a
        door's first governed call share one occupancy model instead of
        splitting its bookkeeping across two.
        """
        if door.uid in self._states:
            return self._states[door.uid]
        policy = self._door_policies.get(door.uid)
        if policy is None:
            policy = self._domain_policies.get(door.server.uid)
        state = _DoorState(door, policy) if policy is not None else None
        self._states[door.uid] = state
        return state

    # ------------------------------------------------------------------
    # the gate (the incoming leg's gate seam)
    # ------------------------------------------------------------------

    def around_gate(self, inner: Callable) -> Callable:
        """Gate seam: admit before the traversal is charged; a permitted
        call completes however it ends."""

        def gate(door, buffer):
            permit = self.admit(door, buffer)
            try:
                return inner(door, buffer)
            finally:
                if permit is not None:
                    self.complete(permit)

        return gate

    def admit(self, door: "Door", buffer) -> "tuple[_DoorState, float] | None":
        """Admit one real call to ``door``; the gate seam calls this.

        Returns an opaque permit to hand back to :meth:`complete` (or
        ``None`` when the door is ungoverned), charges any queueing wait
        as ``admission_wait`` simulated time, and raises
        :class:`ServerBusyError` when the call is shed.
        """
        try:
            state = self._states[door.uid]
        except KeyError:
            with self._gate_lock:
                state = self._resolve(door)
        if state is None:
            return None
        clock = self.kernel.clock
        tracer = self.kernel.tracer
        with self._gate_lock:
            now = clock.now_us
            if state.bursts:
                self._pump_bursts(state, now)
            ctx = buffer.ctx
            deadline = ctx.get(DEADLINE) if ctx is not None else None
            wait, depth = self._assess(state, now, deadline)
            self._commit(state, now, wait)
            if wait > 0.0:
                state.queued += 1
                self.stats["queued"] += 1
                clock.advance(wait, "admission_wait")
                if tracer.enabled:
                    tracer.event(
                        "admission.queued",
                        subcontract="admission",
                        door=door.uid,
                        wait_us=round(wait, 2),
                        depth=depth,
                    )
            state.admitted += 1
            self.stats["admitted"] += 1
            if tracer.enabled:
                metrics = tracer.metrics
                metrics.histogram(
                    "admission", "queue_depth", QUEUE_DEPTH_BUCKETS
                ).observe(float(depth))
                metrics.histogram(
                    "admission", "queue_wait_us", QUEUE_WAIT_BUCKETS_US
                ).observe(wait)
                windows = tracer.windows
                if windows is not None:
                    # queue depth has no *_us suffix, so the generic
                    # event feed would not sketch it; feed it directly.
                    clock.charge("window_probe")
                    windows.observe(
                        "admission", "queue_depth", float(depth), clock.now_us
                    )
            return (state, clock.now_us)

    def complete(self, permit: "tuple[_DoorState, float]") -> None:
        """Report a permitted call finished; feeds the service-time EWMA."""
        state, started_us = permit
        measured = self.kernel.clock.now_us - started_us
        if measured > 0.0:
            with self._gate_lock:
                state.ewma_service_us += _SERVICE_EWMA_ALPHA * (
                    measured - state.ewma_service_us
                )

    # ------------------------------------------------------------------
    # the FIFO multi-server model (shared by real calls and phantoms)
    # ------------------------------------------------------------------

    def _assess(
        self, state: _DoorState, now: float, deadline_us: float | None
    ) -> tuple[float, int]:
        """Decide one real arrival: (wait_us, queue_depth) or raise busy."""
        free = state.server_free
        while len(free) < state.limit:
            heapq.heappush(free, now)  # materialise an idle virtual server
        earliest = free[0]
        if earliest <= now:
            return 0.0, self._queue_depth(state, now)
        depth = self._queue_depth(state, now)
        policy = state.policy
        if policy.queue_limit is not None and depth >= policy.queue_limit:
            self._shed(state, now, depth, "queue")
        if (
            policy.deadline_aware
            and deadline_us is not None
            and earliest >= deadline_us
        ):
            self._reject(state, now, earliest, deadline_us)
        return earliest - now, depth + 1

    def _commit(self, state: _DoorState, now: float, wait: float) -> None:
        """Book the admitted arrival into the occupancy model."""
        start = now + wait
        heapq.heapreplace(state.server_free, start + state.ewma_service_us)
        if wait > 0.0:
            heapq.heappush(state.queued_starts, start)
        if state.policy.adaptive:
            self._adapt(state, now, wait)

    def _queue_depth(self, state: _DoorState, now: float) -> int:
        starts = state.queued_starts
        while starts and starts[0] <= now:
            heapq.heappop(starts)
        return len(starts)

    def _shed(self, state: _DoorState, now: float, depth: int, kind: str) -> None:
        state.shed += 1
        self.stats["shed"] += 1
        retry_after = self._retry_after(state, now)
        self._event(
            "admission.shed",
            door=state.door.uid,
            depth=depth,
            retry_after_us=round(retry_after, 2),
        )
        raise ServerBusyError(
            f"door #{state.door.uid} shed the call: wait queue full "
            f"({depth} waiting, bound {state.policy.queue_limit}, "
            f"limit {state.limit})",
            retry_after_us=retry_after,
        )

    def _reject(
        self, state: _DoorState, now: float, start: float, deadline_us: float
    ) -> None:
        state.rejected += 1
        self.stats["rejected"] += 1
        retry_after = self._retry_after(state, now)
        self._event(
            "admission.rejected",
            door=state.door.uid,
            wait_us=round(start - now, 2),
            over_budget_us=round(start - deadline_us, 2),
        )
        raise ServerBusyError(
            f"door #{state.door.uid} shed the call: its deadline would be "
            f"spent {start - deadline_us:.1f} us before it reached the "
            f"front of the queue",
            retry_after_us=retry_after,
        )

    def _retry_after(self, state: _DoorState, now: float) -> float:
        """When to come back: the earliest virtual-server free time, with
        seeded jitter so shed callers do not return in lockstep."""
        free = state.server_free
        base = free[0] - now if free and free[0] > now else state.ewma_service_us
        jitter = state.policy.retry_jitter
        if jitter:
            base *= 1.0 + jitter * self.rng.random()
        return base

    def _adapt(self, state: _DoorState, now: float, wait: float) -> None:
        """CoDel-style AIMD: track the per-window *minimum* queue delay;
        raise the limit additively while it stays under target, cut it
        multiplicatively the moment a whole window stays over."""
        if state.window_start_us is None:
            state.window_start_us = now
            state.window_min_wait_us = wait
            return
        if wait < state.window_min_wait_us:
            state.window_min_wait_us = wait
        policy = state.policy
        if now - state.window_start_us < policy.interval_us:
            return
        before = state.limit
        if state.window_min_wait_us > policy.target_delay_us:
            state.limit = max(policy.min_limit, int(state.limit * policy.decrease))
        else:
            state.limit = min(policy.max_limit, state.limit + policy.increase)
        if state.limit < len(state.server_free):
            # A cut retires the latest-free virtual servers.
            free = sorted(state.server_free)[: state.limit]
            heapq.heapify(free)
            state.server_free = free
        state.window_start_us = None
        if state.limit != before:
            self._event(
                "admission.adapt",
                door=state.door.uid,
                limit=state.limit,
                was=before,
                min_wait_us=round(state.window_min_wait_us, 2),
            )

    # ------------------------------------------------------------------
    # phantom load (the chaos burst generator feeds these)
    # ------------------------------------------------------------------

    def attach_burst(self, burst: "OpenLoopBurst") -> None:
        """Drive a door's occupancy from a seeded open-loop burst.

        Phantom arrivals are folded in lazily, in arrival order, whenever
        the door is consulted — they never advance the clock themselves.
        """
        with self._gate_lock:
            state = self._resolve(burst.door)
            if state is None:
                raise ValueError(
                    f"door #{burst.door.uid} has no admission policy; govern "
                    f"it before attaching a burst"
                )
            state.bursts.append(burst)

    def _pump_bursts(self, state: _DoorState, now: float) -> None:
        bursts = state.bursts
        while True:
            best = None
            for burst in bursts:
                at = burst.next_at_us
                if at is not None and at <= now and (
                    best is None or at < best.next_at_us
                ):
                    best = burst
            if best is None:
                return
            arrival_us, service_us = best.take()
            self._phantom(state, arrival_us, service_us)

    def _phantom(self, state: _DoorState, at: float, service_us: float) -> None:
        """One phantom arrival: same FIFO bookkeeping, no clock charges,
        no exceptions — sheds are counted, not raised."""
        free = state.server_free
        while len(free) < state.limit:
            heapq.heappush(free, at)
        earliest = free[0]
        policy = state.policy
        wait = 0.0
        if earliest > at:
            depth = self._queue_depth(state, at)
            if policy.queue_limit is not None and depth >= policy.queue_limit:
                state.phantom_shed += 1
                self.stats["phantom_shed"] += 1
                return
            wait = earliest - at
            # Phantom patience applies in every policy mode: an open-loop
            # caller never waits forever, and without this bound a
            # saturating burst feeds back into the clock (every real wait
            # leaps time, every leap spawns more phantoms) without limit.
            if wait > _PHANTOM_PATIENCE_US:
                state.phantom_rejected += 1
                self.stats["phantom_rejected"] += 1
                return
        start = at + wait
        heapq.heapreplace(free, start + service_us)
        if wait > 0.0:
            heapq.heappush(state.queued_starts, start)
        state.phantom_admitted += 1
        self.stats["phantom_admitted"] += 1
        state.ewma_service_us += _SERVICE_EWMA_ALPHA * (
            service_us - state.ewma_service_us
        )
        if policy.adaptive:
            self._adapt(state, at, wait)

    # ------------------------------------------------------------------
    # introspection (degradation hooks, tests, benches)
    # ------------------------------------------------------------------

    def projected_wait_us(self, door: "Door | DoorIdentifier") -> float:
        """The queueing wait a call to ``door`` would see right now.

        ``0.0`` for ungoverned (or idle) doors, ``inf`` when the call
        would be shed outright — which is what lets replicon pick the
        least-loaded replica without attempting the call.
        """
        door = _as_door(door)
        try:
            state = self._states[door.uid]
        except KeyError:
            with self._gate_lock:
                state = self._resolve(door)
        if state is None:
            return 0.0
        with self._gate_lock:
            now = self.kernel.clock.now_us
            if state.bursts:
                self._pump_bursts(state, now)
            free = state.server_free
            while len(free) < state.limit:
                heapq.heappush(free, now)
            earliest = free[0]
            if earliest <= now:
                return 0.0
            policy = state.policy
            if policy.queue_limit is not None:
                if self._queue_depth(state, now) >= policy.queue_limit:
                    return float("inf")
            return earliest - now

    def queue_depth(self, door: "Door | DoorIdentifier") -> int:
        """Calls currently waiting (admitted, not yet started) at ``door``."""
        door = _as_door(door)
        state = self._states.get(door.uid)
        if state is None:
            return 0
        with self._gate_lock:
            return self._queue_depth(state, self.kernel.clock.now_us)

    def door_snapshot(self, door: "Door | DoorIdentifier") -> dict | None:
        """Per-door counters, or ``None`` for ungoverned doors."""
        door = _as_door(door)
        state = self._states.get(door.uid)
        return state.snapshot() if state is not None else None

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _event(self, name: str, **detail) -> None:
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.event(name, subcontract="admission", **detail)  # springlint: disable=metrics-naming -- generic relay: literal names live at the emit sites

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        governed = sum(1 for s in self._states.values() if s is not None)
        return (
            f"<AdmissionController seed={self.seed} governed={governed}"
            f" stats={self.stats}>"
        )


#: phantom arrivals give up once their projected wait exceeds this —
#: the open-loop stand-in for a real caller's deadline budget
_PHANTOM_PATIENCE_US = 50_000.0


def _as_door(door: "Door | DoorIdentifier") -> "Door":
    inner = getattr(door, "door", None)
    return inner if inner is not None else door


def install_admission(kernel: "Kernel", seed: int = 0) -> AdmissionController:
    """Create an :class:`AdmissionController` and install it on ``kernel``."""
    controller = AdmissionController(kernel, seed=seed)
    kernel.admission = controller
    kernel.interpose(controller)
    return controller


def uninstall_admission(kernel: "Kernel") -> None:
    """Remove the controller; every door reverts to unbounded admission."""
    kernel.withdraw(kernel.admission)
    kernel.admission = None
