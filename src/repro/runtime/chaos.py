"""The deterministic fault plane: seeded chaos for the invocation path.

The paper's argument is that subcontracts let replication, caching, and
crash recovery be layered in without changing the base system — which
means the *recovery paths* are the product.  This module turns them into
tested, measurable behaviour: a :class:`FaultPlane` installed on the
kernel (``Environment.install_chaos``) injects faults at well-defined
interception points, all driven by one ``random.Random(seed)`` and the
simulated clock, so every run is bit-for-bit replayable — same seed,
same workload, same faults, same trace.

Fault vocabulary
----------------

* **link faults** (per machine pair, or a default for every link):
  ``drop`` / ``duplicate`` / ``reorder`` probabilities for datagrams,
  ``drop`` for fabric carries (request or reply leg — a dropped reply is
  recycled and reported lost, like a partition forming mid-call),
  a deterministic extra ``delay_us``, and ``latency_scale`` / ``jitter``
  multipliers applied to wire time;
* **door faults**: ``door_fault_rate`` raises a transient
  :class:`InjectedFault` (a ``CommunicationError``) before the call
  launches — the signal replicon prunes on and reconnectable retries on;
* **crash-mid-call**: ``crash_mid_call_rate`` (or the one-shot
  :meth:`FaultPlane.crash_mid_call_next`) crashes the server domain
  after it has consumed the request but before it replies, surfacing
  client-side as :class:`~repro.kernel.errors.ServerDiedError`;
* **scheduled actions**: :meth:`schedule`, :meth:`schedule_crash_domain`,
  and :meth:`schedule_crash_machine` fire at an absolute simulated time,
  pumped from the interception points — crash-and-restart scripts are
  plain callables.

Determinism contract
--------------------

One rng, consumed only at interception points, in workload order.  A
fault kind whose probability is 0 draws nothing, so enabling one knob
never perturbs the draw sequence of another.  Scheduled actions fire in
``(at_us, insertion order)`` order.  Single-threaded workloads therefore
replay exactly; the chaos soak asserts identical span sequences per seed.

Installed, the plane sits in the kernel's launch and handler seams
(``Kernel.interpose``); uninstalled, in neither, and only the fabric's
link model reads ``kernel.chaos`` (per carry leg, wire time, datagram).
A plane with every rate at zero charges exactly what no plane does
(gated by ``tests/integration/test_quiet_features.py``).

Every injected fault ticks :attr:`FaultPlane.injected` and, when a
tracer is live, annotates the current span with a ``chaos.*`` event
(metrics scope ``"chaos"``), so a chaos run is debuggable from a Chrome
trace.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import TYPE_CHECKING, Callable

from repro.kernel.errors import CommunicationError, ServerDiedError

if TYPE_CHECKING:
    from repro.kernel.domain import Domain
    from repro.kernel.doors import Door
    from repro.kernel.nucleus import Kernel
    from repro.net.fabric import NetworkFabric
    from repro.net.machine import Machine

__all__ = [
    "FaultPlane",
    "LinkChaos",
    "InjectedFault",
    "OpenLoopBurst",
    "install_chaos",
    "uninstall_chaos",
]


class OpenLoopBurst:
    """A seeded open-loop arrival process aimed at one governed door.

    Overload needs callers that do *not* slow down when the server does —
    an open loop.  A burst draws exponential interarrival times and
    per-call service demands from its own ``random.Random(seed)`` and
    feeds them to the :class:`~repro.runtime.admission.AdmissionController`
    as *phantom* arrivals: they occupy the door's virtual concurrency
    slots and queue positions (so real, measured calls experience genuine
    queueing and shedding) but never advance the clock or touch a real
    buffer.  Same seed, same clock, same workload ⇒ the same arrivals and
    the same sheds, bit-for-bit — overload runs replay from their seed.

    ``interarrival_us`` is the mean gap between arrivals; a door with
    concurrency limit *L* and mean service *S* saturates at ``L / S``
    calls/us, so ``interarrival_us = S / (L * m)`` offers *m*× capacity.
    """

    __slots__ = (
        "door",
        "interarrival_us",
        "service_us",
        "jitter",
        "seed",
        "calls",
        "generated",
        "rng",
        "_next_at",
    )

    def __init__(
        self,
        door: "Door",
        interarrival_us: float,
        service_us: float,
        seed: int = 0,
        jitter: float = 0.0,
        start_us: float = 0.0,
        calls: int | None = None,
    ) -> None:
        if interarrival_us <= 0 or service_us <= 0:
            raise ValueError("interarrival_us and service_us must be > 0")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        inner = getattr(door, "door", None)  # accept a DoorIdentifier too
        self.door = inner if inner is not None else door
        self.interarrival_us = interarrival_us
        self.service_us = service_us
        self.jitter = jitter
        self.seed = seed
        self.calls = calls
        self.generated = 0
        self.rng = random.Random(seed)
        self._next_at: float | None = (
            start_us + self.rng.expovariate(1.0 / interarrival_us)
        )

    @property
    def next_at_us(self) -> float | None:
        """When the next phantom arrives (sim-us); ``None`` once exhausted."""
        return self._next_at

    def take(self) -> tuple[float, float]:
        """Consume the next arrival: ``(arrival_us, service_demand_us)``."""
        at = self._next_at
        if at is None:
            raise RuntimeError("burst exhausted")
        service = self.service_us
        if self.jitter:
            service *= 1.0 + self.jitter * (2.0 * self.rng.random() - 1.0)
        self.generated += 1
        if self.calls is not None and self.generated >= self.calls:
            self._next_at = None
        else:
            self._next_at = at + self.rng.expovariate(1.0 / self.interarrival_us)
        return at, service

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OpenLoopBurst door#{self.door.uid} mean={self.interarrival_us}us"
            f" service={self.service_us}us seed={self.seed}"
            f" generated={self.generated}>"
        )


class InjectedFault(CommunicationError):
    """A fault injected by the :class:`FaultPlane`.

    Subcontracts see an ordinary communication failure — chaos is
    indistinguishable from the real thing at the recovery layer, which
    is the point.
    """


class LinkChaos:
    """Fault knobs for one (unordered) machine pair, or the default link."""

    __slots__ = (
        "drop",
        "duplicate",
        "reorder",
        "delay_us",
        "latency_scale",
        "jitter",
        "carry_drop",
    )

    def __init__(
        self,
        drop: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        delay_us: float = 0.0,
        latency_scale: float = 1.0,
        jitter: float = 0.0,
        carry_drop: float = 0.0,
    ) -> None:
        self.drop = drop
        self.duplicate = duplicate
        self.reorder = reorder
        self.delay_us = delay_us
        self.latency_scale = latency_scale
        self.jitter = jitter
        self.carry_drop = carry_drop

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LinkChaos drop={self.drop} dup={self.duplicate}"
            f" reorder={self.reorder} delay={self.delay_us}us"
            f" scale={self.latency_scale} jitter={self.jitter}"
            f" carry_drop={self.carry_drop}>"
        )


class FaultPlane:
    """Seeded, deterministic fault injection for one world."""

    rank = 10  # outermost: a fault fires before tsan or the tracer sees it

    def __init__(
        self,
        kernel: "Kernel",
        fabric: "NetworkFabric | None" = None,
        seed: int = 0,
    ) -> None:
        self.kernel = kernel
        self.fabric = fabric
        self.seed = seed
        self.rng = random.Random(seed)
        #: knobs applied to every link without a per-link override
        self.default_link = LinkChaos()
        self._links: dict[frozenset[str], LinkChaos] = {}
        #: probability that a door call fails transiently before launch
        self.door_fault_rate = 0.0
        #: probability that the server crashes after consuming a request
        self.crash_mid_call_rate = 0.0
        #: one-shot triggers (deterministic test hooks)
        self._fail_next_door_calls = 0
        self._crash_mid_call_armed: "Domain | None | bool" = False
        #: leg name -> remaining armed carry drops for that leg
        self._drop_next_carry: dict[str, int] = {}
        #: scheduled actions: (at_us, seq, label, fn)
        self._schedule: list[tuple[float, int, str, Callable[[], None]]] = []
        self._seq = itertools.count()
        #: reordering holdback: link key -> (dst name, port, payload)
        self._held: dict[frozenset[str], tuple[str, str, bytes]] = {}
        #: injected-fault counters by kind, for tests and reports
        self.injected: dict[str, int] = {}
        #: ordinal of the next aimed burst; seeds derive from it so a
        #: rebuilt world replays regardless of global door-uid drift
        self._burst_ordinal = 0

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    def link(self, a: "Machine | str", b: "Machine | str") -> LinkChaos:
        """The (created-on-demand) per-link override for a machine pair."""
        key = frozenset((_name(a), _name(b)))
        chaos = self._links.get(key)
        if chaos is None:
            chaos = self._links[key] = LinkChaos()
        return chaos

    def _link_for(self, src: str, dst: str) -> LinkChaos:
        return self._links.get(frozenset((src, dst)), self.default_link)

    def fail_next_door_calls(self, count: int = 1) -> None:
        """Arm a deterministic transient failure for the next N door calls."""
        self._fail_next_door_calls += count

    def crash_mid_call_next(self, domain: "Domain | None" = None) -> None:
        """Arm a one-shot crash-mid-call (optionally only for ``domain``)."""
        self._crash_mid_call_armed = domain if domain is not None else True

    def drop_next_carry(self, leg: str = "reply", count: int = 1) -> None:
        """Arm deterministic drops for the next N carries of one leg.

        ``leg="reply"`` is the lost-reply scenario the idempotency-key
        dedup layer exists for: the server executed, the result
        evaporated on the wire, and the client's retry must replay the
        recorded reply instead of re-executing.  Armed drops fire before
        (and without) a rate draw, so arming one never perturbs the
        seeded fault sequence.
        """
        self._drop_next_carry[leg] = self._drop_next_carry.get(leg, 0) + count

    def burst(
        self,
        door: "Door",
        interarrival_us: float,
        service_us: float,
        seed: int | None = None,
        **kwargs,
    ) -> OpenLoopBurst:
        """Aim an :class:`OpenLoopBurst` at a governed door.

        The burst's seed derives arithmetically from the plane's seed and
        the burst's aim ordinal (never from the plane's rng — configuring
        a burst must not perturb the fault draw sequence, and door uids
        are process-global so they would not replay across rebuilt
        worlds), so a chaos run's overload replays from the same single
        seed as its faults.  Requires an admission controller installed
        on the kernel.
        """
        admission = self.kernel.admission
        if admission is None:
            raise RuntimeError(
                "install an AdmissionController before aiming a burst "
                "(Environment.install_admission)"
            )
        inner = getattr(door, "door", None)
        door = inner if inner is not None else door
        ordinal = self._burst_ordinal
        self._burst_ordinal += 1
        if seed is None:
            seed = (self.seed * 1_000_003 + ordinal) & 0x7FFFFFFF
        burst = OpenLoopBurst(door, interarrival_us, service_us, seed=seed, **kwargs)
        admission.attach_burst(burst)
        self._count("burst")
        self._event(
            "chaos.burst",
            door=door.uid,
            interarrival_us=interarrival_us,
            service_us=service_us,
            seed=seed,
        )
        return burst

    # ------------------------------------------------------------------
    # scheduled faults (crash-and-restart scripts)
    # ------------------------------------------------------------------

    def schedule(
        self, at_us: float, fn: Callable[[], None], label: str = "action"
    ) -> None:
        """Run ``fn`` at the first interception point at/after ``at_us``."""
        heapq.heappush(self._schedule, (at_us, next(self._seq), label, fn))

    def schedule_crash_domain(self, domain: "Domain", at_us: float) -> None:
        """Crash a domain at a simulated time."""
        self.schedule(
            at_us, lambda: self.kernel.crash_domain(domain), f"crash:{domain.name}"
        )

    def schedule_crash_machine(self, machine: "Machine", at_us: float) -> None:
        """Power off a machine at a simulated time."""
        self.schedule(at_us, machine.crash, f"crash:{machine.name}")

    def schedule_partition_region(
        self, region: str, at_us: float, heal_at_us: float | None = None
    ) -> None:
        """Isolate a whole region at a simulated time; optionally heal it.

        Only the directed links the cut actually *added* are healed, so
        overlapping partitions keep their prior state (the same contract
        as :func:`repro.runtime.faults.region_partitioned`).
        """
        fabric = self.fabric
        if fabric is None:
            raise RuntimeError("this fault plane was installed without a fabric")

        def cut() -> None:
            added = fabric.partition_region(region)
            self._count("region_partition")
            self._event("chaos.region_partition", region=region, links=len(added))
            if heal_at_us is not None:
                def mend() -> None:
                    for src, dst in added:
                        fabric.heal_oneway(src, dst)
                    self._count("region_heal")
                    self._event("chaos.region_heal", region=region, links=len(added))

                self.schedule(heal_at_us, mend, f"heal-region:{region}")

        self.schedule(at_us, cut, f"partition-region:{region}")

    def pump(self) -> int:
        """Fire every scheduled action that is due; returns the count.

        Called from each interception point, so scheduled crashes land at
        the first communication attempt at/after their time — the closest
        a passive simulated clock comes to an asynchronous failure.
        """
        fired = 0
        schedule = self._schedule
        now = self.kernel.clock.now_us
        while schedule and schedule[0][0] <= now:
            _, _, label, fn = heapq.heappop(schedule)
            self._count("scheduled")
            self._event("chaos.scheduled", action=label)
            fn()
            fired += 1
            now = self.kernel.clock.now_us
        return fired

    # ------------------------------------------------------------------
    # interception points (the kernel's seams and the fabric)
    # ------------------------------------------------------------------

    def around_launch(self, inner: Callable) -> Callable:
        """Launch seam: before the call is routed, fire due scheduled
        actions, then an armed or drawn transient door fault."""

        def launch(caller, door, buffer, remote):
            if self._schedule:
                self.pump()
            if self._fail_next_door_calls > 0:
                self._fail_next_door_calls -= 1
                self._count("door_fault")
                self._event("chaos.door_fault", door=door.uid, armed=True)
                raise InjectedFault(
                    f"chaos: transient failure calling door #{door.uid} (armed)"
                )
            rate = self.door_fault_rate
            if rate and self.rng.random() < rate:
                self._count("door_fault")
                self._event("chaos.door_fault", door=door.uid, armed=False)
                raise InjectedFault(
                    f"chaos: transient failure calling door #{door.uid}"
                )
            return inner(caller, door, buffer, remote)

        return launch

    def around_handler(self, inner: Callable) -> Callable:
        """Handler seam: after the server consumed the request, before the
        handler runs, crash the server (crash-mid-call) if armed or drawn.

        A domain with ``domain.locals["chaos_immune"]`` set is never
        crashed by the *random* knobs (rate or untargeted arming) —
        worlds use it to shield infrastructure such as the name service,
        whose loss would wedge every recovery path rather than exercise
        one.  Explicitly targeted crashes ignore the flag.  The rng draw
        happens before the immunity check, so shielding a domain never
        perturbs the draw sequence.
        """

        def handle(door, buffer):
            armed = self._crash_mid_call_armed
            if armed is not False:
                if armed is door.server or (
                    armed is True and not door.server.locals.get("chaos_immune")
                ):
                    self._crash_mid_call_armed = False
                    self._crash_server(door)
            rate = self.crash_mid_call_rate
            if (
                rate
                and self.rng.random() < rate
                and not door.server.locals.get("chaos_immune")
            ):
                self._crash_server(door)
            return inner(door, buffer)

        return handle

    def _crash_server(self, door: "Door") -> None:
        server = door.server
        self._count("crash_mid_call")
        self._event("chaos.crash_mid_call", door=door.uid, server=server.name)
        self.kernel.crash_domain(server)
        raise ServerDiedError(
            f"chaos: server domain {server.name!r} crashed mid-call on "
            f"door #{door.uid} (request consumed, no reply)"
        )

    def on_carry(self, src: "Machine", dst: "Machine", leg: str) -> None:
        """Fabric hook: once per carry leg; may drop the leg or add delay."""
        if self._schedule:
            self.pump()
        if self._drop_next_carry:
            armed = self._drop_next_carry.get(leg, 0)
            if armed > 0:
                if armed == 1:
                    del self._drop_next_carry[leg]
                else:
                    self._drop_next_carry[leg] = armed - 1
                self._count("carry_drop")
                self._event(
                    "chaos.carry_drop",
                    src=src.name,
                    dst=dst.name,
                    leg=leg,
                    armed=True,
                )
                raise InjectedFault(
                    f"chaos: {leg} lost between {src.name!r} and "
                    f"{dst.name!r} (armed)"
                )
        link = self._link_for(src.name, dst.name)
        rate = link.carry_drop
        if rate and self.rng.random() < rate:
            self._count("carry_drop")
            self._event("chaos.carry_drop", src=src.name, dst=dst.name, leg=leg)
            raise InjectedFault(
                f"chaos: {leg} lost between {src.name!r} and {dst.name!r}"
            )
        if link.delay_us:
            self._count("link_delay")
            # The delay amount rides on the event so latency attribution
            # can pull injected wire delay out of the fabric span's time.
            self._event(
                "chaos.link_delay",
                src=src.name,
                dst=dst.name,
                leg=leg,
                delay_us=link.delay_us,
            )
            self.kernel.clock.advance(link.delay_us, "chaos_delay")

    def wire_us(
        self, src: "Machine | str", dst: "Machine | str", base_us: float
    ) -> float:
        """Fabric hook: scale one wire-time charge by the link's model."""
        link = self._link_for(_name(src), _name(dst))
        us = base_us * link.latency_scale
        if link.jitter:
            us *= 1.0 + link.jitter * self.rng.random()
        return us

    def send_datagram(
        self,
        fabric: "NetworkFabric",
        src: "Machine | str",
        dst: "Machine | str",
        port: str,
        payload: bytes,
    ) -> bool:
        """Fabric hook: carry one datagram through the fault plane.

        Applies drop / duplicate / reorder / delay for the link, then
        delegates actual delivery back to the fabric.  Reordering holds a
        datagram back and releases it after the *next* datagram on the
        same link (swapping adjacent messages); a held datagram with no
        successor is lost, which an unreliable transport must tolerate
        anyway.
        """
        if self._schedule:
            self.pump()
        src_name, dst_name = _name(src), _name(dst)
        key = frozenset((src_name, dst_name))
        link = self._link_for(src_name, dst_name)
        held = self._held.pop(key, None)
        delivered = False
        dropped = link.drop and self.rng.random() < link.drop
        if dropped:
            self._count("datagram_drop")
            self._event("chaos.datagram_drop", src=src_name, dst=dst_name, port=port)
        else:
            if link.delay_us:
                self._count("link_delay")
                self.kernel.clock.advance(link.delay_us, "chaos_delay")
            if link.reorder and self.rng.random() < link.reorder:
                # Hold this one back; it goes after the link's next datagram.
                self._count("datagram_reorder")
                self._event(
                    "chaos.datagram_reorder", src=src_name, dst=dst_name, port=port
                )
                self._held[key] = (dst_name, port, bytes(payload))
                delivered = True  # offered to the network, in flight
            else:
                delivered = fabric._deliver_datagram(src, dst, port, payload)
                if delivered and link.duplicate and self.rng.random() < link.duplicate:
                    self._count("datagram_duplicate")
                    self._event(
                        "chaos.datagram_duplicate",
                        src=src_name,
                        dst=dst_name,
                        port=port,
                    )
                    fabric._deliver_datagram(src, dst, port, payload)
        if held is not None:
            held_dst, held_port, held_payload = held
            fabric._deliver_datagram(src_name, held_dst, held_port, held_payload)
        return delivered

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def _event(self, name: str, **detail) -> None:
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.event(name, subcontract="chaos", **detail)  # springlint: disable=metrics-naming -- generic relay: literal names live at the emit sites

    def total_injected(self) -> int:
        """Total faults injected so far (all kinds)."""
        return sum(self.injected.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultPlane seed={self.seed} injected={self.total_injected()}"
            f" scheduled={len(self._schedule)}>"
        )


def _name(machine: "Machine | str") -> str:
    return machine if isinstance(machine, str) else machine.name


def install_chaos(
    kernel: "Kernel", fabric: "NetworkFabric | None" = None, seed: int = 0
) -> FaultPlane:
    """Create a :class:`FaultPlane` and install it on ``kernel``."""
    plane = FaultPlane(kernel, fabric, seed=seed)
    kernel.chaos = plane
    kernel.interpose(plane)
    return plane


def uninstall_chaos(kernel: "Kernel") -> None:
    """Remove the fault plane; the hot path reverts to fault-free."""
    kernel.withdraw(kernel.chaos)
    kernel.chaos = None
