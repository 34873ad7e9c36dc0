"""SWIM-style gossip membership on the simulated clock.

Replicon, cluster, and the saga coordinator learned membership from
static configuration; production systems learn it from each other.  This
module is the self-organizing half of ROADMAP open item 3: every machine
runs a :class:`MembershipNode` that

* **probes** a round-robin-shuffled peer each protocol round (a direct
  ping, then ``indirect_probes`` relayed ping-reqs when the direct ack
  misses its timeout),
* **suspects before evicting**: a failed probe marks the member
  *suspect* and starts a suspicion timer; only silence through the
  timer evicts.  Every update carries the member's **incarnation
  number**, and a member that hears it is suspected refutes by bumping
  its incarnation — a false alarm (lossy link, one-way partition) heals
  instead of evicting a live node,
* **disseminates piggybacked**: membership updates ride on the protocol
  messages themselves, each retransmitted ``O(gossip_mult · log n)``
  times, so there is no broadcast traffic to keep deterministic.

Everything runs on the kernel's simulated clock: the service owns one
event heap (``(at_us, seq, label, fn)``), :meth:`MembershipService.run_for`
advances the clock (category ``"membership"``) to each due event, and
all randomness (probe targets, relay choice, round jitter) draws from
per-node ``random.Random`` seeds derived from the service seed.  Same
seed, same topology ⇒ the same probes, the same datagrams, the same
event log, bit-for-bit — the membership soak asserts exactly that.

Datagrams travel the ordinary fabric datagram service (port ``"swim"``),
so per-link chaos (drop / duplicate / reorder / delay), region latency
classes, and one-way partitions all apply to gossip exactly as they do
to application traffic.

Consumers subscribe per node (:meth:`MembershipNode.subscribe`) for
``join`` / ``suspect`` / ``alive`` / ``evict`` / ``rejoin`` / ``refute``
transitions, or poll the view (:meth:`MembershipNode.is_live`,
:meth:`MembershipNode.evicted_incarnation`).  ``plant`` hands a node's
view to every client vector of a domain; replicon, cluster and
reconnectable consult it (``subcontracts.common.gossip_evicted``).
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import random
import threading
from typing import TYPE_CHECKING, Callable

from repro.runtime import tsan as _tsan

if TYPE_CHECKING:
    from repro.kernel.domain import Domain
    from repro.kernel.nucleus import Kernel
    from repro.net.fabric import NetworkFabric
    from repro.net.machine import Machine

__all__ = [
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "MemberInfo",
    "MemberTable",
    "MembershipConfig",
    "MembershipNode",
    "MembershipService",
    "install_membership",
]

#: member states (wire encoding: first letter)
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

_WIRE_STATE = {ALIVE: "a", SUSPECT: "s", DEAD: "d"}
_STATE_FROM_WIRE = {"a": ALIVE, "s": SUSPECT, "d": DEAD}

#: the fabric datagram port gossip rides on
GOSSIP_PORT = "swim"

#: tracer event names per transition kind — literal dotted names, all
#: under the ``membership`` metrics scope
_EVENT_NAMES = {
    "boot": "membership.boot",
    "join": "membership.join",
    "suspect": "membership.suspect",
    "alive": "membership.alive",
    "refute": "membership.refute",
    "evict": "membership.evict",
    "rejoin": "membership.rejoin",
}


class MembershipConfig:
    """Protocol tuning knobs, all in simulated microseconds.

    The defaults detect a silent member in a handful of seconds of sim
    time while tolerating several percent datagram loss without a false
    eviction (the suspicion window spans ~4 probe rounds, ample time for
    the suspect to hear the rumour and refute).  See docs/membership.md
    for the tuning discussion.
    """

    __slots__ = (
        "probe_interval_us",
        "probe_jitter_us",
        "ack_timeout_us",
        "suspicion_timeout_us",
        "indirect_probes",
        "piggyback_limit",
        "gossip_mult",
    )

    def __init__(
        self,
        probe_interval_us: float = 500_000.0,
        probe_jitter_us: float = 50_000.0,
        ack_timeout_us: float = 150_000.0,
        suspicion_timeout_us: float = 2_000_000.0,
        indirect_probes: int = 2,
        piggyback_limit: int = 6,
        gossip_mult: float = 3.0,
    ) -> None:
        self.probe_interval_us = probe_interval_us
        self.probe_jitter_us = probe_jitter_us
        self.ack_timeout_us = ack_timeout_us
        self.suspicion_timeout_us = suspicion_timeout_us
        self.indirect_probes = indirect_probes
        self.piggyback_limit = piggyback_limit
        self.gossip_mult = gossip_mult


class MemberInfo:
    """One row of a node's member table."""

    __slots__ = ("name", "state", "incarnation", "since_us")

    def __init__(
        self, name: str, state: str, incarnation: int, since_us: float
    ) -> None:
        self.name = name
        self.state = state
        self.incarnation = incarnation
        self.since_us = since_us

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemberInfo {self.name} {self.state} i={self.incarnation}>"


@_tsan.shared_state
class MemberTable:
    """One node's view of the group: member rows plus the dissemination
    buffer, shared between the protocol pump and every reader consulting
    the view from an invoke path.

    ``members`` maps member name to :class:`MemberInfo`; ``updates``
    maps member name to its freshest rumour ``[wire_state, incarnation,
    remaining_transmissions]``.  All mutation happens under ``lock``.
    """

    __slots__ = ("lock", "members", "updates", "incarnation")

    def __init__(self) -> None:
        self.lock = _tsan.instrument_lock(
            threading.Lock(), f"MemberTable.lock@{id(self):x}"
        )
        self.members: dict[str, MemberInfo] = _tsan.track({}, "membership.members")
        self.updates: dict[str, list] = _tsan.track({}, "membership.updates")
        #: this node's own incarnation number (bumped to refute)
        self.incarnation = 1


class MembershipNode:
    """One machine's SWIM participant."""

    def __init__(
        self, service: "MembershipService", machine: "Machine", seed: int
    ) -> None:
        self.service = service
        self.machine = machine
        self.name = machine.name
        self.rng = random.Random(seed)
        self.table = MemberTable()
        #: callbacks fn(kind, member, incarnation) for every transition
        self.subscribers: list[Callable[[str, str, int], None]] = []
        #: outstanding direct/indirect probes: seq -> target name
        self._probes: dict[int, str] = {}
        #: relayed probes we launched for someone else: seq -> (origin, origin seq)
        self._relays: dict[int, tuple[str, int]] = {}
        self._seq = itertools.count(1)
        #: shuffled probe ring (SWIM's round-robin randomized ordering)
        self._ring: list[str] = []
        self._ring_pos = 0
        #: protocol counters, for tests and reports
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # the view (what subcontracts consult)
    # ------------------------------------------------------------------

    def is_live(self, name: str) -> bool:
        """False only for members this node has *evicted*.

        Unknown members get the benefit of the doubt — a view must never
        fail calls to machines it simply has not heard of.
        """
        with self.table.lock:
            info = self.table.members.get(name)
            return info is None or info.state != DEAD

    def evicted_incarnation(self, name: str) -> int | None:
        """The incarnation a member was evicted at, or ``None`` if live."""
        with self.table.lock:
            info = self.table.members.get(name)
            if info is not None and info.state == DEAD:
                return info.incarnation
            return None

    def state_of(self, name: str) -> str | None:
        """The member's current state (``None`` when unknown)."""
        if name == self.name:
            return ALIVE
        with self.table.lock:
            info = self.table.members.get(name)
            return None if info is None else info.state

    def members(self) -> dict[str, tuple[str, int]]:
        """Snapshot: member name -> (state, incarnation)."""
        with self.table.lock:
            return {
                name: (info.state, info.incarnation)
                for name, info in self.table.members.items()
            }

    def alive_members(self) -> list[str]:
        """Members currently believed alive (excludes self)."""
        with self.table.lock:
            return sorted(
                name
                for name, info in self.table.members.items()
                if info.state == ALIVE
            )

    def subscribe(self, fn: Callable[[str, str, int], None]) -> None:
        """Register a transition callback ``fn(kind, member, incarnation)``."""
        with self.table.lock:
            self.subscribers.append(fn)

    # ------------------------------------------------------------------
    # probe rounds
    # ------------------------------------------------------------------

    def _schedule_round(self, first: bool = False, offset_us: float = 0.0) -> None:
        cfg = self.service.config
        delay = offset_us if first else cfg.probe_interval_us
        delay += self.rng.random() * cfg.probe_jitter_us
        self.service.schedule(
            self.service.now() + delay, self._round, f"probe:{self.name}"
        )

    def _round(self) -> None:
        self._schedule_round()
        if self.machine.crashed:
            return
        target = self._next_target()
        if target is not None:
            seq = next(self._seq)
            self._probes[seq] = target
            self._tick("probes")
            self._send(target, {"t": "ping", "o": self.name, "s": seq})
            self.service.schedule(
                self.service.now() + self.service.config.ack_timeout_us,
                lambda: self._direct_timeout(seq, target),
                f"ack-timeout:{self.name}",
            )
        self._rejoin_probe()

    def _rejoin_probe(self) -> None:
        """Once per round, ping one *evicted* member with its dead rumour
        forced onto the message.

        Eviction is terminal under gossip alone (nobody pings the dead),
        so this is the rejoin path after a heal: the pinged member learns
        it was declared dead, refutes by bumping its incarnation, and the
        ack carries the higher-incarnation ``alive`` back — which is the
        one rumour allowed to override an eviction.
        """
        with self.table.lock:
            dead = sorted(
                name
                for name, info in self.table.members.items()
                if info.state == DEAD
            )
        if not dead:
            return
        target = self.rng.choice(dead)
        self._tick("rejoin_probes")
        self._send(target, {"t": "ping", "o": self.name, "s": 0}, force=(target,))

    def _next_target(self) -> str | None:
        """Next probe target: a shuffled ring over the non-dead members."""
        with self.table.lock:
            eligible = {
                name
                for name, info in self.table.members.items()
                if info.state != DEAD
            }
        if not eligible:
            return None
        while True:
            if self._ring_pos >= len(self._ring):
                self._ring = sorted(eligible)
                self.rng.shuffle(self._ring)
                self._ring_pos = 0
            candidate = self._ring[self._ring_pos]
            self._ring_pos += 1
            if candidate in eligible:
                return candidate

    def _direct_timeout(self, seq: int, target: str) -> None:
        if seq not in self._probes or self.machine.crashed:
            return
        cfg = self.service.config
        with self.table.lock:
            helpers = sorted(
                name
                for name, info in self.table.members.items()
                if info.state == ALIVE and name != target
            )
        if helpers and cfg.indirect_probes > 0:
            chosen = self.rng.sample(
                helpers, min(cfg.indirect_probes, len(helpers))
            )
            self._tick("indirect_probes")
            for helper in chosen:
                self._send(
                    helper,
                    {"t": "preq", "o": self.name, "s": seq, "m": target},
                )
            self.service.schedule(
                self.service.now() + cfg.ack_timeout_us,
                lambda: self._indirect_timeout(seq, target),
                f"preq-timeout:{self.name}",
            )
            return
        self._indirect_timeout(seq, target)

    def _indirect_timeout(self, seq: int, target: str) -> None:
        if self._probes.pop(seq, None) is None or self.machine.crashed:
            return
        self._start_suspicion(target)

    # ------------------------------------------------------------------
    # suspicion and eviction
    # ------------------------------------------------------------------

    def _start_suspicion(self, target: str) -> None:
        now = self.service.now()
        with self.table.lock:
            info = self.table.members.get(target)
            if info is None or info.state != ALIVE:
                return
            info.state = SUSPECT
            info.since_us = now
            incarnation = info.incarnation
            self.table.updates[target] = [
                _WIRE_STATE[SUSPECT], incarnation, self._budget()
            ]
        self._transition("suspect", target, incarnation)
        self.service.schedule(
            now + self.service.config.suspicion_timeout_us,
            lambda: self._eviction_due(target, incarnation),
            f"suspicion:{self.name}",
        )

    def _eviction_due(self, target: str, incarnation: int) -> None:
        if self.machine.crashed:
            return
        now = self.service.now()
        with self.table.lock:
            info = self.table.members.get(target)
            due = (
                info is not None
                and info.state == SUSPECT
                and info.incarnation <= incarnation
            )
            if due:
                info.state = DEAD
                info.since_us = now
                evicted_at = info.incarnation
                self.table.updates[target] = [
                    _WIRE_STATE[DEAD], evicted_at, self._budget()
                ]
        if due:
            self._transition("evict", target, evicted_at)

    # ------------------------------------------------------------------
    # wire protocol
    # ------------------------------------------------------------------

    def _on_datagram(self, payload: bytes) -> None:
        if self.machine.crashed:
            return
        msg = json.loads(payload.decode("ascii"))
        self._merge(msg.get("g", ()))
        kind = msg["t"]
        if kind == "ping":
            origin = msg["o"]
            ack = {"t": "ack", "o": self.name, "s": msg["s"]}
            # Forced piggyback both ways: if we believe the pinger suspect
            # or dead, tell it so — that is how a falsely accused (or
            # previously evicted, now healed) member learns it must refute
            # — and always assert our own aliveness, so a pinger that
            # still holds us dead at an older incarnation re-admits us.
            self._send(origin, ack, force=(origin, self.name))
        elif kind == "ack":
            seq = msg["s"]
            if self._probes.pop(seq, None) is not None:
                self._tick("acks")
                return
            relay = self._relays.pop(seq, None)
            if relay is not None:
                origin, origin_seq = relay
                self._send(origin, {"t": "ack", "o": msg["o"], "s": origin_seq})
        elif kind == "preq":
            seq = next(self._seq)
            self._relays[seq] = (msg["o"], msg["s"])
            self._tick("relayed_probes")
            self._send(msg["m"], {"t": "ping", "o": self.name, "s": seq})
        elif kind == "join":
            origin = msg["o"]
            self._merge(((origin, "a", msg["i"]),))
            with self.table.lock:
                entries = [
                    [name, _WIRE_STATE[info.state], info.incarnation]
                    for name, info in sorted(self.table.members.items())
                    if name != origin
                ]
                entries.append([self.name, "a", self.table.incarnation])
            self._send(origin, {"t": "sync", "o": self.name, "g2": entries})
        elif kind == "sync":
            self._merge(msg.get("g2", ()))

    def _send(
        self, member: str, msg: dict, force: tuple[str, ...] = ()
    ) -> None:
        peer = self.service.nodes.get(member)
        if peer is None:
            return
        with self.table.lock:
            msg["g"] = self._piggyback(force)
        payload = json.dumps(
            msg, separators=(",", ":"), sort_keys=True
        ).encode("ascii")
        self.service.fabric.send_datagram(
            self.machine, peer.machine, GOSSIP_PORT, payload
        )

    def _piggyback(self, force: tuple[str, ...] = ()) -> list[list]:
        """Pick the freshest rumours to ride this message.

        Called with ``table.lock`` held.  Highest remaining-transmission
        budget first (name breaks ties); each inclusion burns one
        transmission and an exhausted rumour leaves the buffer.
        """
        updates = self.table.updates
        chosen = sorted(updates.items(), key=lambda kv: (-kv[1][2], kv[0]))
        out = []
        limit = self.service.config.piggyback_limit
        for name, entry in chosen[:limit]:
            out.append([name, entry[0], entry[1]])
            entry[2] -= 1
            if entry[2] <= 0:
                del updates[name]
        for name in force:
            if any(item[0] == name for item in out):
                continue
            if name == self.name:
                # Own state never sits in ``members``; an ack asserts
                # aliveness explicitly so a healed member whose refutation
                # rumour has long expired still re-announces itself.
                out.append([name, "a", self.table.incarnation])
                continue
            info = self.table.members.get(name)
            if info is not None:
                out.append([name, _WIRE_STATE[info.state], info.incarnation])
        return out

    def _budget(self) -> int:
        """Retransmissions per rumour: ``ceil(gossip_mult · log2(n + 1))``."""
        n = len(self.table.members) + 1
        return max(1, math.ceil(self.service.config.gossip_mult * math.log2(n + 1)))

    # ------------------------------------------------------------------
    # update merging (SWIM's precedence rules)
    # ------------------------------------------------------------------

    def _merge(self, updates) -> None:
        now = self.service.now()
        notify: list[tuple[str, str, int]] = []
        suspicions: list[tuple[str, int]] = []
        with self.table.lock:
            for item in updates:
                name, wire_state, incarnation = item[0], item[1], item[2]
                state = _STATE_FROM_WIRE[wire_state]
                if name == self.name:
                    # A rumour about *us*: refute suspicion or eviction by
                    # outliving the accused incarnation.
                    if state != ALIVE and incarnation >= self.table.incarnation:
                        self.table.incarnation = incarnation + 1
                        self.table.updates[name] = [
                            "a", self.table.incarnation, self._budget()
                        ]
                        notify.append(("refute", name, self.table.incarnation))
                    continue
                info = self.table.members.get(name)
                if info is None:
                    self.table.members[name] = MemberInfo(
                        name, state, incarnation, now
                    )
                    self.table.updates[name] = [
                        wire_state, incarnation, self._budget()
                    ]
                    if state != DEAD:
                        notify.append(("join", name, incarnation))
                        if state == SUSPECT:
                            suspicions.append((name, incarnation))
                    continue
                if not _overrides(state, incarnation, info.state, info.incarnation):
                    continue
                previous = info.state
                info.state = state
                info.incarnation = incarnation
                info.since_us = now
                self.table.updates[name] = [
                    wire_state, incarnation, self._budget()
                ]
                if state == DEAD and previous != DEAD:
                    notify.append(("evict", name, incarnation))
                elif state == ALIVE and previous == DEAD:
                    notify.append(("rejoin", name, incarnation))
                elif state == ALIVE and previous == SUSPECT:
                    notify.append(("alive", name, incarnation))
                elif state == SUSPECT and previous == ALIVE:
                    notify.append(("suspect", name, incarnation))
                    suspicions.append((name, incarnation))
        for kind, member, incarnation in notify:
            self._transition(kind, member, incarnation)
        cfg = self.service.config
        for member, incarnation in suspicions:
            self.service.schedule(
                now + cfg.suspicion_timeout_us,
                lambda m=member, i=incarnation: self._eviction_due(m, i),
                f"suspicion:{self.name}",
            )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _transition(self, kind: str, member: str, incarnation: int) -> None:
        self._tick(kind)
        self.service.note(self.name, kind, member, incarnation)
        with self.table.lock:
            subscribers = list(self.subscribers)
        for fn in subscribers:
            fn(kind, member, incarnation)

    def _tick(self, kind: str) -> None:
        self.counters[kind] = self.counters.get(kind, 0) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MembershipNode {self.name} members={len(self.table.members)}>"


def _overrides(state: str, inc: int, old_state: str, old_inc: int) -> bool:
    """SWIM's update-precedence partial order."""
    if state == ALIVE:
        return inc > old_inc
    if state == SUSPECT:
        if old_state == ALIVE:
            return inc >= old_inc
        if old_state == SUSPECT:
            return inc > old_inc
        return False  # suspicion never overrides an eviction
    # DEAD overrides everything at the same or newer incarnation, except
    # an existing eviction (dead is terminal until a higher-incarnation
    # alive rejoins).
    return old_state != DEAD and inc >= old_inc


class MembershipService:
    """The per-world gossip service: nodes, the event heap, the log."""

    def __init__(
        self,
        kernel: "Kernel",
        fabric: "NetworkFabric",
        seed: int = 0,
        config: MembershipConfig | None = None,
        **knobs,
    ) -> None:
        self.kernel = kernel
        self.fabric = fabric
        self.seed = seed
        self.config = config if config is not None else MembershipConfig(**knobs)
        self.nodes: dict[str, MembershipNode] = {}
        #: the global protocol timeline: (at_us, seq, label, fn)
        self._heap: list[tuple[float, int, str, Callable[[], None]]] = []
        self._seq = itertools.count()
        #: the ordered transition log: (at_us, node, kind, member, value)
        self.events: list[tuple[float, str, str, str, int]] = []
        self._node_index = itertools.count()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def bootstrap(self, machines) -> list[MembershipNode]:
        """Start nodes that boot already knowing each other (the static
        config handed to a fresh deployment); no join traffic."""
        nodes = [self._make_node(machine) for machine in machines]
        start = self.now()
        for node in nodes:
            with node.table.lock:
                for peer in nodes:
                    if peer is not node:
                        node.table.members[peer.name] = MemberInfo(
                            peer.name, ALIVE, 1, start
                        )
            self.log(node.name, "boot", node.name, 1)
        for index, node in enumerate(nodes):
            node._schedule_round(
                first=True,
                offset_us=self.config.probe_interval_us
                * (index + 1)
                / (len(nodes) + 1),
            )
        return nodes

    def add_node(self, machine: "Machine", via: str | None = None) -> MembershipNode:
        """Start a node that must *join*: it knows only ``via`` and
        learns the rest through the sync reply and gossip."""
        node = self._make_node(machine)
        self.log(node.name, "boot", node.name, 1)
        if via is not None:
            node._send(via, {"t": "join", "o": node.name, "i": 1})
        node._schedule_round(first=True, offset_us=0.0)
        return node

    def _make_node(self, machine: "Machine") -> MembershipNode:
        if machine.name in self.nodes:
            raise ValueError(f"machine {machine.name!r} already runs a node")
        index = next(self._node_index)
        node = MembershipNode(
            self, machine, seed=(self.seed * 1_000_003 + 7919 * index) & 0x7FFFFFFF
        )
        self.nodes[machine.name] = node
        self.fabric.register_port(machine, GOSSIP_PORT, node._on_datagram)
        return node

    def node(self, name: str) -> MembershipNode:
        """The node running on the named machine."""
        return self.nodes[name]

    def plant(self, domain: "Domain", node: "MembershipNode | str | None" = None):
        """Wire a node's view into a domain.

        Sets ``domain.locals["membership"]`` and the ``membership``
        attribute of every client vector in the domain's registry
        (``SubcontractRegistry.plant_membership``).  ``node`` defaults
        to the node on the domain's own machine; client domains on
        non-member machines pass the member node they trust (typically
        the nearest in-region one).
        """
        if node is None:
            machine = domain.machine
            node = self.nodes.get(machine.name) if machine is not None else None
            if node is None:
                raise ValueError(
                    f"domain {domain.name!r} is not on a member machine; "
                    f"pass the node whose view it should adopt"
                )
        elif isinstance(node, str):
            node = self.nodes[node]
        from repro.core.registry import ensure_registry

        ensure_registry(domain).plant_membership(node)
        return node

    # ------------------------------------------------------------------
    # the protocol timeline (simulated time)
    # ------------------------------------------------------------------

    def now(self) -> float:
        return self.kernel.clock.now_us

    def schedule(self, at_us: float, fn: Callable[[], None], label: str) -> None:
        heapq.heappush(self._heap, (at_us, next(self._seq), label, fn))

    def run_until(self, at_us: float) -> int:
        """Advance the world to ``at_us``, firing every due protocol
        event in ``(time, insertion)`` order; returns the count fired.

        Time spent waiting between events is charged to the clock's
        ``"membership"`` category; datagram wire time lands in
        ``"network"`` as usual.
        """
        clock = self.kernel.clock
        fired = 0
        heap = self._heap
        while heap and heap[0][0] <= at_us:
            due = heap[0][0]
            now = clock.now_us
            if due > now:
                clock.advance(due - now, "membership")
            _, _, _, fn = heapq.heappop(heap)
            fn()
            fired += 1
        now = clock.now_us
        if at_us > now:
            clock.advance(at_us - now, "membership")
        return fired

    def run_for(self, duration_us: float) -> int:
        """Advance the world by a duration (see :meth:`run_until`)."""
        return self.run_until(self.now() + duration_us)

    # ------------------------------------------------------------------
    # the event log (replay evidence)
    # ------------------------------------------------------------------

    def note(self, node: str, kind: str, member: str, incarnation: int) -> None:
        """Record a membership transition: log + tracer event."""
        self.events.append(
            (self.kernel.clock.now_us, node, kind, member, incarnation)
        )
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.event(  # springlint: disable=metrics-naming -- generic relay: the literal names live in _EVENT_NAMES
                _EVENT_NAMES[kind],
                subcontract="membership",
                node=node,
                member=member,
                incarnation=incarnation,
            )

    def log(self, node: str, kind: str, member: str, value: int) -> None:
        """Append a raw entry (no tracer event) — election, boot, tests."""
        self.events.append((self.kernel.clock.now_us, node, kind, member, value))

    def event_log_bytes(self) -> bytes:
        """The full event log as canonical JSON lines (replay evidence)."""
        lines = [
            json.dumps(list(entry), separators=(",", ":")) for entry in self.events
        ]
        return ("\n".join(lines) + "\n").encode("ascii")

    def transitions(self, kind: str | None = None):
        """Log entries, optionally filtered by kind."""
        if kind is None:
            return list(self.events)
        return [entry for entry in self.events if entry[2] == kind]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MembershipService nodes={len(self.nodes)} "
            f"events={len(self.events)} pending={len(self._heap)}>"
        )


def install_membership(
    kernel: "Kernel",
    fabric: "NetworkFabric",
    machines,
    seed: int = 0,
    **knobs,
) -> MembershipService:
    """Create a service and bootstrap a node per machine."""
    service = MembershipService(kernel, fabric, seed=seed, **knobs)
    service.bootstrap(machines)
    return service
