"""The simulated network fabric.

Carries two kinds of traffic:

* **forwarded door calls** — installed as the kernel's ``fabric`` hook;
  invoked whenever a door call's caller and server live on different
  machines.  Each leg honours partitions, charges the door-identifier
  translation of the network servers at both ends (Section 3.3), pays
  wire time, and checks the call's deadline as it leaves and lands.
* **datagrams** — an unreliable, loss-prone, fire-and-forget service used
  by the video subcontract's media path (Section 8.4).

All latency is simulated time on the kernel clock; nothing sleeps.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from repro.kernel.errors import DeadlineExceeded, NetworkPartitionError
from repro.marshal.context import DEADLINE
from repro.net.machine import Machine

if TYPE_CHECKING:
    from repro.kernel.domain import Domain
    from repro.kernel.doors import Door
    from repro.kernel.nucleus import Kernel
    from repro.marshal.buffer import MarshalBuffer

__all__ = ["NetworkFabric"]

#: simulated cost of translating one door identifier to or from network form
TRANSLATE_DOOR_US = 6.0

#: per leg: the sending and the receiving network server's span names
_SPANS = {
    "request": ("netserver.outbound", "netserver.inbound"),
    "reply": ("netserver.outbound_reply", "netserver.inbound_reply"),
}


class NetworkFabric:
    """One network joining a set of machines."""

    def __init__(
        self,
        kernel: "Kernel",
        latency_us: float = 1200.0,
        bandwidth_us_per_byte: float = 0.05,
        datagram_loss: float = 0.0,
        seed: int = 1993,
    ) -> None:
        self.kernel = kernel
        self.latency_us = latency_us
        self.bandwidth_us_per_byte = bandwidth_us_per_byte
        self.datagram_loss = datagram_loss
        self._rng = random.Random(seed)
        self.machines: dict[str, Machine] = {}
        #: *directed* cut links: ``(src, dst)`` present means datagrams
        #: and call legs travelling src -> dst are lost.  A symmetric
        #: partition is simply both directions present.
        self._partitions: set[tuple[str, str]] = set()
        #: machine name -> (region, zone); empty until placed
        self._placement: dict[str, tuple[str, str]] = {}
        #: (intra_zone, intra_region, inter_region) wire-time multipliers,
        #: or None when the fabric has no region latency classes — the
        #: default, keeping historical sim totals bit-for-bit
        self._region_scales: tuple[float, float, float] | None = None
        self._pair_scale_cache: dict[tuple[str, str], float] = {}
        #: (machine_name, port) -> callback(payload)
        self._ports: dict[tuple[str, str], Callable[[bytes], None]] = {}
        #: statistics
        self.calls_carried = 0
        self.datagrams_sent = 0
        self.datagrams_delivered = 0
        kernel.fabric = self.carry

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def create_machine(
        self, name: str, region: str = "", zone: str = ""
    ) -> Machine:
        """Add a machine to this network, optionally placed in a region."""
        if name in self.machines:
            raise ValueError(f"machine {name!r} already exists")
        machine = Machine(self.kernel, name, self)
        self.machines[name] = machine
        if region:
            self.place(machine, region, zone)
        return machine

    def place(self, machine: Machine | str, region: str, zone: str = "") -> None:
        """Assign a machine to a region (and optionally a zone)."""
        name = self._name(machine)
        self._placement[name] = (region, zone)
        self._pair_scale_cache.clear()
        placed = self.machines.get(name)
        if placed is not None:
            placed.region = region
            placed.zone = zone

    def region_of(self, machine: Machine | str) -> str:
        """The machine's region ("" until placed)."""
        return self._placement.get(self._name(machine), ("", ""))[0]

    def machines_in_region(self, region: str) -> list[str]:
        """Sorted names of the machines placed in a region."""
        return sorted(
            name for name, (r, _) in self._placement.items() if r == region
        )

    def set_region_latency(
        self,
        intra_zone: float = 1.0,
        intra_region: float = 2.5,
        inter_region: float = 8.0,
    ) -> None:
        """Layer latency classes over wire time: every wire-time charge
        is scaled by the class of its (src, dst) placement — same zone,
        same region, or cross-region.  Pairs involving an unplaced
        machine keep scale 1.0, so turning classes on never perturbs
        traffic to machines outside the region topology."""
        self._region_scales = (intra_zone, intra_region, inter_region)
        self._pair_scale_cache.clear()

    def _pair_scale(self, src: str, dst: str) -> float:
        cached = self._pair_scale_cache.get((src, dst))
        if cached is not None:
            return cached
        intra_zone, intra_region, inter_region = self._region_scales
        src_region, src_zone = self._placement.get(src, ("", ""))
        dst_region, dst_zone = self._placement.get(dst, ("", ""))
        if not src_region or not dst_region:
            scale = 1.0
        elif src_region != dst_region:
            scale = inter_region
        elif src_zone == dst_zone:
            scale = intra_zone
        else:
            scale = intra_region
        self._pair_scale_cache[(src, dst)] = scale
        return scale

    def partition(self, a: Machine | str, b: Machine | str) -> None:
        """Cut the link between two machines (both directions)."""
        a, b = self._name(a), self._name(b)
        self._partitions.add((a, b))
        self._partitions.add((b, a))

    def partition_oneway(self, src: Machine | str, dst: Machine | str) -> None:
        """Cut only the src -> dst direction: src's messages to dst are
        lost while dst can still reach src — the classic asymmetric-link
        failure that turns gossip false alarms into refutation tests."""
        self._partitions.add((self._name(src), self._name(dst)))

    def heal(self, a: Machine | str, b: Machine | str) -> None:
        """Restore the link between two machines (both directions)."""
        a, b = self._name(a), self._name(b)
        self._partitions.discard((a, b))
        self._partitions.discard((b, a))

    def heal_oneway(self, src: Machine | str, dst: Machine | str) -> None:
        """Restore only the src -> dst direction."""
        self._partitions.discard((self._name(src), self._name(dst)))

    def heal_all(self) -> None:
        """Restore every cut link."""
        self._partitions.clear()

    def partitioned(self, src: Machine | str, dst: Machine | str) -> bool:
        """True when traffic *from* ``src`` *to* ``dst`` is currently cut.

        Symmetric partitions (the historical kind) answer True in both
        argument orders; a one-way cut answers True only in the cut
        direction.
        """
        return (self._name(src), self._name(dst)) in self._partitions

    def partition_region(self, region: str) -> list[tuple[str, str]]:
        """Isolate a region: cut both directions between every machine
        placed in ``region`` and every other machine on the fabric
        (placed elsewhere or not placed at all).  Returns the directed
        links actually added, so a helper can restore precisely the
        prior state."""
        inside = set(self.machines_in_region(region))
        added: list[tuple[str, str]] = []
        for a in sorted(inside):
            for b in sorted(self.machines):
                if b in inside:
                    continue
                for link in ((a, b), (b, a)):
                    if link not in self._partitions:
                        self._partitions.add(link)
                        added.append(link)
        return added

    def heal_region(self, region: str) -> None:
        """Drop every cut link touching a machine placed in ``region``."""
        inside = set(self.machines_in_region(region))
        self._partitions = {
            link
            for link in self._partitions
            if link[0] not in inside and link[1] not in inside
        }

    @staticmethod
    def _name(machine: Machine | str) -> str:
        return machine if isinstance(machine, str) else machine.name

    # ------------------------------------------------------------------
    # forwarded door calls (the kernel's fabric hook)
    # ------------------------------------------------------------------

    def carry(
        self, caller: "Domain", door: "Door", buffer: "MarshalBuffer"
    ) -> "MarshalBuffer":
        """Kernel fabric hook: forward one door call between machines."""
        server = door.server
        ctx = buffer.ctx
        deadline = ctx.get(DEADLINE) if ctx is not None else None
        # A request refused on its leg or by the serving machine's incoming
        # leg (busy, dead, late) is recycled by the caller's failure path.
        self._leg(caller, server, buffer, deadline, "request")
        reply = self.kernel.incoming(door, buffer)
        # A reply that does not reach the caller is nobody else's to clean
        # up: whatever loses it, drop its in-transit doors and return it to
        # its server-side pool here.
        try:
            self._leg(server, caller, reply, deadline, "reply")
        except BaseException:
            reply.recycle()
            raise
        return reply

    def _leg(
        self,
        sender: "Domain",
        receiver: "Domain",
        message: "MarshalBuffer",
        deadline: float | None,
        leg: str,
    ) -> None:
        """Carry one leg of a call, its request or its reply, from the
        sender's machine to the receiver's.  Raises, having charged only
        what came before, when the link is cut, the link model drops the
        message, or the deadline passes before it leaves or as it lands."""
        out_of, into = sender.machine, receiver.machine
        # The link model and wire time see the call's direction: caller to server.
        src, dst = (out_of, into) if leg == "request" else (into, out_of)
        if (out_of.name, into.name) in self._partitions:
            raise NetworkPartitionError(
                f"machines {src.name!r} and {dst.name!r} are partitioned"
                if leg == "request"
                else f"reply lost: machines {src.name!r} and {dst.name!r} partitioned"
            )
        kernel = self.kernel
        chaos = kernel.chaos
        if chaos is not None:
            chaos.on_carry(src, dst, leg)
        if leg == "request":
            self.calls_carried += 1
        # The sending machine's network server translates the riding door
        # identifiers to network form, and the receiving one back again.
        doors = message.live_door_count() if message.doors else 0
        clock = kernel.clock
        tracer = kernel.tracer
        traced = tracer.enabled
        outbound, inbound = _SPANS[leg]
        if traced:
            with tracer.begin_span(
                sender, outbound, "netserver", machine=out_of.name, doors=doors
            ):
                if doors:
                    clock.advance(TRANSLATE_DOOR_US * doors, "net_door_translate")
        elif doors:
            clock.advance(TRANSLATE_DOOR_US * doors, "net_door_translate")
        if deadline is not None and clock.now_us >= deadline:
            raise DeadlineExceeded(f"the {leg} left {out_of.name!r} after the deadline")
        self._wire_time(message.size, src, dst)
        if traced:
            with tracer.begin_span(
                receiver, inbound, "netserver", machine=into.name, doors=doors
            ):
                if doors:
                    clock.advance(TRANSLATE_DOOR_US * doors, "net_door_translate")
        elif doors:
            clock.advance(TRANSLATE_DOOR_US * doors, "net_door_translate")
        if deadline is not None and clock.now_us >= deadline:
            raise DeadlineExceeded(
                f"deadline passed on the request wire leg to {dst.name!r}"
                if leg == "request"
                else f"reply from {dst.name!r} landed after the deadline"
            )

    def _wire_time(self, size: int, src: Machine | str, dst: Machine | str) -> None:
        us = self.latency_us + self.bandwidth_us_per_byte * size
        if self._region_scales is not None:
            us *= self._pair_scale(self._name(src), self._name(dst))
        chaos = self.kernel.chaos
        if chaos is not None:
            us = chaos.wire_us(src, dst, us)
        self.kernel.clock.advance(us, "network")

    # ------------------------------------------------------------------
    # datagrams (unreliable; used by the video subcontract)
    # ------------------------------------------------------------------

    def register_port(
        self, machine: Machine | str, port: str, callback: Callable[[bytes], None]
    ) -> None:
        """Listen for datagrams on (machine, port)."""
        key = (self._name(machine), port)
        if key in self._ports:
            raise ValueError(f"port {port!r} already registered on {key[0]!r}")
        self._ports[key] = callback

    def unregister_port(self, machine: Machine | str, port: str) -> None:
        """Stop listening on (machine, port)."""
        self._ports.pop((self._name(machine), port), None)

    def send_datagram(
        self, src: Machine | str, dst: Machine | str, port: str, payload: bytes
    ) -> bool:
        """Offer one datagram to the network; returns True if delivered.

        Datagrams are silently dropped on partition, on loss (per the
        fabric's loss model), or when nobody listens on the port — there
        are no replies and no errors, which is the property the video
        subcontract is built to tolerate.
        """
        self.datagrams_sent += 1
        if self.partitioned(src, dst):
            return False
        if self.datagram_loss > 0 and self._rng.random() < self.datagram_loss:
            return False
        chaos = self.kernel.chaos
        if chaos is not None:
            # The fault plane applies its link model (drop / duplicate /
            # reorder / delay) and calls back into _deliver_datagram.
            return chaos.send_datagram(self, src, dst, port, payload)
        return self._deliver_datagram(src, dst, port, payload)

    def _deliver_datagram(
        self, src: Machine | str, dst: Machine | str, port: str, payload: bytes
    ) -> bool:
        """Actual delivery: port lookup, wire time, callback."""
        callback = self._ports.get((self._name(dst), port))
        if callback is None:
            return False
        if self._name(src) != self._name(dst):
            self._wire_time(len(payload), src, dst)
        self.datagrams_delivered += 1
        callback(bytes(payload))
        return True
