"""Per-machine network server bookkeeping.

The paper's network servers do two jobs: forward door invocations over
the network, and map door identifiers to and from an extended network
form.  In this emulation the forwarding is performed by the fabric (one
shared Python process stands in for all machines), but the *translation
work* — every door identifier crossing a machine boundary must be
converted to a network handle on the way out and back to a local
identifier on the way in — is accounted here, per machine, so tests and
benches can observe exactly how many translations each workload causes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.errors import DeadlineExceeded
from repro.marshal.context import DEADLINE

if TYPE_CHECKING:
    from repro.kernel.domain import Domain
    from repro.net.machine import Machine

__all__ = ["NetworkServer"]

#: simulated cost of translating one door identifier to/from network form
TRANSLATE_DOOR_US = 6.0

#: span names, precomputed (clock-discipline: no hot-path formatting)
_SPAN_OUTBOUND = "netserver.outbound"
_SPAN_INBOUND = "netserver.inbound"
_SPAN_OUTBOUND_REPLY = "netserver.outbound_reply"
_SPAN_INBOUND_REPLY = "netserver.inbound_reply"


class NetworkServer:
    """Statistics and translation accounting for one machine."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.calls_forwarded = 0
        self.replies_forwarded = 0
        self.doors_exported = 0  # local identifiers -> network handles
        self.doors_imported = 0  # network handles -> local identifiers

    def outbound(self, door_count: int, domain: "Domain | None" = None) -> None:
        """A request is leaving this machine carrying ``door_count`` doors."""
        self.calls_forwarded += 1
        self.doors_exported += door_count
        self._charge(door_count, _SPAN_OUTBOUND, domain)

    def inbound(self, door_count: int, domain: "Domain | None" = None) -> None:
        """A request is arriving at this machine carrying ``door_count`` doors."""
        self.doors_imported += door_count
        self._charge(door_count, _SPAN_INBOUND, domain)

    def outbound_reply(self, door_count: int, domain: "Domain | None" = None) -> None:
        """A reply is leaving this machine carrying doors."""
        self.replies_forwarded += 1
        self.doors_exported += door_count
        self._charge(door_count, _SPAN_OUTBOUND_REPLY, domain)

    def inbound_reply(self, door_count: int, domain: "Domain | None" = None) -> None:
        """A reply is arriving at this machine carrying doors."""
        self.doors_imported += door_count
        self._charge(door_count, _SPAN_INBOUND_REPLY, domain)

    def _charge(self, door_count: int, span_name: str, domain: "Domain | None") -> None:
        kernel = self.machine.kernel
        tracer = kernel.tracer
        if tracer.enabled and domain is not None:
            with tracer.begin_span(
                domain, span_name, "netserver", machine=self.machine.name, doors=door_count
            ):
                if door_count:
                    kernel.clock.advance(
                        TRANSLATE_DOOR_US * door_count, "net_door_translate"
                    )
        elif door_count:
            kernel.clock.advance(
                TRANSLATE_DOOR_US * door_count, "net_door_translate"
            )
        # Deadline enforcement at the translation leg.  Invocation legs
        # run synchronously on the calling thread, so the thread's call
        # context holds the same deadline the buffer carries.
        ctx = kernel.context.value
        dl = ctx.get(DEADLINE) if ctx is not None else None
        if dl is not None and kernel.clock.now_us >= dl:
            raise DeadlineExceeded(
                f"deadline passed at {span_name} on machine {self.machine.name!r}"
            )
