"""The realtime subcontract (Section 8.4, future directions).

"Another is to develop a subcontract that transfers scheduling priority
information between clients and servers for time-critical operations."

The client's scheduling priority (``domain.locals["priority"]``, default
0) is piggybacked on every call; the server-side handler raises the
server domain's effective priority to the caller's for the duration of
the dispatch and restores it afterwards — priority inheritance across the
IPC boundary, entirely inside the subcontract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.object import SpringObject
from repro.marshal.buffer import MarshalBuffer
from repro.subcontracts.singleton import SingleDoorClient, SingleDoorServer

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.doors import DoorHandler

__all__ = ["RealtimeClient", "RealtimeServer", "current_priority", "set_priority"]


def current_priority(domain: Any) -> int:
    """The domain's current scheduling priority (0 = default)."""
    return domain.locals.get("priority", 0)


def set_priority(domain: Any, priority: int) -> None:
    """Set the domain's scheduling priority."""
    domain.locals["priority"] = priority


class RealtimeClient(SingleDoorClient):
    """Client operations vector for the realtime subcontract."""

    id = "realtime"

    def invoke_preamble(self, obj: SpringObject, buffer: MarshalBuffer) -> None:
        # Piggyback the caller's priority ahead of the arguments.
        buffer.put_int32(current_priority(self.domain))


class RealtimeServer(SingleDoorServer):
    """Server-side realtime machinery: inherit the caller's priority
    while dispatching, restore it afterwards."""

    id = "realtime"

    def __init__(self, domain: Any) -> None:
        super().__init__(domain)
        #: highest priority observed while dispatching (tests inspect it)
        self.peak_priority = 0

    def wrap_handler(
        self, inner: "DoorHandler", impl: Any, binding: "InterfaceBinding"
    ) -> "DoorHandler":
        server_domain = self.domain

        def handler(request: MarshalBuffer) -> MarshalBuffer:
            caller_priority = request.get_int32()
            previous = current_priority(server_domain)
            effective = max(previous, caller_priority)
            set_priority(server_domain, effective)
            self.peak_priority = max(self.peak_priority, effective)
            try:
                return inner(request)
            finally:
                set_priority(server_domain, previous)

        return handler
