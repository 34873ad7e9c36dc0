"""The shared-memory subcontract (Section 5.1.4).

"We have some subcontracts that use shared memory regions to communicate
with their servers.  In this case when invoke_preamble is called, the
subcontract can adjust the communications buffer to point into the shared
memory region so that arguments are directly marshalled into the region,
rather than having to be copied there after all marshalling is complete."

``invoke_preamble`` is the whole point of this subcontract: it is the
operation that exists *because* some subcontracts need control before any
argument marshalling has begun.  When client and server share a machine,
the preamble attaches a shared region to the buffer; ``invoke`` then
skips the marshal-then-copy step that the single-door subcontracts charge
for.  Cross-machine objects degrade to plain copying.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from repro.core.object import SpringObject
from repro.marshal.buffer import MarshalBuffer
from repro.subcontracts.common import SingleDoorRep
from repro.subcontracts.singleton import SingleDoorClient, SingleDoorServer

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.doors import DoorHandler

__all__ = ["ShmClient", "ShmServer", "SharedRegion"]

_region_uids = itertools.count(1)


class SharedRegion:
    """A memory region mapped into both the client and server domains.

    In Spring this would be a VM object mapped twice; here it is a marker
    carried on the buffer so the invoke path knows the bytes never need
    copying.  Region setup is not free: creating one costs a (one-time,
    per-call in this simple subcontract) mapping charge.
    """

    __slots__ = ("uid", "machine")

    def __init__(self, machine: Any) -> None:
        self.uid = next(_region_uids)
        self.machine = machine


class ShmClient(SingleDoorClient):
    """Client operations vector for the shared-memory subcontract.

    Inherits the single-door rep/marshal/copy shape; adds the
    invoke_preamble that redirects marshalling into a shared region.
    The inherited invoke skips the copy charge for region-backed buffers
    on both legs (the server writes its reply into the same region).
    """

    id = "shm"

    #: simulated cost of mapping a region into two address spaces
    REGION_SETUP_US = 8.0

    def invoke_preamble(self, obj: SpringObject, buffer: MarshalBuffer) -> None:
        rep: SingleDoorRep = obj._rep
        server_machine = rep.door.door.server.machine
        client_machine = self.domain.machine
        if server_machine is None or server_machine is not client_machine:
            return  # no shared memory across machines; plain copy path
        self.domain.kernel.clock.advance(self.REGION_SETUP_US, "shm_setup")
        buffer.region = SharedRegion(client_machine)


class ShmServer(SingleDoorServer):
    """Server-side shared-memory machinery.

    The handler propagates the request's region onto the reply so the
    reply bytes also avoid the extra copy.
    """

    id = "shm"

    def wrap_handler(
        self, inner: "DoorHandler", impl: Any, binding: "InterfaceBinding"
    ) -> "DoorHandler":
        def handler(request: MarshalBuffer) -> MarshalBuffer:
            reply = inner(request)
            reply.region = request.region
            return reply

        return handler
