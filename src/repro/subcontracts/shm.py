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
import struct
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.core.object import SpringObject
from repro.marshal.buffer import MarshalBuffer
from repro.marshal.envelope import ChannelClosedError
from repro.marshal.errors import MarshalError
from repro.subcontracts.common import SingleDoorRep
from repro.subcontracts.singleton import SingleDoorClient, SingleDoorServer

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.doors import DoorHandler

__all__ = [
    "ShmClient",
    "ShmServer",
    "SharedRegion",
    "REGION_PREAMBLE",
    "REGION_MAGIC",
    "pack_region_preamble",
    "unpack_region_preamble",
    "PreambleRing",
]

_region_uids = itertools.count(1)

# ---------------------------------------------------------------------------
# region preamble framing (shared with the process fabric's bulk ring)
# ---------------------------------------------------------------------------

#: every chunk of bytes placed in a shared region is framed by this
#: preamble: magic, version, payload length, region/record uid.  The
#: process fabric's bulk-bytes ring reuses the same framing, so a ring
#: record *is* a shared-region chunk as far as the marshal layer cares.
REGION_PREAMBLE = struct.Struct("<HHIQ")
REGION_MAGIC = 0x5B9A
REGION_VERSION = 1

#: a preamble whose uid is 0 marks dead space to the end of the ring
_RING_WRAP_UID = 0


def pack_region_preamble(uid: int, length: int) -> bytes:
    """Frame ``length`` payload bytes belonging to region/record ``uid``."""
    return REGION_PREAMBLE.pack(REGION_MAGIC, REGION_VERSION, length, uid)


def unpack_region_preamble(view: Any, offset: int = 0) -> tuple[int, int]:
    """Read a preamble at ``offset``; returns ``(uid, length)``."""
    magic, version, length, uid = REGION_PREAMBLE.unpack_from(view, offset)
    if magic != REGION_MAGIC or version != REGION_VERSION:
        raise MarshalError(
            f"bad region preamble at +{offset}: magic={magic:#x} version={version}"
        )
    return uid, length


class PreambleRing:
    """A single-producer single-consumer byte ring over a shared buffer.

    Records are framed with :data:`REGION_PREAMBLE` — the shm
    subcontract's region framing, factored out so the process fabric's
    bulk-bytes path speaks the same format.  The first 16 bytes of the
    backing buffer hold two free-running u64 counters (consumer head,
    producer tail); the rest is the data area.  Records never wrap: when
    the tail is too close to the boundary the producer writes a wrap
    marker (uid 0) and continues at the start.  Each side keeps its own
    counter locally and publishes it to the header after every
    operation, so the two processes only ever *read* each other's
    counter (8-byte aligned loads; a stale read just means waiting one
    more poll interval).

    One record may use at most half the ring (:attr:`max_payload` plus
    the preamble): consumers are told about a record only after it is
    fully written, so a larger record could wait on room that only
    consuming that same record's wrap marker would free.  Transports
    send larger payloads inline on their socket instead.

    Payload offsets returned by :meth:`write` are free-running counters
    (not buffer positions); the consumer's :meth:`take` cross-checks the
    offset carried in the envelope against its own running position, so
    a desynchronized ring fails loudly instead of handing back the wrong
    bytes.

    The poll loops are bounded: ``peer_alive`` (when set) is checked on
    every poll and ``stall_timeout_s`` (when set) caps one wait, either
    raising :class:`~repro.marshal.envelope.ChannelClosedError` so a
    dead or wedged peer unblocks the waiter instead of wedging it too.
    """

    _HEAD = struct.Struct("<Q")
    _HEADER_BYTES = 16
    _PREAMBLE = REGION_PREAMBLE.size

    def __init__(
        self,
        buf: Any,
        poll_s: float = 0.0002,
        peer_alive: Callable[[], bool] | None = None,
        stall_timeout_s: float | None = None,
    ) -> None:
        if len(buf) <= self._HEADER_BYTES + self._PREAMBLE:
            raise ValueError("ring buffer too small")
        self.buf = buf
        self.capacity = len(buf) - self._HEADER_BYTES
        self.poll_s = poll_s
        self.peer_alive = peer_alive
        self.stall_timeout_s = stall_timeout_s
        self._head = 0  # consumer-local position
        self._tail = 0  # producer-local position
        self._uids = itertools.count(1)

    @property
    def max_payload(self) -> int:
        """Largest payload :meth:`write` accepts (half capacity, framed)."""
        return self.capacity // 2 - self._PREAMBLE

    # -- shared-counter plumbing ---------------------------------------

    def _published_head(self) -> int:
        return self._HEAD.unpack_from(self.buf, 0)[0]

    def _published_tail(self) -> int:
        return self._HEAD.unpack_from(self.buf, 8)[0]

    def _publish_head(self) -> None:
        self._HEAD.pack_into(self.buf, 0, self._head)

    def _publish_tail(self) -> None:
        self._HEAD.pack_into(self.buf, 8, self._tail)

    # -- producer side -------------------------------------------------

    def write(self, payload: "bytes | bytearray | memoryview") -> int:
        """Append one framed record; returns the payload's ring offset.

        Blocks (polling the consumer's published head) until the ring
        has room.  Only the producing side of a direction may call this.
        """
        view = memoryview(payload)
        record = self._PREAMBLE + len(view)
        if record > self.capacity // 2:
            # Consumers learn about a record only after it is fully
            # written (the envelope header follows the ring append), so
            # a record needing more than half the ring can block on room
            # that only consuming *this* record's wrap would free — a
            # protocol deadlock.  Refuse; transports fall back to the
            # inline socket path for such payloads.
            raise MarshalError(
                f"record of {len(view)}B exceeds ring budget "
                f"{self.max_payload}B (half of {self.capacity}B capacity)"
            )
        base = self._HEADER_BYTES
        pos = self._tail % self.capacity
        if self.capacity - pos < record:
            # Not enough contiguous room: retire the remainder of the
            # ring in its own step — wait for the dead bytes alone,
            # write a wrap marker when a preamble fits, publish — then
            # wait for the record separately at the boundary.  Waiting
            # for record+dead in one step can demand more than the
            # ring's capacity, which no amount of consuming satisfies.
            dead = self.capacity - pos
            self._wait_for_room(dead)
            if dead >= self._PREAMBLE:
                self.buf[base + pos : base + pos + self._PREAMBLE] = (
                    REGION_PREAMBLE.pack(REGION_MAGIC, REGION_VERSION, 0, _RING_WRAP_UID)
                )
            self._tail += dead
            self._publish_tail()
            pos = 0
        self._wait_for_room(record)
        uid = next(self._uids)
        self.buf[base + pos : base + pos + self._PREAMBLE] = pack_region_preamble(
            uid, len(view)
        )
        start = base + pos + self._PREAMBLE
        self.buf[start : start + len(view)] = view
        payload_off = self._tail + self._PREAMBLE
        self._tail += record
        self._publish_tail()
        return payload_off

    def _wait_for_room(self, needed: int) -> None:
        self._poll(
            lambda: self.capacity - (self._tail - self._published_head()) >= needed,
            "ring room",
        )

    # -- consumer side -------------------------------------------------

    def take(self, length: int, expected_off: int | None = None) -> bytes:
        """Consume the next record's payload as bytes and free its space.

        Blocks (polling the producer's published tail) until the record
        has landed.  ``expected_off`` is the envelope's cross-check.
        """
        self._wait_for_data(self._PREAMBLE)
        pos = self._head % self.capacity
        if self.capacity - pos < self._PREAMBLE:
            self._head += self.capacity - pos
            self._wait_for_data(self._PREAMBLE)
            pos = 0
        base = self._HEADER_BYTES
        uid, found = unpack_region_preamble(self.buf, base + pos)
        if uid == _RING_WRAP_UID:
            self._head += self.capacity - pos
            self._publish_head()
            return self.take(length, expected_off)
        if found != length:
            raise MarshalError(
                f"ring record length mismatch: envelope says {length}B, "
                f"preamble says {found}B"
            )
        payload_off = self._head + self._PREAMBLE
        if expected_off is not None and expected_off != payload_off:
            raise MarshalError(
                f"ring desynchronized: envelope offset {expected_off} != "
                f"consumer position {payload_off}"
            )
        self._wait_for_data(self._PREAMBLE + length)
        start = base + pos + self._PREAMBLE
        payload = bytes(self.buf[start : start + length])
        self._head += self._PREAMBLE + length
        self._publish_head()
        return payload

    def _wait_for_data(self, needed: int) -> None:
        self._poll(lambda: self._published_tail() - self._head >= needed, "ring data")

    def _poll(self, ready: Callable[[], bool], what: str) -> None:
        """Poll ``ready`` with peer-liveness and stall bounds.

        Raises :class:`ChannelClosedError` when the peer is reported
        dead or the wait exceeds ``stall_timeout_s``; the waiter's
        transport translates that into its own dead-server error.
        """
        if ready():
            return
        # The stall bound accumulates slept poll intervals rather than
        # reading host time: at least ``stall_timeout_s`` of waiting
        # passes before giving up, and no wall clock leaks in here.
        remaining = self.stall_timeout_s
        while True:
            if self.peer_alive is not None and not self.peer_alive():
                raise ChannelClosedError(f"ring peer died while waiting for {what}")
            if remaining is not None and remaining <= 0.0:
                raise ChannelClosedError(
                    f"ring stalled waiting for {what} "
                    f"for over {self.stall_timeout_s:.1f}s"
                )
            time.sleep(self.poll_s)
            if remaining is not None:
                remaining -= self.poll_s
            if ready():
                return


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
