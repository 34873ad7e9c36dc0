"""Communication buffers.

A :class:`MarshalBuffer` is what the paper calls a "communications
buffer": stubs marshal arguments into it, subcontracts write their control
information and subcontract IDs into it, the kernel carries it through a
door, and the receiving side unmarshals from it.  It *is* a
:class:`~repro.marshal.codec.TaggedStream` — each ``put_*`` charges the
kernel's clock per item, a generated stub per run of items — plus
what only a communications buffer has:

* **Door identifiers travel out-of-band.**  Marshalling a door identifier
  consumes the sender's identifier (kernel ``detach``), parks a transit
  reference in the buffer's *door vector*, and writes only a small slot
  index into the byte stream.  Unmarshalling attaches the transit
  reference into the receiving domain.  Identifiers therefore cannot be
  forged from bytes — the capability model of Section 3.3 survives.

* **Subcontracts may prepend data.**  ``invoke_preamble`` (Section 5.1.4)
  lets a subcontract write control information *before* argument
  marshalling begins, or redirect marshalling into a shared-memory region;
  the buffer supports both by being an ordinary append stream plus an
  optional backing-region marker.

Buffers on the invocation hot path are pooled: each domain keeps a small
free-list (:meth:`repro.kernel.domain.Domain.acquire_buffer`), and
:meth:`release` resets a buffer and returns it to its home pool.  Only
pool-acquired buffers participate — ``MarshalBuffer(kernel)`` constructs
an unpooled buffer whose ``release`` is a no-op.  Misuse of a pooled
buffer (double release, release while still parking live in-transit door
references, any put/get after release) raises
:class:`~repro.marshal.errors.BufferLifecycleError` at the misuse site:
``release`` swaps the stream's byte store for a sentinel that refuses
every use, and ``acquire_buffer`` swaps the store back.  Failure paths
that may hold in-transit references clean up with :meth:`recycle`, which
discards and then releases.
"""

from __future__ import annotations

import os
import traceback
from typing import TYPE_CHECKING, Any, NoReturn

from repro.marshal.codec import TaggedStream
from repro.marshal.errors import BufferLifecycleError, DoorVectorError, MarshalError

if TYPE_CHECKING:
    from repro.kernel.domain import Domain
    from repro.kernel.doors import DoorIdentifier, TransitDoorRef
    from repro.kernel.nucleus import Kernel

__all__ = ["MarshalBuffer"]

#: free-list bound per domain; beyond this, released buffers are retired
POOL_LIMIT = 32

#: when true (REPRO_DEBUG=1 at import, or set by tests), release() records
#: the releasing stack so a later double release can name the first site
_DEBUG = os.environ.get("REPRO_DEBUG", "") not in ("", "0")


def _use_after_release(*_: Any) -> NoReturn:
    raise BufferLifecycleError(
        "a released marshal buffer was used: this handle was returned to "
        "its domain's pool (use-after-release)"
    )


class _ReleasedStream:
    """Stands in for a released buffer's byte store.

    Every put/get reads or appends to ``data`` before it charges or moves
    anything, so a stale handle fails immediately and by name — on a
    method, ``len()``, indexing, slicing or ``+=`` — instead of corrupting
    a buffer the pool may already have handed to another caller.  The
    swap costs nothing on the live hot path.
    """

    __slots__ = ()

    __len__ = __getitem__ = __setitem__ = __delitem__ = _use_after_release
    __iadd__ = __bytes__ = __getattr__ = _use_after_release


_RELEASED = _ReleasedStream()


class MarshalBuffer(TaggedStream):
    """A tagged byte stream plus a kernel-managed door vector."""

    __slots__ = (
        "kernel",
        "doors",
        "region",
        "sealed",
        "ctx",
        "_backing",
        "_home",
        "_pooled",
        "_retired",
        "_released_at",
    )

    def __init__(self, kernel: "Kernel | None" = None) -> None:
        super().__init__()
        self.kernel = kernel
        self._clock = kernel.clock if kernel is not None else None
        #: the byte store ``data`` is while the buffer is live
        self._backing = self.data
        #: out-of-band door references; entries become None once consumed
        self.doors: list["TransitDoorRef | None"] = []
        #: set by the shm subcontract's invoke_preamble: marshalling is
        #: going directly into a shared region, so transmission need not
        #: copy the bytes again (Section 5.1.4).
        self.region: Any | None = None
        self.sealed = False
        #: the call context (repro.marshal.context) stamped at door_call;
        #: like ``doors``, it crosses without entering the marshalled bytes
        self.ctx: dict | None = None
        #: home pool (a Domain) when acquired via Domain.acquire_buffer
        self._home: "Domain | None" = None
        self._pooled = False
        self._retired = False
        self._released_at: str | None = None

    # ------------------------------------------------------------------
    # door identifiers (out-of-band)
    # ------------------------------------------------------------------

    def put_door_id(self, domain: "Domain", ident: "DoorIdentifier") -> None:
        """Marshal a door identifier: consume it from ``domain``, park it
        in the door vector, and write its slot index into the stream."""
        if self.data is _RELEASED:  # refuse before the identifier leaves
            _use_after_release()
        self._park_transit(domain.kernel.detach_door_id(domain, ident))

    def put_door_transit(self, transit: "TransitDoorRef") -> None:
        """Park an already-detached door reference (forwarding paths)."""
        self._park_transit(transit)

    def _park_transit(self, transit: "TransitDoorRef") -> None:
        slot = len(self.doors)
        if slot > 0xFFFF:
            raise MarshalError("door vector overflow (65536 entries)")
        self.put_door_slot(slot)
        self.doors.append(transit)
        if self._clock is not None:
            self._clock.charge("marshal_door_id")

    def get_door_id(self, domain: "Domain") -> "DoorIdentifier":
        """Unmarshal a door identifier into ``domain``'s capability table."""
        return domain.kernel.attach_door_id(domain, self.get_door_transit())

    def get_door_transit(self) -> "TransitDoorRef":
        """Take the next door reference without attaching it (forwarding)."""
        slot = self.get_door_slot()
        if slot >= len(self.doors):
            raise DoorVectorError(f"door slot {slot} out of range")
        transit = self.doors[slot]
        if transit is None:
            raise DoorVectorError(f"door slot {slot} already consumed")
        self.doors[slot] = None
        return transit

    # ------------------------------------------------------------------
    # forwarding support (used by interposers like the cache manager)
    # ------------------------------------------------------------------

    def graft_tail(self, other: "MarshalBuffer") -> None:
        """Adopt the unread remainder of ``other`` as this buffer's tail.

        Copies ``other``'s bytes from its read cursor onward and *steals*
        its door vector wholesale (door-slot indices embedded in the tail
        keep referring to the same vector positions).  Lets an interposer
        re-address a request without understanding its contents.
        """
        if self.doors:
            raise MarshalError("graft_tail requires an empty door vector")
        self.data.extend(other.data[other.pos :])
        self.doors = other.doors
        other.doors = []

    # ------------------------------------------------------------------
    # rollback support (used by skeletons and retrying subcontracts)
    # ------------------------------------------------------------------

    def mark(self) -> tuple[int, int]:
        """Snapshot the write position (bytes written, doors parked)."""
        return (len(self.data), len(self.doors))

    def truncate(self, marker: tuple[int, int]) -> None:
        """Roll the write side back to a :meth:`mark` snapshot.

        Bytes written after the mark are dropped and door references
        parked after the mark are released, so a skeleton that fails
        halfway through marshalling a result can replace the partial
        output with an exception reply without corrupting the stream.
        """
        data_len, door_len = marker
        del self.data[data_len:]
        for transit in self.doors[door_len:]:
            if transit is not None and transit.live and self.kernel is not None:
                self.kernel.discard_transit(transit)
        del self.doors[door_len:]
        if self.pos > len(self.data):
            self.pos = len(self.data)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def seal_for_transmission(self, sender: "Domain") -> None:
        """Kernel hook run at the transmission boundary.

        All door references are already in transit form (``put_door_id``
        detaches eagerly), so sealing only rewinds the read cursor for the
        receiving side.  Sealing is idempotent per hop.  (``door_call``
        seals inline: these same two stores.)
        """
        self.pos = 0
        self.sealed = True

    def discard(self) -> None:
        """Destroy the buffer, releasing unconsumed in-transit door refs.

        Without this, a message that is never delivered would pin its
        doors' refcounts forever and their servers would never see an
        unreferenced notification.
        """
        if self.kernel is not None:
            for transit in self.doors:
                if transit is not None and transit.live:
                    self.kernel.discard_transit(transit)
        self.doors = [None] * len(self.doors)

    # ------------------------------------------------------------------
    # pooling (hot-path allocation reuse)
    # ------------------------------------------------------------------

    def release(self) -> None:
        """Return a pool-acquired buffer to its home domain's free-list.

        Unpooled buffers (plain ``MarshalBuffer(kernel)``) ignore the
        call.  Two misuses raise :class:`BufferLifecycleError` at the
        call site instead of corrupting the pool and failing later via
        the pristine-state check:

        * **double release** — the buffer is already back in (or retired
          from) its pool; with ``REPRO_DEBUG=1`` the message names the
          first release site;
        * **release in transit** — the buffer still parks live in-transit
          door references.  Pooling must never change refcount semantics;
          call :meth:`discard` first, or :meth:`recycle` to do both.
        """
        if self._pooled or self._retired:
            first = (
                f"; first released at:\n{self._released_at}"
                if self._released_at
                else " (set REPRO_DEBUG=1 to record the first release site)"
            )
            raise BufferLifecycleError(
                "double release of a pooled marshal buffer" + first
            )
        home = self._home
        if home is None:
            return
        if self.doors:
            live = self.live_door_count()
            if live:
                raise BufferLifecycleError(
                    f"released while parking {live} live in-transit door "
                    "reference(s); discard() them first, or use recycle()"
                )
            self.doors = []
        if _DEBUG:
            self._released_at = "".join(traceback.format_stack(limit=8)[:-1])
        self._backing.clear()
        self.region = None
        self.sealed = False
        self.ctx = None
        self.pos = 0
        # Stale handles now fail loudly on any put/get (use-after-release).
        self.data = _RELEASED
        home.buffer_releases += 1
        pool = home._buffer_pool
        if len(pool) < POOL_LIMIT:
            # Race-detector edge: returning to the pool happens-before
            # the next acquire that hands this buffer to another thread.
            ts = self.kernel.tsan
            if ts is not None:
                ts.on_buffer_release(self)
            self._pooled = True
            pool.append(self)
        else:
            self._retired = True
            self._home = None

    def recycle(self) -> None:
        """Discard any live in-transit door references, then release.

        The sanctioned cleanup for failure paths: a request that never
        reached its server (or a reply that never reached its caller) may
        still park detached door references, which :meth:`release`
        refuses to pool.  Recycle drops them — firing unreferenced
        notifications exactly as an undelivered message must — and then
        returns the buffer to its pool.
        """
        if self.doors and self.live_door_count():
            self.discard()
        self.release()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of marshalled bytes (excludes the door vector)."""
        return len(self.data)

    def live_door_count(self) -> int:
        """Unconsumed door references parked in the door vector."""
        if not self.doors:
            return 0
        return sum(1 for t in self.doors if t is not None and t.live)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MarshalBuffer {len(self._backing)}B doors={self.live_door_count()}"
            f" pos={self.pos}>"
        )
