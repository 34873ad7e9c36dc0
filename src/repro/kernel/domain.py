"""Domains: Spring's unit of protection (Section 3.3).

"Spring applications run as separate *domains*.  Each domain is an address
space plus a collection of threads."

In this emulation a domain is an isolated object space: the only supported
ways for state to leave a domain are (a) bytes written into a marshal
buffer and (b) kernel-translated door identifiers.  Python references are
never handed across domains by the library itself; tests assert this
discipline at the marshal layer.

Each domain carries a subcontract registry (attached lazily by
:mod:`repro.core.registry`) because Section 6.2's dynamic discovery is a
per-domain event: *this* program may not yet have the replicon library
loaded even though its peer does.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from repro.kernel.errors import DomainCrashedError
from repro.marshal.buffer import MarshalBuffer
from repro.marshal.errors import MarshalError

if TYPE_CHECKING:
    from repro.kernel.doors import DoorIdentifier
    from repro.kernel.nucleus import Kernel

__all__ = ["Domain"]

_domain_uids = itertools.count(1)


class Domain:
    """An address space plus a collection of threads.

    Domains are created through :meth:`Kernel.create_domain`; they keep a
    back-reference to their kernel so higher layers (marshal buffers,
    subcontracts) can reach kernel services through the domain they are
    acting for.
    """

    def __init__(self, kernel: "Kernel", name: str) -> None:
        self.uid = next(_domain_uids)
        self.kernel = kernel
        self.name = name
        self.alive = True
        #: door identifiers owned by this domain, keyed by identifier uid
        self.door_ids: dict[int, "DoorIdentifier"] = {}
        #: doors this domain serves (it created them), keyed by door uid
        self.served_doors: dict[int, Any] = {}
        #: machine this domain runs on; assigned by repro.net.machine
        self.machine: Any | None = None
        #: per-domain subcontract registry; attached by repro.core.registry
        self.subcontract_registry: Any | None = None
        #: scratch storage for services running in this domain
        self.locals: dict[str, Any] = {}
        #: free-list of reusable marshal buffers (invocation hot path)
        self._buffer_pool: list[MarshalBuffer] = []
        #: pool-lifecycle counters; at quiescence acquires == releases,
        #: which is the no-leak invariant the chaos soak asserts
        self.buffer_acquires = 0
        self.buffer_releases = 0
        #: per-domain span ring; attached lazily by repro.obs when tracing
        self._trace_ring: Any | None = None

    # ------------------------------------------------------------------
    # marshal-buffer pool (invocation hot path)
    # ------------------------------------------------------------------

    def acquire_buffer(self) -> MarshalBuffer:
        """Take a reusable marshal buffer from this domain's free-list.

        The buffer's :meth:`~repro.marshal.buffer.MarshalBuffer.release`
        resets it and returns it here.  List append/pop are atomic under
        the GIL, so domain threads share the pool without a lock.
        """
        self.buffer_acquires += 1
        pool = self._buffer_pool
        if pool:
            buffer = pool.pop()
            ts = self.kernel.tsan
            if ts is not None:
                ts.on_buffer_acquire(buffer)
            buffer._pooled = False
            buffer._released_at = None
            # Re-arm the byte store (release() left the use-after-release
            # sentinel in its place), then check it came back pristine.
            data = buffer.data = buffer._backing
            if data or buffer.doors or buffer.region is not None or buffer.pos:
                raise MarshalError(
                    f"pooled buffer reacquired dirty: {len(data)}B "
                    f"doors={len(buffer.doors)} region={buffer.region!r} "
                    f"pos={buffer.pos}"
                )
            return buffer
        buffer = MarshalBuffer(self.kernel)
        buffer._home = self
        return buffer

    # ------------------------------------------------------------------
    # capability bookkeeping (called only by the kernel)
    # ------------------------------------------------------------------

    def _adopt(self, ident: "DoorIdentifier") -> None:
        self.door_ids[ident.uid] = ident

    def _disown(self, ident: "DoorIdentifier") -> None:
        self.door_ids.pop(ident.uid, None)

    def owns(self, ident: "DoorIdentifier") -> bool:
        """True when this domain is the current legitimate owner of ``ident``."""
        return ident.uid in self.door_ids and ident.owner is self

    def check_alive(self) -> None:
        """Raise :class:`DomainCrashedError` unless this domain is running."""
        if not self.alive:
            raise DomainCrashedError(f"domain {self.name!r} has crashed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.alive else "crashed"
        return f"<Domain #{self.uid} {self.name!r} {status} ids={len(self.door_ids)}>"
