"""The synchronized subcontract: objects locked during invocation.

Section 2.2 credits Smalltalk-80 reflection with making it possible "to
implement objects which are automatically locked during invocation"
[Foote & Johnson 1989] — one of the inspirations for applying reflective
control to distributed computing.  This subcontract is that idea in
subcontract form: the server-side machinery holds a per-object mutex
around every dispatch, so implementations need no locking of their own
even when many client threads call concurrently (domains have threads,
Section 3.3).

Client-side it is a plain single-door subcontract; the synchronization is
entirely a server-side policy — which is exactly why it belongs in a
subcontract rather than in every implementation.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.marshal.buffer import MarshalBuffer
from repro.runtime import tsan as _tsan
from repro.subcontracts.singleton import SingleDoorClient, SingleDoorServer

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.doors import Door, DoorHandler

__all__ = ["SynchronizedClient", "SynchronizedServer"]


class SynchronizedClient(SingleDoorClient):
    """Client operations vector for the synchronized subcontract."""

    id = "synchronized"


class SynchronizedServer(SingleDoorServer):
    """Server-side synchronized machinery: one mutex per exported object,
    held for the duration of each dispatch."""

    id = "synchronized"

    def __init__(self, domain: Any) -> None:
        super().__init__(domain)
        #: door handler -> the mutex it dispatches under (introspectable
        #: by tests); an entry leaves with its door
        self.locks: dict["DoorHandler", threading.Lock] = {}
        #: peak number of dispatches observed inside any one object's
        #: critical section; stays 1 when the lock works
        self.peak_concurrency = 0
        self._meta_lock = threading.Lock()

    def wrap_handler(
        self, inner: "DoorHandler", impl: Any, binding: "InterfaceBinding"
    ) -> "DoorHandler":
        raw_lock = threading.Lock()
        # With the race detector installed, the per-object mutex is a
        # named synchronization object (dispatches under it are ordered
        # and their locksets include it); uninstalled this returns
        # raw_lock unchanged.
        lock = _tsan.instrument_lock(
            raw_lock, f"synchronized:{binding.name}@{id(raw_lock):x}"
        )
        in_flight = 0

        def handler(request: MarshalBuffer) -> MarshalBuffer:
            nonlocal in_flight
            with lock:
                with self._meta_lock:
                    in_flight += 1
                    self.peak_concurrency = max(self.peak_concurrency, in_flight)
                try:
                    return inner(request)
                finally:
                    with self._meta_lock:
                        in_flight -= 1

        self.locks[handler] = lock
        return handler

    def retire(self, door: "Door") -> None:
        super().retire(door)
        self.locks.pop(door.handler, None)
