"""Idempotency keys: naming a logical request so retries are harmless.

PR 4's retry taxonomy makes calls *safe to retry* when the failure
guarantees the server never executed them.  A lost **reply** offers no
such guarantee: the server did the work, the result evaporated on the
wire, and a blind retry executes it twice.  This module closes that gap
from both sides:

* ``with idempotency_key(kernel, key):`` puts a u64 key in the calling
  thread's call context as :data:`IDEM`, stamped out-of-band on every
  buffer the thread transmits: only a scalar crosses, never a Python
  object graph.  The key names one *logical* request, so a retry loop
  holds one key across all its attempts, and it is registered per hop:
  a handler's own calls are new logical requests.
* :class:`DedupMemo` is the server side: a bounded per-door memo of
  recorded reply bytes keyed by idempotency key, modelled on the caching
  subcontract's stale memo.  :func:`wrap_idempotent` splices it in front
  of any door handler — a keyed request whose key was already answered
  returns the recorded bytes instead of re-executing.

The memo MUST be bounded (springlint's ``compensation-discipline`` rule
enforces this): every retried request parks bytes in it, and an
unbounded memo is a slow leak under millions of clients.  Give the memo
a :class:`~repro.services.stable.StableStore` record and the recorded
replies survive server crashes — recovery pays one ``STABLE_SCAN_US``,
and :func:`wrap_idempotent` writes a keyed request's effect, its record
and any eviction as one stable write (one ``STABLE_WRITE_US``), matching
the durable services the memo typically fronts.

Interplay with the rest of the runtime, by design:

* ``DeadlineExceeded`` still beats replay — the deadline gate in
  ``Kernel.door_call`` fires before delivery reaches the memo.
* Circuit breakers never count a dedup hit: the hit path returns a
  healthy reply, so the retry loop records success.
"""

from __future__ import annotations

import struct
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator

from repro.marshal.context import register_key
from repro.runtime import tsan as _tsan

if TYPE_CHECKING:
    from repro.kernel.domain import Domain
    from repro.kernel.nucleus import Kernel
    from repro.marshal.buffer import MarshalBuffer
    from repro.services.stable import StableStore

__all__ = [
    "IDEM",
    "idempotency_key",
    "next_idempotency_key",
    "current_idempotency_key",
    "DedupMemo",
    "wrap_idempotent",
]

#: distinct keys remembered per memo before FIFO eviction
DEDUP_MEMO_ENTRIES = 128

#: only door-free replies up to this size are recorded (caching's cap)
DEDUP_REPLY_CAP = 4096

#: call-context key of the idempotency key; names one hop, not inherited
IDEM = register_key(
    2,
    "idem",
    encode=lambda key, now_us: struct.pack("<Q", key),
    decode=lambda data, now_us: struct.unpack("<Q", data)[0],
    inherit=False,
)


def next_idempotency_key(kernel: "Kernel") -> int:
    """Allocate a fresh key from the kernel-scoped sequence.

    Kernel-scoped (not process-global) so seed-swept replays allocate
    identical keys regardless of test ordering — the same determinism
    contract as txn and saga ids.
    """
    return kernel.next_seq("idem")


def current_idempotency_key(kernel: "Kernel") -> "int | None":
    """The calling thread's active key; ``None`` when unset."""
    ctx = kernel.context.value
    return ctx.get(IDEM) if ctx is not None else None


@contextmanager
def idempotency_key(kernel: "Kernel", key: int) -> Iterator[int]:
    """Stamp ``key`` on every call made in this block.

    A retry loop wraps *all* its attempts in one ``idempotency_key``
    block: the key names the logical request, not the attempt.  Restores
    the caller's prior key (if any) on exit, mirroring ``deadline()``.
    """
    if not isinstance(key, int) or key < 0 or key > 0xFFFFFFFFFFFFFFFF:
        raise ValueError(f"idempotency key must be a u64, got {key!r}")
    local = kernel.context
    prior = local.value
    local.value = {**(prior or {}), IDEM: key}
    try:
        yield key
    finally:
        local.value = prior


@_tsan.shared_state
class DedupMemo:
    """Bounded idempotency-key → recorded-reply-bytes memo for one door.

    Soft state by default; pass ``store``/``record`` to back it with
    stable storage so recorded replies survive server crashes (the memo
    reloads itself from the record set at construction, paying the
    recovery scan).  Under :func:`wrap_idempotent` the entry and eviction
    :meth:`record` commits join the request's write group.  Sibling
    handler threads share the memo, so the dict is tsan-tracked and
    mutations go through an instrumented lock.
    """

    def __init__(
        self,
        entries: int = DEDUP_MEMO_ENTRIES,
        reply_cap: int = DEDUP_REPLY_CAP,
        store: "StableStore | None" = None,
        record: str = "",
    ) -> None:
        if not entries or entries <= 0:
            raise ValueError(
                f"dedup memo must be bounded (entries={entries!r}); "
                "an unbounded memo leaks under retrying clients"
            )
        if (store is None) != (not record):
            raise ValueError("durable memo needs both store and record name")
        self.entries = entries
        self.reply_cap = reply_cap
        self._store = store
        self._record = record
        self.lock = _tsan.instrument_lock(
            threading.Lock(), f"DedupMemo.lock@{id(self):x}"
        )
        memo: dict[int, bytes] = {}
        if store is not None:
            # Recovery scan: reload recorded replies committed by a prior
            # incarnation (insertion order survives, so FIFO age does too).
            for key_hex, value_hex in store.load(record).items():
                memo[int(key_hex, 16)] = bytes.fromhex(value_hex)
        self._memo = _tsan.track(memo, "idem.dedup")
        self.hits = 0
        self.misses = 0
        self.recorded = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._memo)

    def lookup(self, key: int) -> "bytes | None":
        """Recorded reply bytes for ``key``, or ``None`` (a miss counts)."""
        with self.lock:
            data = self._memo.get(key)
            if data is None:
                self.misses += 1
            else:
                self.hits += 1
            return data

    def record(self, key: int, reply: "MarshalBuffer") -> bool:
        """Remember ``reply`` for ``key``; ``False`` if not memoisable.

        Door-carrying replies never record: the bytes alone do not
        reproduce a capability transfer (caching's rule, same reason).
        """
        if reply.doors or len(reply.data) > self.reply_cap:
            return False
        data = bytes(reply.data)
        with self.lock:
            memo = self._memo
            if key not in memo and len(memo) >= self.entries:
                oldest = next(iter(memo))
                del memo[oldest]
                self.evicted += 1
                if self._store is not None:
                    self._store.commit(self._record, f"{oldest:016x}", None)
            memo[key] = data
            self.recorded += 1
        if self._store is not None:
            self._store.commit(self._record, f"{key:016x}", data.hex())
        return True


def wrap_idempotent(
    domain: "Domain",
    inner: Callable[["MarshalBuffer"], "MarshalBuffer"],
    memo: DedupMemo,
) -> Callable[["MarshalBuffer"], "MarshalBuffer"]:
    """Splice ``memo`` in front of a door handler.

    Unkeyed requests pass straight through (one attr read + branch).  A
    keyed request whose key is already recorded returns the recorded
    bytes — the handler does not run again; a keyed miss runs the
    handler and records its reply.
    """
    kernel = domain.kernel
    store = memo._store
    group = store.group if store is not None else None

    def handler(request: "MarshalBuffer") -> "MarshalBuffer":
        ctx = request.ctx
        key = ctx.get(IDEM) if ctx is not None else None
        if key is None:
            return inner(request)
        data = memo.lookup(key)
        if data is None:
            if group is None:
                reply = inner(request)
                recorded = memo.record(key, reply)
            else:
                # The effect, its dedup record and any eviction land as one
                # stable write, before the reply leaves (also on a raise).
                outer = group.records
                group.records = records = []
                try:
                    reply = inner(request)
                    recorded = memo.record(key, reply)
                finally:
                    group.records = outer
                    if records:
                        store.write(records)
            if recorded:
                tracer = kernel.tracer
                if tracer.enabled:
                    tracer.event(
                        "dedup.record", subcontract="idem", bytes=len(reply.data)
                    )
            return reply
        # Replay: the first execution's reply, not a second execution.
        # A door-carrying *request* deduped here still holds live transit
        # refs that no handler will ever claim — discard them so the
        # caller's release balances.
        if request.live_door_count():
            request.discard()
        tracer = kernel.tracer
        if tracer.enabled:
            tracer.event("dedup.hit", subcontract="idem", bytes=len(data))
        reply = domain.acquire_buffer()
        reply.data.extend(data)
        kernel.clock.charge("memory_copy_byte", len(data))
        return reply

    return handler
