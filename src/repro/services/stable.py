"""Stable storage and a durable service built on it.

Section 8.3's premise: "Some servers keep their state in stable storage.
If a client has an object whose state is kept in such a server, it would
like the object to be able to quietly recover from server crashes."

:class:`StableStore` is the substrate — per-machine storage that survives
domain crashes (it belongs to the machine, not to any domain; think local
disk).  :class:`DurableKVService` is the canonical such server: a
key-value store whose every write is logged to stable storage, exported
through the reconnectable subcontract, and restartable with one call —
after which the clients' existing objects quietly recover (Section 8.3's
whole point, made into a reusable service).
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

from repro.idl.compiler import IdlModule, compile_idl
from repro.runtime.idem import DedupMemo
from repro.subcontracts.reconnectable import ReconnectableServer

if TYPE_CHECKING:
    from repro.core.object import SpringObject
    from repro.kernel.domain import Domain
    from repro.net.machine import Machine
    from repro.runtime.env import Environment

__all__ = ["StableStore", "stable_store_for", "DurableKVService", "durable_kv_module"]

#: simulated cost of one stable write (a synchronous disk commit)
STABLE_WRITE_US = 900.0
#: simulated cost of reading the whole store at recovery
STABLE_SCAN_US = 2500.0


class _WriteGroup(threading.local):
    #: the calling thread's open write group's records; ``None`` outside one
    records: "list[tuple[str, str, str | None]] | None" = None


class StableStore:
    """Crash-surviving storage attached to a machine.

    While the calling thread's ``group.records`` is a list, :meth:`commit`
    appends to it and the group's opener writes it with one :meth:`write`;
    outside a group a commit is a group of one.  ``commits`` counts writes.
    """

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self._records: dict[str, dict[str, str]] = {}
        self.commits = 0
        self.group = _WriteGroup()

    def load(self, name: str) -> dict[str, str]:
        """Read a record set at recovery time (pays a scan charge)."""
        self.machine.kernel.clock.advance(STABLE_SCAN_US, "stable_scan")
        return dict(self._records.get(name, {}))

    def commit(self, name: str, key: str, value: "str | None") -> None:
        """Persist one mutation: in the thread's open group, else now."""
        records = self.group.records
        if records is None:
            self.write(((name, key, value),))
        else:
            records.append((name, key, value))

    def write(self, records: "Iterable[tuple[str, str, str | None]]") -> None:
        """Synchronously persist ``records``, in order (one commit charge)."""
        self.machine.kernel.clock.advance(STABLE_WRITE_US, "stable_write")
        for name, key, value in records:
            record = self._records.setdefault(name, {})
            if value is None:
                record.pop(key, None)
            else:
                record[key] = value
        self.commits += 1

    def wipe(self, name: str) -> None:
        """Administrator action: destroy a record set."""
        self._records.pop(name, None)


def stable_store_for(machine: "Machine") -> StableStore:
    """The machine's stable store (created on first use)."""
    store = getattr(machine, "stable_store", None)
    if store is None:
        store = StableStore(machine)
        machine.stable_store = store  # type: ignore[attr-defined]
    return store


DURABLE_KV_IDL = """
// A key-value store whose writes reach stable storage before returning.
interface durable_kv {
    subcontract "reconnectable";
    void put(string key, string value);
    string get(string key);
    bool has(string key);
    void remove(string key);
    sequence<string> keys();
    string adjust(string key, int32 delta);
}
"""


@lru_cache(maxsize=1)
def durable_kv_module() -> IdlModule:
    return compile_idl(DURABLE_KV_IDL, module_name="repro.services.stable")


class _DurableKVImpl:
    """One incarnation of the durable KV server."""

    def __init__(self, store: StableStore, name: str) -> None:
        self._store = store
        self._name = name
        self._data = store.load(name)

    def put(self, key: str, value: str) -> None:
        self._store.commit(self._name, key, value)
        self._data[key] = value

    def get(self, key: str) -> str:
        try:
            return self._data[key]
        except KeyError:
            raise KeyError(f"no key {key!r}") from None

    def has(self, key: str) -> bool:
        return key in self._data

    def remove(self, key: str) -> None:
        if key not in self._data:
            raise KeyError(f"no key {key!r}")
        self._store.commit(self._name, key, None)
        del self._data[key]

    def keys(self) -> list[str]:
        return sorted(self._data)

    def adjust(self, key: str, delta: int) -> str:
        """Add ``delta`` to an integer-valued key (absent counts as 0).

        The read-modify-write that makes blind retries dangerous — and
        therefore the op the idempotency-key dedup layer exists for.
        Returns the new value as a string.
        """
        value = int(self._data.get(key, "0")) + delta
        self._store.commit(self._name, key, str(value))
        self._data[key] = str(value)
        return str(value)


class DurableKVService:
    """A reconnectable, stable-storage-backed KV service.

    The service owns its incarnation cycle: :meth:`restart` crashes the
    current server domain and boots a replacement that recovers its state
    from the machine's stable store and rebinds its name — after which
    any client's existing object recovers on its next call (Section 8.3).
    """

    def __init__(
        self,
        env: "Environment",
        machine_name: str,
        service_name: str = "/services/durable-kv",
    ) -> None:
        self.env = env
        self.machine = env.machine(machine_name)
        self.service_name = service_name
        self.store = stable_store_for(self.machine)
        self.incarnation = 0
        self.domain: "Domain | None" = None
        self.impl: _DurableKVImpl | None = None
        self._boot()

    def _boot(self) -> None:
        self.incarnation += 1
        self.domain = self.env.create_domain(
            self.machine, f"durable-kv-{self.incarnation}"
        )
        self.impl = _DurableKVImpl(self.store, self.service_name)
        binding = durable_kv_module().binding("durable_kv")
        # The dedup memo is durable like the data it guards: recorded
        # replies live in the same stable store, so a client retrying
        # across a crash+restart still gets the first execution's reply
        # (the new incarnation reloads the memo in its recovery scan).
        self.dedup_memo = DedupMemo(
            store=self.store, record=f"{self.service_name}#dedup"
        )
        ReconnectableServer(self.domain).export(
            self.impl, binding, name=self.service_name, dedup=self.dedup_memo
        )

    def restart(self) -> None:
        """Crash the current incarnation and recover from stable storage."""
        if self.domain is not None and self.domain.alive:
            self.env.kernel.crash_domain(self.domain)
        self._boot()

    def crash(self) -> None:
        """Crash without restarting (clients will retry until restart)."""
        if self.domain is not None:
            self.env.kernel.crash_domain(self.domain)

    def client_for(self, domain: "Domain") -> "SpringObject":
        """Resolve a durable_kv object for a client domain."""
        from repro.core import narrow

        resolved = self.env.resolve(domain, self.service_name)
        return narrow(resolved, durable_kv_module().binding("durable_kv"))
