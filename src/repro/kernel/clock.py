"""Simulated clock used for hardware-independent cost accounting.

The paper's quantitative claims (Section 9.3) are about *added* cost:
subcontract adds "less than 2 microseconds" to a minimal remote call on a
SPARCstation 2.  We cannot reproduce SPARCstation absolute numbers, but we
can reproduce the structure of the accounting: every local call, indirect
call, door traversal, byte marshalled, and network hop has a configurable
simulated cost, and benchmarks report both wall-clock time (via
pytest-benchmark) and simulated microseconds (via this clock).

The clock is deliberately simple in its *model* — a monotonically
increasing float plus a cost table, so tests can assert exact charge
sequences — but its *implementation* is built for the invocation hot
path: charges go to per-thread tally shards (no lock, no contention) and
are merged only when ``now_us`` or ``tally()`` is read.  Batching the
bookkeeping this way changes when a charge becomes visible to a reader in
another thread, never the simulated total: within one thread, charges
accumulate in exactly the order they are made, so single-threaded charge
sequences produce bit-for-bit the same floats as a single shared
accumulator would.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields

__all__ = ["CostModel", "SimClock"]


@dataclass(frozen=True)
class CostModel:
    """Per-event simulated costs, in microseconds.

    Defaults are loosely calibrated to the early-90s numbers the paper's
    citations report (Springs doors ~O(100) microseconds cross-domain,
    indirect procedure calls well under a microsecond), so the *ratios*
    the paper relies on hold: a local call is vastly cheaper than a door
    call, which is cheaper than a network call, and subcontract's extra
    indirect calls are a tiny fraction of any cross-domain call.
    """

    local_call_us: float = 0.2
    indirect_call_us: float = 0.4
    door_call_us: float = 110.0
    network_hop_us: float = 1200.0
    marshal_byte_us: float = 0.01
    marshal_door_id_us: float = 3.0
    door_create_us: float = 45.0
    door_copy_us: float = 5.0
    door_delete_us: float = 4.0
    library_load_us: float = 25000.0
    memory_copy_byte_us: float = 0.005
    # Tracing probe costs (repro.obs): charged only while a tracer is
    # enabled, so untraced runs accumulate bit-for-bit identical totals.
    trace_span_us: float = 0.6
    trace_event_us: float = 0.15
    # Windowed-telemetry probe cost (repro.obs v2): charged per sketch/
    # counter update only while a WindowedSeries is installed on the
    # tracer; uninstalled runs charge nothing.
    window_probe_us: float = 0.1


class _TallyShard:
    """One thread's private slice of a clock's accounting.

    Shards are append-only registered and never removed: a shard outlives
    its thread so the time it charged is never forgotten.
    """

    __slots__ = ("total_us", "events")

    def __init__(self) -> None:
        self.total_us = 0.0
        self.events: dict[str, float] = {}


class SimClock:
    """Accumulates simulated time for a kernel instance.

    The clock never goes backwards.  ``charge`` adds a named cost from the
    cost model; ``advance`` adds an explicit duration (used by the network
    fabric's latency model).  A per-category tally is kept so benches can
    report a breakdown (e.g. how much of a call was door traversal versus
    marshalling).

    Concurrency: domains are "an address space plus a collection of
    threads", so concurrent callers may charge the clock simultaneously.
    Each thread charges its own :class:`_TallyShard`; readers merge the
    shards.  Shard floats only ever grow, so reads are monotonic.
    """

    def __init__(self, model: CostModel | None = None) -> None:
        self.model = model or CostModel()
        #: event name -> unit cost, precomputed so the hot path never
        #: builds an f-string or takes a getattr on a dataclass.
        self._units: dict[str, float] = {
            f.name[:-3]: getattr(self.model, f.name) for f in fields(self.model)
        }
        self._marshal_byte_us = self._units["marshal_byte"]
        self._local = threading.local()
        self._shards: list[_TallyShard] = []
        # Guards shard registration only — never a charge.
        self._register_lock = threading.Lock()

    # -- shard plumbing ------------------------------------------------

    def _new_shard(self) -> _TallyShard:
        shard = _TallyShard()
        with self._register_lock:
            self._shards.append(shard)
        self._local.shard = shard
        return shard

    # -- writes (hot path, lock-free) ----------------------------------

    def charge(self, event: str, count: float = 1.0) -> float:
        """Charge ``count`` occurrences of ``event`` from the cost model.

        ``event`` must name a ``CostModel`` field without the ``_us``
        suffix (e.g. ``"door_call"``).  Returns the charged duration.
        """
        try:
            unit = self._units[event]
        except KeyError:
            # Unknown events keep the historical AttributeError contract;
            # cost-model subclasses with extra fields get memoised here.
            unit = getattr(self.model, f"{event}_us")
            self._units[event] = unit
        duration = unit * count
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._new_shard()
        shard.total_us += duration
        events = shard.events
        events[event] = events.get(event, 0.0) + duration
        return duration

    def charge_bytes(self, count: int, *more: int) -> float:
        """Batched ``marshal_byte`` charge: one call per run of items.

        Each count adds ``unit * count`` in order, as that many separate
        ``charge("marshal_byte", count)`` calls would (bit-for-bit the same
        floats).  Returns the total charged.
        """
        unit = self._marshal_byte_us
        duration = unit * count
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._new_shard()
        events = shard.events
        total = shard.total_us + duration
        spent = events.get("marshal_byte", 0.0) + duration
        for count in more:
            count *= unit
            duration += count
            total += count
            spent += count
        shard.total_us = total
        events["marshal_byte"] = spent
        return duration

    def advance(self, duration_us: float, category: str = "explicit") -> None:
        """Advance the clock by an explicit duration (e.g. network latency)."""
        if duration_us < 0:
            raise ValueError(f"cannot advance clock by {duration_us} us")
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._new_shard()
        shard.total_us += duration_us
        events = shard.events
        events[category] = events.get(category, 0.0) + duration_us

    # -- reads (merge shards) ------------------------------------------

    def now(self) -> float:
        """Current simulated time in microseconds since kernel boot (also
        ``now_us``; a method call is the cheaper read on a hot path)."""
        shards = self._shards
        if len(shards) == 1:
            return shards[0].total_us
        total = 0.0
        for shard in shards:
            total += shard.total_us
        return total

    now_us = property(now)

    def tally(self) -> dict[str, float]:
        """Return a merged copy of the per-category simulated-time breakdown."""
        merged: dict[str, float] = {}
        with self._register_lock:
            shards = list(self._shards)
        for shard in shards:
            for event, spent_us in list(shard.events.items()):
                merged[event] = merged.get(event, 0.0) + spent_us
        return merged

    def reset_tally(self) -> None:
        """Zero the per-category breakdown without rewinding the clock."""
        with self._register_lock:
            shards = list(self._shards)
        for shard in shards:
            shard.events.clear()


class ClockWindow:
    """Measure simulated time across a region: ``with ClockWindow(clock) as w``."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self.elapsed_us = 0.0
        self._start = 0.0

    def __enter__(self) -> "ClockWindow":
        self._start = self._clock.now_us
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed_us = self._clock.now_us - self._start


__all__.append("ClockWindow")
