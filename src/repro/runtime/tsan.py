"""springtsan — a happens-before data-race detector for domains.

The paper defines a domain as "an address space plus a collection of
threads" (Section 3.3), and this runtime honours it: multiple Python
threads drive door calls concurrently through lock-protected capability
tables, and server-side subcontracts keep mutable state (replicon
epochs, caching memos, admission occupancy).  The GIL does **not** make
``x += 1`` atomic — CPython may switch threads between the load and the
store — so unsynchronized shared mutation is a real lost-update bug
here, exactly as it would be in C.

``springtsan`` is an Eraser-style hybrid detector (Savage et al. 1997;
FastTrack, Flanagan & Freund 2009): every thread carries a **vector
clock** advanced at synchronization points, every tracked variable
remembers its last accesses, and two accesses to the same variable race
when they are (a) unordered by the happens-before relation induced by
the synchronization edges below AND (b) performed holding **disjoint
locksets**.  A race raises :class:`DataRaceError` naming both sites.

Synchronization edges — the ones this runtime already owns:

* **lock acquire / release** — a release happens-before the next
  acquire of the same lock (locks are instrumented via
  :func:`instrument_lock`, the wrapped kernel table lock, and the
  synchronized subcontract's per-object mutexes);
* **thread start / join** — everything the parent did before ``start``
  happens-before the child; everything the child did happens-before the
  parent's return from ``join`` (wired in
  :func:`repro.runtime.threads.run_concurrently`);
* **door-call handoff** — a door call is a happens-before edge from the
  caller to the handler (the request buffer carries the caller's clock)
  and from the handler back to the caller (the reply carries the
  handler's clock), wired into the kernel's launch and handler seams;
* **marshal-pool buffer transfer** — releasing a pooled buffer
  happens-before the next ``acquire_buffer`` that hands the same buffer
  to another thread (list append/pop under the GIL is the real
  synchronization; the edge records it).

Tracked state is **declared**, not discovered: ``install_tsan`` wraps
the kernel's capability tables and every domain's ``locals`` dict in
tracked containers, classes tagged ``@shared_state`` get their
attribute writes instrumented, and :func:`track` wraps any dict or list
the caller nominates.  Uninstalled (``kernel.tsan is None``, the
default) the door edges are in none of the kernel's seams, the pool and
``create_domain`` hooks are one attribute read and one branch, not one
simulated nanosecond is charged, and ``@shared_state`` classes are
untouched; enabled, the detector never advances the simulated clock
either, so sim totals stay bit-for-bit identical.

Enable per kernel with :func:`install_tsan`, or process-wide with
``REPRO_TSAN=1`` in the environment (every new :class:`Kernel`
installs itself).
"""

from __future__ import annotations

import os
import sys
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:
    from repro.kernel.nucleus import Kernel

__all__ = [
    "DataRaceError",
    "RaceReport",
    "TsanRuntime",
    "TrackedDict",
    "TrackedList",
    "install_tsan",
    "uninstall_tsan",
    "active",
    "shared_state",
    "track",
    "instrument_lock",
]

#: the process-wide live detector, or None.  Module-global (not only
#: per-kernel) because thread start/join edges and ``@shared_state``
#: writes have no kernel in hand.
_ACTIVE: "TsanRuntime | None" = None

#: classes tagged ``@shared_state``; patched on install, restored on
#: uninstall.  Tagging is free until a detector is installed.
_SHARED_CLASSES: list[type] = []


def active() -> "TsanRuntime | None":
    """The live process-wide detector, or None."""
    return _ACTIVE


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


class RaceReport:
    """One data race: two unordered accesses with disjoint locksets."""

    __slots__ = ("label", "first", "second")

    def __init__(self, label: str, first: "_Access", second: "_Access") -> None:
        self.label = label
        self.first = first
        self.second = second

    def __str__(self) -> str:
        return (
            f"data race on {self.label}: "
            f"{self.second.describe()} is unordered with earlier "
            f"{self.first.describe()}"
        )

    def sites(self) -> tuple[str, str]:
        return (self.first.site, self.second.site)


class DataRaceError(AssertionError):
    """Raised at the second access of a detected data race.

    Subclasses AssertionError so an un-caught race fails a test run
    loudly rather than being mistaken for a communication failure some
    subcontract would retry.
    """

    def __init__(self, report: RaceReport) -> None:
        super().__init__(str(report))
        self.report = report


class _Access:
    """One recorded access: who, where, under which locks."""

    __slots__ = ("op", "tid", "thread_name", "clock", "lockset", "site")

    def __init__(
        self,
        op: str,
        tid: int,
        thread_name: str,
        clock: dict[int, int],
        lockset: frozenset[str],
        site: str,
    ) -> None:
        self.op = op
        self.tid = tid
        self.thread_name = thread_name
        self.clock = clock
        self.lockset = lockset
        self.site = site

    def describe(self) -> str:
        locks = "{" + ", ".join(sorted(self.lockset)) + "}" if self.lockset else "{}"
        return f"{self.op} at {self.site} [thread {self.thread_name}, locks {locks}]"


# ----------------------------------------------------------------------
# per-thread state
# ----------------------------------------------------------------------


class _ThreadState:
    """Vector clock + held lockset for one thread.

    ``tid`` is a detector-issued *logical* id, not
    ``threading.get_ident()``: the OS recycles native thread ids, and a
    worker that inherits the id of an exited worker must not inherit
    its clock (that would order the two threads and hide their races).
    States live in a ``threading.local`` slot, which dies with its
    thread, so a recycled native id always gets a fresh state.
    """

    __slots__ = ("tid", "name", "clock", "locks")

    def __init__(self, tid: int, name: str) -> None:
        self.tid = tid
        self.name = name
        #: vector clock: logical thread id -> last event counter observed
        self.clock: dict[int, int] = {tid: 1}
        #: names of instrumented locks currently held (with depth)
        self.locks: dict[str, int] = {}

    def lockset(self) -> frozenset[str]:
        return frozenset(self.locks)

    def tick(self) -> None:
        self.clock[self.tid] = self.clock.get(self.tid, 0) + 1

    def join_clock(self, other: dict[int, int]) -> None:
        clock = self.clock
        for tid, counter in other.items():
            if clock.get(tid, 0) < counter:
                clock[tid] = counter


def _happens_before(earlier: dict[int, int], later: dict[int, int]) -> bool:
    """True when every event in ``earlier`` is visible in ``later``."""
    for tid, counter in earlier.items():
        if later.get(tid, 0) < counter:
            return False
    return True


class _VarState:
    """Access history for one tracked variable (bounded, per-thread)."""

    __slots__ = ("last_write", "reads")

    def __init__(self) -> None:
        self.last_write: _Access | None = None
        #: thread id -> most recent read by that thread
        self.reads: dict[int, _Access] = {}


# ----------------------------------------------------------------------
# the detector
# ----------------------------------------------------------------------


class TsanRuntime:
    """The live happens-before detector.

    ``report_mode`` is ``"raise"`` (default: the second access raises
    :class:`DataRaceError`) or ``"collect"`` (reports accumulate on
    :attr:`races`, each variable reported once).  The edge switches
    exist so the race fixtures can prove each edge is load-bearing:
    turning one off must turn a clean program into a reported race.
    """

    rank = 20  # inside chaos (a fault is no handoff), outside the tracer

    def __init__(
        self,
        report_mode: str = "raise",
        thread_edges: bool = True,
        door_edges: bool = True,
        pool_edges: bool = True,
        lock_edges: bool = True,
    ) -> None:
        if report_mode not in ("raise", "collect"):
            raise ValueError("report_mode must be 'raise' or 'collect'")
        self.report_mode = report_mode
        self.thread_edges = thread_edges
        self.door_edges = door_edges
        self.pool_edges = pool_edges
        self.lock_edges = lock_edges
        #: every race found in collect mode (first per variable)
        self.races: list[RaceReport] = []
        #: variables already reported (collect mode stops repeats)
        self._reported: set[Any] = set()
        #: accesses checked / edges observed, for introspection
        self.stats = {"reads": 0, "writes": 0, "edges": 0}
        # The detector's own mutex.  All detector state is guarded by
        # it; instrumented code never runs while it is held, so it can
        # introduce no deadlock with application locks.
        self._mu = threading.Lock()
        # Per-thread state lives in thread-local storage (see
        # _ThreadState's docstring for why not a get_ident()-keyed map).
        self._local = threading.local()
        self._next_tid = 0
        #: sync-object clocks: lock name / channel key -> clock snapshot
        self._sync: dict[Any, dict[int, int]] = {}
        #: tracked variable histories
        self._vars: dict[Any, _VarState] = {}
        #: labels for tracked variables (keys may be tuples)
        self._labels: dict[Any, str] = {}
        #: kernels this runtime is installed on, with their saved state
        self._kernels: list[tuple["Kernel", Any]] = []
        #: fork tokens for thread start/join edges
        self._tokens: dict[int, dict[int, int]] = {}
        self._next_token = 0

    # -- thread bookkeeping --------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            self._next_tid += 1
            state = _ThreadState(self._next_tid, threading.current_thread().name)
            self._local.state = state
        return state

    # -- access checks -------------------------------------------------

    def on_read(self, key: Any, label: str | None = None, depth: int = 2) -> None:
        """Record a read of tracked variable ``key``; check for races."""
        with self._mu:
            self.stats["reads"] += 1
            state = self._state()
            var = self._vars.get(key)
            if var is None:
                var = self._vars[key] = _VarState()
                if label is not None:
                    self._labels[key] = label
            access = _Access(
                "read",
                state.tid,
                state.name,
                dict(state.clock),
                state.lockset(),
                _site(depth),
            )
            report = None
            last = var.last_write
            if (
                last is not None
                and last.tid != state.tid
                and not _happens_before(last.clock, state.clock)
                and last.lockset.isdisjoint(access.lockset)
            ):
                report = self._report(key, label, last, access)
            var.reads[state.tid] = access
        if report is not None and self.report_mode == "raise":
            raise DataRaceError(report)

    def on_write(self, key: Any, label: str | None = None, depth: int = 2) -> None:
        """Record a write of tracked variable ``key``; check for races."""
        with self._mu:
            self.stats["writes"] += 1
            state = self._state()
            var = self._vars.get(key)
            if var is None:
                var = self._vars[key] = _VarState()
                if label is not None:
                    self._labels[key] = label
            access = _Access(
                "write",
                state.tid,
                state.name,
                dict(state.clock),
                state.lockset(),
                _site(depth),
            )
            report = None
            last = var.last_write
            if (
                last is not None
                and last.tid != state.tid
                and not _happens_before(last.clock, state.clock)
                and last.lockset.isdisjoint(access.lockset)
            ):
                report = self._report(key, label, last, access)
            if report is None:
                for read in var.reads.values():
                    if (
                        read.tid != state.tid
                        and not _happens_before(read.clock, state.clock)
                        and read.lockset.isdisjoint(access.lockset)
                    ):
                        report = self._report(key, label, read, access)
                        break
            var.last_write = access
            # Reads ordered before this write can never race again;
            # drop them so histories stay bounded.
            var.reads = {
                tid: read
                for tid, read in var.reads.items()
                if not _happens_before(read.clock, access.clock)
            }
        if report is not None and self.report_mode == "raise":
            raise DataRaceError(report)

    def _report(
        self, key: Any, label: str | None, first: _Access, second: _Access
    ) -> RaceReport | None:
        if key in self._reported:
            return None
        self._reported.add(key)
        name = label or self._labels.get(key) or repr(key)
        report = RaceReport(name, first, second)
        self.races.append(report)
        return report

    # -- lock edges ----------------------------------------------------

    def on_acquire(self, name: str) -> None:
        """An instrumented lock was acquired (outermost acquisition)."""
        with self._mu:
            state = self._state()
            depth = state.locks.get(name, 0)
            state.locks[name] = depth + 1
            if depth == 0 and self.lock_edges:
                clock = self._sync.get(("lock", name))
                if clock is not None:
                    state.join_clock(clock)
                self.stats["edges"] += 1

    def on_release(self, name: str) -> None:
        """An instrumented lock is about to be released (outermost)."""
        with self._mu:
            state = self._state()
            depth = state.locks.get(name, 0)
            if depth <= 1:
                state.locks.pop(name, None)
            else:
                state.locks[name] = depth - 1
                return
            if self.lock_edges:
                self._sync[("lock", name)] = dict(state.clock)
                state.tick()
                self.stats["edges"] += 1

    # -- thread start / join edges (run_concurrently) ------------------

    def fork(self) -> int:
        """Parent side of a thread start: snapshot the parent's clock."""
        with self._mu:
            state = self._state()
            token = self._next_token = self._next_token + 1
            if self.thread_edges:
                self._tokens[token] = dict(state.clock)
                state.tick()
                self.stats["edges"] += 1
            return token

    def child_begin(self, token: int) -> None:
        """Child side of a thread start: inherit the parent's clock."""
        with self._mu:
            state = self._state()
            if self.thread_edges:
                snapshot = self._tokens.pop(token, None)
                if snapshot is not None:
                    state.join_clock(snapshot)
                self.stats["edges"] += 1

    def child_end(self, token: int) -> None:
        """Child about to exit: publish its clock for the joiner."""
        with self._mu:
            state = self._state()
            if self.thread_edges:
                self._tokens[token] = dict(state.clock)
                state.tick()
                self.stats["edges"] += 1

    def join_edge(self, token: int) -> None:
        """Parent returned from join: everything the child did is visible."""
        with self._mu:
            state = self._state()
            if self.thread_edges:
                snapshot = self._tokens.pop(token, None)
                if snapshot is not None:
                    state.join_clock(snapshot)
                state.tick()
                self.stats["edges"] += 1

    # -- door-call handoff edges (the kernel's seams) ------------------

    def around_launch(self, inner: Callable) -> Callable:
        """Launch seam: the request carries the caller's clock to the
        handler, the reply carries the handler's clock back."""

        def launch(caller, door, buffer, remote):
            self.on_door_send(door, buffer)
            reply = inner(caller, door, buffer, remote)
            self.on_reply_receive(reply)
            return reply

        return launch

    def around_handler(self, inner: Callable) -> Callable:
        """Handler seam: the handler's side of the same two edges."""

        def handle(door, buffer):
            self.on_door_receive(door, buffer)
            reply = inner(door, buffer)
            self.on_reply_send(reply)
            return reply

        return handle

    def on_door_send(self, door: Any, buffer: Any) -> None:
        """Caller -> handler: the request carries the caller's clock."""
        if self.door_edges:
            self._send(("door", id(buffer)))

    def on_door_receive(self, door: Any, buffer: Any) -> None:
        """Handler side: join the clock the request carried."""
        if self.door_edges:
            self._receive(("door", id(buffer)))

    def on_reply_send(self, buffer: Any) -> None:
        """Handler -> caller: the reply carries the handler's clock."""
        if self.door_edges:
            self._send(("reply", id(buffer)))

    def on_reply_receive(self, buffer: Any) -> None:
        """Caller side: join the clock the reply carried."""
        if self.door_edges:
            self._receive(("reply", id(buffer)))

    # -- marshal-pool transfer edges -----------------------------------

    def on_buffer_release(self, buffer: Any) -> None:
        """A pooled buffer returns to its domain's free-list."""
        if self.pool_edges:
            self._send(("pool", id(buffer)))

    def on_buffer_acquire(self, buffer: Any) -> None:
        """A pooled buffer was handed out again (possibly cross-thread)."""
        if self.pool_edges:
            self._receive(("pool", id(buffer)))

    def _send(self, channel: tuple) -> None:
        """Publish this thread's clock on ``channel`` (one edge's start)."""
        with self._mu:
            state = self._state()
            self._sync[channel] = dict(state.clock)
            state.tick()
            self.stats["edges"] += 1

    def _receive(self, channel: tuple) -> None:
        """Join the clock published on ``channel``, if any (the edge's end)."""
        with self._mu:
            clock = self._sync.pop(channel, None)
            if clock is not None:
                self._state().join_clock(clock)
            self.stats["edges"] += 1

    # -- installation --------------------------------------------------

    def attach_kernel(self, kernel: "Kernel") -> None:
        """Instrument one kernel: table lock, tables, domains."""
        saved = {
            "table_lock": kernel._table_lock,
            "domains": kernel.domains,
            "doors": kernel.doors,
            "domain_locals": {},
        }
        kernel._table_lock = TsanLock(
            kernel._table_lock, "Kernel._table_lock", self
        )
        kernel.domains = TrackedDict(kernel.domains, "Kernel.domains", self)
        kernel.doors = TrackedDict(kernel.doors, "Kernel.doors", self)
        for domain in saved["domains"].values():
            saved["domain_locals"][domain.uid] = domain.locals
            self.on_domain_created(domain)
        kernel.tsan = self
        kernel.interpose(self)
        self._kernels.append((kernel, saved))

    def on_domain_created(self, domain: Any) -> None:
        """Track a new domain's scratch storage (``domain.locals``)."""
        if not isinstance(domain.locals, TrackedDict):
            domain.locals = TrackedDict(
                domain.locals, f"domain[{domain.name}].locals", self
            )

    def detach_all(self) -> None:
        """Restore every instrumented kernel to its uninstalled state."""
        for kernel, saved in self._kernels:
            kernel._table_lock = saved["table_lock"]
            kernel.domains = dict(kernel.domains)
            kernel.doors = dict(kernel.doors)
            for domain in kernel.domains.values():
                if domain.uid in saved["domain_locals"] and isinstance(
                    domain.locals, TrackedDict
                ):
                    restored = dict(domain.locals)
                    domain.locals = restored
                elif isinstance(domain.locals, TrackedDict):
                    domain.locals = dict(domain.locals)
            kernel.withdraw(self)
            kernel.tsan = None
        self._kernels = []


def _site(depth: int) -> str:
    """``file:line`` of the instrumented access, skipping tsan frames."""
    frame = sys._getframe(depth)
    here = __file__
    while frame is not None and frame.f_code.co_filename == here:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - interpreter shutdown only
        return "<unknown>"
    filename = frame.f_code.co_filename
    base = os.path.basename(filename)
    return f"{base}:{frame.f_lineno}"


# ----------------------------------------------------------------------
# instrumented containers and locks
# ----------------------------------------------------------------------


class TrackedDict(dict):
    """A dict whose item reads and writes report to the detector."""

    __slots__ = ("_tsan", "_label")

    def __init__(self, data: dict, label: str, runtime: TsanRuntime) -> None:
        super().__init__(data)
        self._tsan = runtime
        self._label = label

    def _key(self, key: Any) -> tuple:
        return ("dict", id(self), key)

    def _name(self, key: Any) -> str:
        return f"{self._label}[{key!r}]"

    def __getitem__(self, key: Any) -> Any:
        self._tsan.on_read(self._key(key), self._name(key), depth=3)
        return super().__getitem__(key)

    def get(self, key: Any, default: Any = None) -> Any:
        self._tsan.on_read(self._key(key), self._name(key), depth=3)
        return super().get(key, default)

    def __setitem__(self, key: Any, value: Any) -> None:
        self._tsan.on_write(self._key(key), self._name(key), depth=3)
        super().__setitem__(key, value)

    def __delitem__(self, key: Any) -> None:
        self._tsan.on_write(self._key(key), self._name(key), depth=3)
        super().__delitem__(key)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        self._tsan.on_write(self._key(key), self._name(key), depth=3)
        return super().setdefault(key, default)

    def pop(self, key: Any, *default: Any) -> Any:
        self._tsan.on_write(self._key(key), self._name(key), depth=3)
        return super().pop(key, *default)

    def update(self, *args: Any, **kwargs: Any) -> None:
        staged = dict(*args, **kwargs)
        for key in staged:
            self._tsan.on_write(self._key(key), self._name(key), depth=3)
        super().update(staged)

    def clear(self) -> None:
        for key in list(self):
            self._tsan.on_write(self._key(key), self._name(key), depth=3)
        super().clear()


class TrackedList(list):
    """A list whose element reads and mutations report to the detector.

    The whole list is one tracked variable: index-level granularity on a
    mutating sequence would miss shifts, and the racy pattern this
    catches is concurrent append/pop against unsynchronized iteration.
    """

    __slots__ = ("_tsan", "_label")

    def __init__(self, data: Iterable, label: str, runtime: TsanRuntime) -> None:
        super().__init__(data)
        self._tsan = runtime
        self._label = label

    def _key(self) -> tuple:
        return ("list", id(self))

    def __getitem__(self, index: Any) -> Any:
        self._tsan.on_read(self._key(), self._label, depth=3)
        return super().__getitem__(index)

    def __iter__(self):
        self._tsan.on_read(self._key(), self._label, depth=3)
        return super().__iter__()

    def __setitem__(self, index: Any, value: Any) -> None:
        self._tsan.on_write(self._key(), self._label, depth=3)
        super().__setitem__(index, value)

    def append(self, value: Any) -> None:
        self._tsan.on_write(self._key(), self._label, depth=3)
        super().append(value)

    def extend(self, values: Iterable) -> None:
        self._tsan.on_write(self._key(), self._label, depth=3)
        super().extend(values)

    def pop(self, index: int = -1) -> Any:
        self._tsan.on_write(self._key(), self._label, depth=3)
        return super().pop(index)

    def remove(self, value: Any) -> None:
        self._tsan.on_write(self._key(), self._label, depth=3)
        super().remove(value)

    def clear(self) -> None:
        self._tsan.on_write(self._key(), self._label, depth=3)
        super().clear()


class TsanLock:
    """Wrap a Lock/RLock so the detector sees acquire/release edges.

    Reentrant acquisition is folded: only the outermost acquire joins
    the lock's clock and only the outermost release publishes it, so an
    RLock-guarded recursive path counts as one critical section.
    """

    __slots__ = ("_inner", "name", "_tsan")

    def __init__(self, inner: Any, name: str, runtime: TsanRuntime) -> None:
        self._inner = inner
        self.name = name
        self._tsan = runtime

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        got = self._inner.acquire(*args, **kwargs)
        if got:
            self._tsan.on_acquire(self.name)
        return got

    def release(self) -> None:
        self._tsan.on_release(self.name)
        self._inner.release()

    def __enter__(self) -> "TsanLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def locked(self) -> bool:  # pragma: no cover - debugging aid
        return self._inner.locked()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TsanLock {self.name} around {self._inner!r}>"


# ----------------------------------------------------------------------
# the declaration API
# ----------------------------------------------------------------------


def shared_state(cls: type) -> type:
    """Class decorator: instances hold shared mutable state.

    Free until a detector is installed; then every attribute write on
    instances of the class reports to the detector (reads are not
    instrumented — ``__getattribute__`` interception is too invasive —
    so the tag catches write/write lost updates, and tracked containers
    or explicit :func:`track` calls cover read/write races).
    """
    _SHARED_CLASSES.append(cls)
    if _ACTIVE is not None:
        _patch_shared_class(cls)
    return cls


def _patch_shared_class(cls: type) -> None:
    if getattr(cls, "_tsan_orig_setattr", None) is not None:
        return
    orig = cls.__setattr__

    def traced_setattr(self: Any, name: str, value: Any) -> None:
        runtime = _ACTIVE
        if runtime is not None and not name.startswith("_tsan"):
            runtime.on_write(
                ("attr", id(self), name), f"{cls.__name__}.{name}", depth=2
            )
        orig(self, name, value)

    cls._tsan_orig_setattr = orig  # type: ignore[attr-defined]
    cls.__setattr__ = traced_setattr  # type: ignore[assignment]


def _unpatch_shared_class(cls: type) -> None:
    orig = getattr(cls, "_tsan_orig_setattr", None)
    if orig is not None:
        cls.__setattr__ = orig  # type: ignore[assignment]
        cls._tsan_orig_setattr = None  # type: ignore[attr-defined]


def track(obj: Any, label: str = "shared") -> Any:
    """Wrap ``obj`` in a tracked container when a detector is live.

    Returns ``obj`` unchanged (zero cost) when no detector is
    installed, so construction sites can write
    ``self.memo = tsan.track({}, "caching.memo")`` unconditionally.
    """
    runtime = _ACTIVE
    if runtime is None:
        return obj
    if isinstance(obj, TrackedDict) or isinstance(obj, TrackedList):
        return obj
    if isinstance(obj, dict):
        return TrackedDict(obj, label, runtime)
    if isinstance(obj, list):
        return TrackedList(obj, label, runtime)
    raise TypeError(
        f"track() wraps dicts and lists; tag {type(obj).__name__} classes "
        "with @shared_state instead"
    )


def instrument_lock(lock: Any, name: str) -> Any:
    """Wrap ``lock`` for the detector; returns it unchanged when off."""
    runtime = _ACTIVE
    if runtime is None or isinstance(lock, TsanLock):
        return lock
    return TsanLock(lock, name, runtime)


# ----------------------------------------------------------------------
# install / uninstall
# ----------------------------------------------------------------------


def install_tsan(kernel: "Kernel", **options: Any) -> TsanRuntime:
    """Install a happens-before race detector on ``kernel``.

    The detector is process-wide (thread edges have no kernel in hand);
    installing on a second kernel attaches it to the same runtime.
    ``options`` pass through to :class:`TsanRuntime` on first install.
    """
    global _ACTIVE
    runtime = _ACTIVE
    if runtime is None:
        runtime = TsanRuntime(**options)
        _ACTIVE = runtime
        for cls in _SHARED_CLASSES:
            _patch_shared_class(cls)
    elif options:
        raise ValueError(
            "a detector is already live; uninstall it before changing options"
        )
    if getattr(kernel, "tsan", None) is not runtime:
        runtime.attach_kernel(kernel)
    return runtime


def uninstall_tsan(kernel: "Kernel | None" = None) -> None:
    """Remove the detector (from every kernel it instrumented)."""
    global _ACTIVE
    runtime = _ACTIVE
    if runtime is None:
        if kernel is not None:
            kernel.tsan = None
        return
    runtime.detach_all()
    for cls in _SHARED_CLASSES:
        _unpatch_shared_class(cls)
    _ACTIVE = None
