"""Windowed time series: counters + quantile sketches over sim time.

PR 3's :class:`~repro.obs.metrics.MetricsRegistry` is *cumulative* —
counts since boot, useful for totals, useless for "what was the p99
over the last 50ms".  A :class:`WindowedSeries` buckets the same feed
into fixed-width **tumbling windows on the simulated clock**: window
``i`` covers ``[i * window_us, (i + 1) * window_us)``, each window
holds its own counters and :class:`~repro.obs.sketch.Sketch` per
``(scope, name)`` key, and a bounded retention ring keeps the last
``retention`` windows (older windows are evicted and counted in
``dropped_windows`` — same accounting philosophy as ``TraceRing``).

Because the window boundary is simulated time, windowed telemetry is
as deterministic as the run that produced it: the same seed produces
bit-identical window snapshots, which is what makes SLO evaluation
(:mod:`repro.obs.slo`) replayable and lets the acceptance soak compare
reports across runs byte for byte.

The feed is the tracer (:func:`install_windows` attaches a series to a
live :class:`~repro.obs.tracer.Tracer`); the uninstalled posture is the
usual one-attr-read-plus-branch (``tracer.windows is None``) so runs
without windowing charge nothing and stay bit-for-bit identical.
While installed, every recorded span/event charges ``window_probe``
sim time (see ``CostModel.window_probe_us``), keeping windowed runs
honest about their own instrumentation — and still deterministic.

Snapshots are JSON-safe and fully sorted; ``merge_window_snapshots``
merges per-process snapshots window-by-window (the procfabric
supervisor's ``merged_windows``), and ``snapshot_quantile`` recomputes
any quantile *offline* from a snapshot — exactly equal to the live
value, because sketch quantiles depend only on integer bucket counts.
"""

from __future__ import annotations

import math
import threading
from collections import Counter, defaultdict
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable

from repro.obs.sketch import Sketch

if TYPE_CHECKING:
    from repro.obs.tracer import Span, Tracer

__all__ = [
    "WindowedSeries",
    "WindowMergeError",
    "install_windows",
    "uninstall_windows",
    "merge_window_snapshots",
    "snapshot_quantile",
    "snapshot_counter_total",
]

#: default window width: 50 simulated milliseconds
DEFAULT_WINDOW_US = 50_000.0
#: default retention ring length (windows)
DEFAULT_RETENTION = 64


class WindowMergeError(ValueError):
    """Window snapshots with different geometry were merged."""


class _Window:
    """One tumbling window: counters and sketches keyed by (scope, name),
    and the feeds not yet folded into them."""

    __slots__ = ("index", "counters", "sketches", "pending")

    def __init__(self, index: int) -> None:
        self.index = index
        self.counters: dict[tuple[str, str], int] = {}
        self.sketches: dict[tuple[str, str], Sketch] = {}
        self.pending: list[tuple[tuple, float]] = []


#: pending feeds a window holds before they are folded
_FOLD_AT = 512
_first = itemgetter(0)


class WindowedSeries:
    """Tumbling sim-time windows of counters and quantile sketches.

    A feed appends one ``(plan, value)`` entry to its window's pending
    list and counts ``recorded`` at once.  The plan is the feed's work,
    worked out once per kind of feed: ``(((counter key, step), ...),
    sketch key or None, recorded)``.  Pending entries are folded, in feed
    order, when a feed rolls a new window in, when a window holds
    ``_FOLD_AT`` of them, and before every read (``windows()``, which
    every query and snapshot goes through); counters and sketches
    (``sum`` included) come out as if each feed had been folded as it
    came.  Feeds append without a lock; a fold holds the fold lock and
    deletes only what it folded, so an append that races it stays
    pending for the next fold.
    """

    def __init__(
        self,
        window_us: float = DEFAULT_WINDOW_US,
        retention: int = DEFAULT_RETENTION,
        alpha: float = 0.01,
    ) -> None:
        if window_us <= 0.0:
            raise ValueError(f"window_us must be positive, got {window_us!r}")
        if retention < 1:
            raise ValueError(f"retention must be >= 1, got {retention!r}")
        self.window_us = float(window_us)
        self.retention = retention
        self.alpha = alpha
        self._slots: list[_Window | None] = [None] * retention
        self._current: _Window | None = None  # the window feeds went to last
        self.dropped_windows = 0
        self.recorded = 0
        #: (category, subcontract or name, failed) -> that span's plan
        self._plans: dict[tuple[str, str | None, bool], tuple] = {}
        self._fold_lock = threading.RLock()

    # -- feed -----------------------------------------------------------

    def _window_at(self, now_us: float) -> _Window | None:
        index = int(now_us // self.window_us)
        slot = index % self.retention
        with self._fold_lock:
            window = self._slots[slot]
            if window is None or window.index < index:
                self._fold(self._slots)  # a rollover folds everything pending
                if window is not None:
                    self.dropped_windows += 1
                window = self._slots[slot] = _Window(index)
            elif window.index > index:
                # A straggler older than the evicted window it belonged to
                # (cross-thread clock skew); nothing to attribute it to.
                return None
            self._current = window
            return window

    def _feed(self, plan: tuple, value: float, now_us: float) -> None:
        window = self._current
        if window is None or now_us // self.window_us != window.index:
            window = self._window_at(now_us)
            if window is None:
                return
        pending = window.pending
        pending.append((plan, value))
        self.recorded += plan[2]
        if len(pending) >= _FOLD_AT:
            self._fold((window,))

    def _fold(self, windows: "Iterable[_Window | None]") -> None:
        with self._fold_lock:
            for window in windows:
                if window is None or not window.pending:
                    continue
                pending, counters = window.pending, window.counters
                folded = len(pending)
                entries = pending[:folded]
                # Counters once per kind of feed, sketches once per key.
                for counted, uses in Counter(map(_first, map(_first, entries))).items():
                    for key, step in counted:
                        counters[key] = counters.get(key, 0) + step * uses
                batches: defaultdict[tuple[str, str], list[float]] = defaultdict(list)
                for (_, sketched, _), value in entries:
                    if sketched is not None:
                        batches[sketched].append(value)
                for key, values in batches.items():
                    sketch = window.sketches.get(key)
                    if sketch is None:
                        sketch = window.sketches[key] = Sketch(self.alpha)
                    sketch.extend(values)
                del pending[:folded]

    def count(self, scope: str, name: str, now_us: float, n: int = 1) -> None:
        """Add ``n`` to counter ``(scope, name)`` in the window at ``now_us``."""
        self._feed(((((scope, name), n),), None, 1), 0.0, now_us)

    def observe(self, scope: str, name: str, value: float, now_us: float) -> None:
        """Insert ``value`` into sketch ``(scope, name)`` in the window at ``now_us``."""
        if not 0.0 <= value < math.inf:
            raise ValueError(f"sketch values must be finite and >= 0, got {value!r}")
        self._feed(((), (scope, name), 1), value, now_us)

    def record_span(self, span: "Span") -> None:
        """Tracer feed: one finished span, as one pending entry.

        * ``invoke`` spans: per-subcontract ``invocations``/``errors``
          counters and an ``invoke_sim_us`` sketch (the windowed twin of
          the cumulative metrics the tracer already keeps);
        * ``door`` spans: a per-door duration sketch and call counter
          under scope ``"door"`` — the "p99 per door per window" feed;
        * ``handler`` spans: the same per-door feed under ``"handler"``,
          named by the door label.  This is the *server-side* view: in a
          process-fabric worker the client-side ``door`` span lives in
          the supervisor, so the handler sketch is the worker's only
          per-door signal;
        * ``fabric`` spans: per-hop duration sketch under ``"fabric"``;
        * other categories: a cheap per-category counter under ``"span"``.
        """
        category = span.category
        key = (
            category,
            span.subcontract if category == "invoke" else span.name,
            span.status != "ok",
        )
        plan = self._plans.get(key) or self._span_plan(key)
        end = span.end_sim_us
        self._feed(plan, end - span.start_sim_us, end)

    def _span_plan(self, key: tuple[str, str | None, bool]) -> tuple:
        category, name, failed = key
        if category == "invoke":
            scope, counted, sketched = name or "unknown", ("invocations", "errors"), "invoke_sim_us"
        elif category in ("door", "handler"):
            scope, counted, sketched = category, (name, name + ".errors"), name + ".sim_us"
        elif category == "fabric":
            scope, counted, sketched = "fabric", (), name + ".sim_us"
        else:
            scope, counted, sketched = "span", (category,), None
        counted = counted if failed else counted[:1]
        if len(self._plans) >= 4096:  # door names carry uids: keep the cache bounded
            self._plans.clear()
        plan = self._plans[key] = (
            tuple(((scope, counter), 1) for counter in counted),
            None if sketched is None else (scope, sketched),
            len(counted) + (sketched is not None),
        )
        return plan

    def record_event(
        self, name: str, subcontract: str | None, detail: dict, now_us: float
    ) -> None:
        """Tracer feed: count one event; sketch its ``*_us`` details.

        Any numeric detail key ending in ``_us`` (``wait_us``,
        ``backoff_us``, ``delay_us``...) becomes a windowed sketch named
        ``<event>.<key>`` — which is how admission waits, retry backoff
        and chaos link delay get windowed quantiles without new plumbing
        at each emit site.
        """
        scope = subcontract or "event"
        self.count(scope, name, now_us)
        for key, value in detail.items():
            if key.endswith("_us") and isinstance(value, (int, float)):
                self.observe(scope, name + "." + key, value, now_us)

    # -- queries --------------------------------------------------------

    def windows(self) -> list[_Window]:
        """Retained windows, oldest first (sorted by window index), with
        every pending entry folded."""
        self._fold(self._slots)
        present = [w for w in self._slots if w is not None]
        present.sort(key=lambda w: w.index)
        return present

    def _selected(self, last: int | None) -> list[_Window]:
        return _last(self.windows(), last)

    def merged_sketch(
        self, scope: str, name: str, last: int | None = None
    ) -> Sketch:
        """Merge the ``(scope, name)`` sketch across the last ``last``
        retained windows (all retained windows when ``None``)."""
        return _merged(self._selected(last), scope, name, self.alpha)

    def quantile(
        self, scope: str, name: str, q: float, last: int | None = None
    ) -> float:
        """Quantile of ``(scope, name)`` over the last ``last`` windows."""
        return self.merged_sketch(scope, name, last).quantile(q)

    def counter_total(
        self, scope: str, name: str, last: int | None = None
    ) -> int:
        """Sum of counter ``(scope, name)`` over the last ``last`` windows."""
        return sum(w.counters.get((scope, name), 0) for w in self._selected(last))

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self, last: int | None = None) -> dict:
        """A JSON-safe, deterministic snapshot of retained windows.

        Counters and sketches are listed as sorted ``[scope, name, ...]``
        triples so equal series produce byte-identical JSON.
        """
        return _snapshot(
            self._selected(last), self.window_us, self.retention, self.alpha,
            self.dropped_windows,
        )


def _snapshot(
    windows: "Iterable[_Window]", window_us: float, retention: int, alpha: float,
    dropped: int,
) -> dict:
    return {
        "window_us": window_us,
        "retention": retention,
        "alpha": alpha,
        "dropped_windows": dropped,
        "windows": [
            {
                "index": w.index,
                "start_us": w.index * window_us,
                "counters": [[*key, w.counters[key]] for key in sorted(w.counters)],
                "sketches": [[*key, w.sketches[key].snapshot()] for key in sorted(w.sketches)],
            }
            for w in windows
        ],
    }


def merge_window_snapshots(*snapshots: dict) -> dict:
    """Merge window snapshots from several series (e.g. one per worker
    process) into one, window index by window index.

    All snapshots must share ``window_us`` and ``alpha`` — windows cut
    at different boundaries or sketched at different resolutions do not
    merge meaningfully, and raising beats silently blending them
    (:class:`WindowMergeError`).  Counter merge is integer addition;
    sketch merge is the exactly-associative bucket merge, so the merged
    quantiles are independent of merge order.
    """
    snapshots = tuple(s for s in snapshots if s)
    if not snapshots:
        return _snapshot((), DEFAULT_WINDOW_US, DEFAULT_RETENTION, 0.01, 0)
    first = snapshots[0]
    merged: dict[int, _Window] = {}
    for snap in snapshots:
        if snap["window_us"] != first["window_us"] or snap["alpha"] != first["alpha"]:
            raise WindowMergeError(
                f"cannot merge window snapshots with different geometry: "
                f"window_us {first['window_us']!r} vs {snap['window_us']!r}, "
                f"alpha {first['alpha']!r} vs {snap['alpha']!r}"
            )
        for window in _unpack(snap):
            held = merged.setdefault(window.index, window)
            if held is window:
                continue
            for key, value in window.counters.items():
                held.counters[key] = held.counters.get(key, 0) + value
            for key, sketch in window.sketches.items():
                if key in held.sketches:
                    held.sketches[key].merge(sketch)
                else:
                    held.sketches[key] = sketch
    return _snapshot(
        [merged[index] for index in sorted(merged)], first["window_us"],
        max(s["retention"] for s in snapshots), first["alpha"],
        sum(s.get("dropped_windows", 0) for s in snapshots),
    )


def _last(windows: list, last: int | None) -> list:
    if last is not None and last >= 0:
        return windows[-last:] if last else []
    return windows


def _unpack(snapshot: dict, last: int | None = None) -> list[_Window]:
    """A snapshot's (last ``last``) windows, oldest first, read back into
    windows: every reader of telemetry, live or wire, reads those."""
    windows = []
    for entry in _last(sorted(snapshot.get("windows", ()), key=lambda w: w["index"]), last):
        window = _Window(entry["index"])
        for scope, name, value in entry["counters"]:
            window.counters[scope, name] = value
        for scope, name, sketch in entry["sketches"]:
            window.sketches[scope, name] = Sketch.from_snapshot(sketch)
        windows.append(window)
    return windows


def _merged(windows: "Iterable[_Window]", scope: str, name: str, alpha: float) -> Sketch:
    merged = Sketch(alpha)
    for window in windows:
        sketch = window.sketches.get((scope, name))
        if sketch is not None:
            merged.merge(sketch)
    return merged


def snapshot_quantile(
    snapshot: dict, scope: str, name: str, q: float, last: int | None = None
) -> float:
    """Recompute a quantile offline from a snapshot dict.

    Bit-identical to the live ``WindowedSeries.quantile`` on the series
    that produced the snapshot: quantile evaluation reads only integer
    bucket counts, which round-trip exactly through the snapshot.
    """
    return _merged(_unpack(snapshot, last), scope, name, snapshot["alpha"]).quantile(q)


def snapshot_counter_total(
    snapshot: dict, scope: str, name: str, last: int | None = None
) -> int:
    """Sum a counter offline from a snapshot dict."""
    return sum(w.counters.get((scope, name), 0) for w in _unpack(snapshot, last))


def install_windows(
    tracer: "Tracer",
    window_us: float = DEFAULT_WINDOW_US,
    retention: int = DEFAULT_RETENTION,
    alpha: float = 0.01,
) -> WindowedSeries:
    """Attach a :class:`WindowedSeries` to a live tracer.

    The tracer feeds it from ``Span.end`` (every recorded span) and
    ``event`` (every subcontract event), charging ``window_probe`` sim
    time per update.  Requires an enabled tracer — windowing without a
    span feed would silently record nothing.
    """
    if not getattr(tracer, "enabled", False):
        raise ValueError("install_windows requires an enabled tracer")
    series = WindowedSeries(window_us=window_us, retention=retention, alpha=alpha)
    tracer.windows = series
    return series


def uninstall_windows(tracer: "Tracer") -> None:
    """Detach the windowed series; the tracer feed reverts to a no-op."""
    tracer.windows = None
