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
    """One tumbling window: counters and sketches keyed by (scope, name)."""

    __slots__ = ("index", "counters", "sketches")

    def __init__(self, index: int) -> None:
        self.index = index
        self.counters: dict[tuple[str, str], int] = {}
        self.sketches: dict[tuple[str, str], Sketch] = {}


class WindowedSeries:
    """Tumbling sim-time windows of counters and quantile sketches."""

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
        self.dropped_windows = 0
        self.recorded = 0

    # -- feed -----------------------------------------------------------

    def _window_at(self, now_us: float) -> _Window | None:
        index = int(now_us // self.window_us)
        slot = index % self.retention
        window = self._slots[slot]
        if window is not None and window.index == index:
            return window
        if window is not None and window.index > index:
            # A straggler older than the evicted window it belonged to
            # (cross-thread clock skew); nothing to attribute it to.
            return None
        if window is not None:
            self.dropped_windows += 1
        window = _Window(index)
        self._slots[slot] = window
        return window

    def count(self, scope: str, name: str, now_us: float, n: int = 1) -> None:
        """Add ``n`` to counter ``(scope, name)`` in the window at ``now_us``."""
        window = self._window_at(now_us)
        if window is None:
            return
        key = (scope, name)
        window.counters[key] = window.counters.get(key, 0) + n
        self.recorded += 1

    def observe(self, scope: str, name: str, value: float, now_us: float) -> None:
        """Insert ``value`` into sketch ``(scope, name)`` in the window at ``now_us``."""
        window = self._window_at(now_us)
        if window is None:
            return
        key = (scope, name)
        sketch = window.sketches.get(key)
        if sketch is None:
            sketch = Sketch(self.alpha)
            window.sketches[key] = sketch
        sketch.insert(value)
        self.recorded += 1

    def record_span(self, span: "Span") -> None:
        """Tracer feed: fold one finished span into the current window.

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
        window = self._window_at(span.end_sim_us)
        if window is None:
            return
        category = span.category
        failed = span.status != "ok"
        if category == "invoke":
            scope = span.subcontract or "unknown"
            counted = ("invocations", "errors") if failed else ("invocations",)
            sketched = "invoke_sim_us"
        elif category in ("door", "handler"):
            scope, name = category, span.name
            counted = (name, name + ".errors") if failed else (name,)
            sketched = name + ".sim_us"
        elif category == "fabric":
            scope, counted, sketched = "fabric", (), span.name + ".sim_us"
        else:
            scope, counted, sketched = "span", (category,), None
        counters = window.counters
        for name in counted:
            key = (scope, name)
            counters[key] = counters.get(key, 0) + 1
        self.recorded += len(counted)
        if sketched is not None:
            key = (scope, sketched)
            sketch = window.sketches.get(key)
            if sketch is None:
                sketch = window.sketches[key] = Sketch(self.alpha)
            sketch.insert(span.end_sim_us - span.start_sim_us)
            self.recorded += 1

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
        """Retained windows, oldest first (sorted by window index)."""
        present = [w for w in self._slots if w is not None]
        present.sort(key=lambda w: w.index)
        return present

    def _selected(self, last: int | None) -> list[_Window]:
        windows = self.windows()
        if last is not None and last >= 0:
            windows = windows[-last:] if last else []
        return windows

    def merged_sketch(
        self, scope: str, name: str, last: int | None = None
    ) -> Sketch:
        """Merge the ``(scope, name)`` sketch across the last ``last``
        retained windows (all retained windows when ``None``)."""
        merged = Sketch(self.alpha)
        for window in self._selected(last):
            sketch = window.sketches.get((scope, name))
            if sketch is not None:
                merged.merge(sketch)
        return merged

    def quantile(
        self, scope: str, name: str, q: float, last: int | None = None
    ) -> float:
        """Quantile of ``(scope, name)`` over the last ``last`` windows."""
        return self.merged_sketch(scope, name, last).quantile(q)

    def counter_total(
        self, scope: str, name: str, last: int | None = None
    ) -> int:
        """Sum of counter ``(scope, name)`` over the last ``last`` windows."""
        total = 0
        for window in self._selected(last):
            total += window.counters.get((scope, name), 0)
        return total

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self, last: int | None = None) -> dict:
        """A JSON-safe, deterministic snapshot of retained windows.

        Counters and sketches are listed as sorted ``[scope, name, ...]``
        triples so equal series produce byte-identical JSON.
        """
        windows = []
        for window in self._selected(last):
            windows.append(
                {
                    "index": window.index,
                    "start_us": window.index * self.window_us,
                    "counters": [
                        [scope, name, window.counters[(scope, name)]]
                        for scope, name in sorted(window.counters)
                    ],
                    "sketches": [
                        [scope, name, window.sketches[(scope, name)].snapshot()]
                        for scope, name in sorted(window.sketches)
                    ],
                }
            )
        return {
            "window_us": self.window_us,
            "retention": self.retention,
            "alpha": self.alpha,
            "dropped_windows": self.dropped_windows,
            "windows": windows,
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
        return {
            "window_us": DEFAULT_WINDOW_US,
            "retention": DEFAULT_RETENTION,
            "alpha": 0.01,
            "dropped_windows": 0,
            "windows": [],
        }
    first = snapshots[0]
    by_index: dict[int, dict] = {}
    dropped = 0
    for snap in snapshots:
        if snap["window_us"] != first["window_us"] or snap["alpha"] != first["alpha"]:
            raise WindowMergeError(
                f"cannot merge window snapshots with different geometry: "
                f"window_us {first['window_us']!r} vs {snap['window_us']!r}, "
                f"alpha {first['alpha']!r} vs {snap['alpha']!r}"
            )
        dropped += snap.get("dropped_windows", 0)
        for window in snap["windows"]:
            index = window["index"]
            merged = by_index.get(index)
            if merged is None:
                by_index[index] = {
                    "index": index,
                    "start_us": window["start_us"],
                    "counters": {
                        (scope, name): value
                        for scope, name, value in window["counters"]
                    },
                    "sketches": {
                        (scope, name): Sketch.from_snapshot(sketch)
                        for scope, name, sketch in window["sketches"]
                    },
                }
                continue
            counters = merged["counters"]
            for scope, name, value in window["counters"]:
                key = (scope, name)
                counters[key] = counters.get(key, 0) + value
            sketches = merged["sketches"]
            for scope, name, snap_sketch in window["sketches"]:
                key = (scope, name)
                incoming = Sketch.from_snapshot(snap_sketch)
                if key in sketches:
                    sketches[key].merge(incoming)
                else:
                    sketches[key] = incoming
    windows = []
    for index in sorted(by_index):
        merged = by_index[index]
        windows.append(
            {
                "index": index,
                "start_us": merged["start_us"],
                "counters": [
                    [scope, name, merged["counters"][(scope, name)]]
                    for scope, name in sorted(merged["counters"])
                ],
                "sketches": [
                    [scope, name, merged["sketches"][(scope, name)].snapshot()]
                    for scope, name in sorted(merged["sketches"])
                ],
            }
        )
    return {
        "window_us": first["window_us"],
        "retention": max(s["retention"] for s in snapshots),
        "alpha": first["alpha"],
        "dropped_windows": dropped,
        "windows": windows,
    }


def _snapshot_windows(snapshot: dict, last: int | None) -> Iterable[dict]:
    windows = sorted(snapshot.get("windows", ()), key=lambda w: w["index"])
    if last is not None and last >= 0:
        windows = windows[-last:] if last else []
    return windows


def snapshot_quantile(
    snapshot: dict, scope: str, name: str, q: float, last: int | None = None
) -> float:
    """Recompute a quantile offline from a snapshot dict.

    Bit-identical to the live ``WindowedSeries.quantile`` on the series
    that produced the snapshot: quantile evaluation reads only integer
    bucket counts, which round-trip exactly through the snapshot.
    """
    merged = Sketch(snapshot["alpha"])
    for window in _snapshot_windows(snapshot, last):
        for sketch_scope, sketch_name, sketch in window["sketches"]:
            if sketch_scope == scope and sketch_name == name:
                merged.merge(Sketch.from_snapshot(sketch))
    return merged.quantile(q)


def snapshot_counter_total(
    snapshot: dict, scope: str, name: str, last: int | None = None
) -> int:
    """Sum a counter offline from a snapshot dict."""
    total = 0
    for window in _snapshot_windows(snapshot, last):
        for counter_scope, counter_name, value in window["counters"]:
            if counter_scope == scope and counter_name == name:
                total += value
    return total


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
