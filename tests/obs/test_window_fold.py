"""The batched window fold equals folding every feed at once.

``WindowedSeries`` appends each feed to its window's pending list and
folds later (rollover, a full list, any read).  ``EagerSeries`` below is
the fold-at-feed reference: the same windows, counters and sketches,
each feed applied the moment it arrives with ``Sketch.insert``.  Random
feeds of spans (failed ones too), events, observes and counts, over
times that roll windows, evict them from the retention ring and send
stragglers back, must leave both with byte-equal JSON snapshots, float
``sum`` fields included, whatever the fold bound.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import windows as windows_module
from repro.obs.sketch import Sketch
from repro.obs.windows import WindowedSeries


class EagerSeries:
    """Fold-at-feed reference for :class:`WindowedSeries`."""

    def __init__(self, window_us: float, retention: int) -> None:
        self.window_us = window_us
        self.retention = retention
        self.slots: list = [None] * retention
        self.dropped_windows = 0
        self.recorded = 0

    def _window_at(self, now_us: float):
        index = int(now_us // self.window_us)
        slot = index % self.retention
        window = self.slots[slot]
        if window is not None and window["index"] == index:
            return window
        if window is not None and window["index"] > index:
            return None
        if window is not None:
            self.dropped_windows += 1
        window = self.slots[slot] = {"index": index, "counters": {}, "sketches": {}}
        return window

    def count(self, scope, name, now_us, n=1):
        window = self._window_at(now_us)
        if window is not None:
            counters = window["counters"]
            counters[scope, name] = counters.get((scope, name), 0) + n
            self.recorded += 1

    def observe(self, scope, name, value, now_us):
        window = self._window_at(now_us)
        if window is not None:
            window["sketches"].setdefault((scope, name), Sketch()).insert(value)
            self.recorded += 1

    def record_span(self, span):
        failed = span.status != "ok"
        if span.category == "invoke":
            scope = span.subcontract or "unknown"
            counted = ("invocations", "errors") if failed else ("invocations",)
            sketched = "invoke_sim_us"
        elif span.category in ("door", "handler"):
            scope = span.category
            counted = (span.name, span.name + ".errors") if failed else (span.name,)
            sketched = span.name + ".sim_us"
        elif span.category == "fabric":
            scope, counted, sketched = "fabric", (), span.name + ".sim_us"
        else:
            scope, counted, sketched = "span", (span.category,), None
        window = self._window_at(span.end_sim_us)
        if window is None:
            return
        for name in counted:
            key = (scope, name)
            window["counters"][key] = window["counters"].get(key, 0) + 1
            self.recorded += 1
        if sketched is not None:
            sketch = window["sketches"].setdefault((scope, sketched), Sketch())
            sketch.insert(span.end_sim_us - span.start_sim_us)
            self.recorded += 1

    def record_event(self, name, subcontract, detail, now_us):
        scope = subcontract or "event"
        self.count(scope, name, now_us)
        for key, value in detail.items():
            if key.endswith("_us") and isinstance(value, (int, float)):
                self.observe(scope, name + "." + key, value, now_us)

    def snapshot(self) -> dict:
        windows = sorted((w for w in self.slots if w is not None), key=lambda w: w["index"])
        return {
            "window_us": self.window_us,
            "retention": self.retention,
            "alpha": 0.01,
            "dropped_windows": self.dropped_windows,
            "windows": [
                {
                    "index": w["index"],
                    "start_us": w["index"] * self.window_us,
                    "counters": [[*key, w["counters"][key]] for key in sorted(w["counters"])],
                    "sketches": [
                        [*key, w["sketches"][key].snapshot()] for key in sorted(w["sketches"])
                    ],
                }
                for w in windows
            ],
        }


def span(category, name, subcontract, failed, end_us, duration_us):
    return SimpleNamespace(
        category=category,
        name=name,
        subcontract=subcontract,
        status="error" if failed else "ok",
        start_sim_us=end_us - duration_us,
        end_sim_us=end_us,
    )


def dumped(series) -> str:
    return json.dumps(series.snapshot(), sort_keys=True)


# Durations mostly repeat exactly (as sim durations do), some do not.
durations = st.one_of(
    st.sampled_from([0.0, 0.6, 111.4, 114.43, 1e-7]),
    st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
)
spans = st.tuples(
    st.just("span"),
    st.sampled_from(["invoke", "door", "handler", "fabric", "skeleton", "netserver"]),
    st.sampled_from(["add", "total", "door#7"]),
    st.sampled_from([None, "singleton", "replicon"]),
    st.booleans(),
    durations,
)
events = st.tuples(
    st.just("event"),
    st.sampled_from(["retry.backoff", "chaos.delay"]),
    st.sampled_from([None, "retry"]),
    st.dictionaries(
        st.sampled_from(["backoff_us", "wait_us", "attempt", "label"]),
        st.one_of(st.integers(0, 50), durations, st.just("x")),
        max_size=3,
    ),
)
observes = st.tuples(st.just("observe"), st.sampled_from(["queue_depth", "x"]), durations)
counts = st.tuples(st.just("count"), st.sampled_from(["a", "b"]), st.integers(0, 5))
reads = st.tuples(st.just("read"))
# A step moves sim time forward a little, across windows, or back (a straggler).
steps = st.one_of(
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=3.0, max_value=60.0),
    st.floats(min_value=-40.0, max_value=0.0),
)
feeds = st.lists(
    st.tuples(st.one_of(spans, spans, events, observes, counts, reads), steps),
    max_size=120,
)


def feed_both(batched, eager, script):
    now = 100.0
    for feed, step in script:
        now = max(0.0, now + step)
        kind = feed[0]
        if kind == "span":
            _, category, name, subcontract, failed, duration = feed
            one = span(category, name, subcontract, failed, now, duration)
            batched.record_span(one)
            eager.record_span(one)
        elif kind == "event":
            _, name, subcontract, detail = feed
            batched.record_event(name, subcontract, detail, now)
            eager.record_event(name, subcontract, detail, now)
        elif kind == "observe":
            batched.observe("admission", feed[1], feed[2], now)
            eager.observe("admission", feed[1], feed[2], now)
        elif kind == "count":
            batched.count("s", feed[1], now, feed[2])
            eager.count("s", feed[1], now, feed[2])
        else:
            assert dumped(batched) == dumped(eager)  # a read folds mid-stream


@settings(max_examples=150, deadline=None)
@given(
    script=feeds,
    retention=st.integers(1, 4),
    fold_at=st.sampled_from([1, 2, 5, 512]),
)
def test_batched_fold_snapshots_equal_the_eager_fold(script, retention, fold_at):
    with mock.patch.object(windows_module, "_FOLD_AT", fold_at):
        batched = WindowedSeries(window_us=10.0, retention=retention)
        eager = EagerSeries(10.0, retention)
        feed_both(batched, eager, script)
        assert dumped(batched) == dumped(eager)
        assert (batched.recorded, batched.dropped_windows) == (
            eager.recorded,
            eager.dropped_windows,
        )


def test_failed_and_ok_spans_reach_their_shared_sketch_in_feed_order():
    # 0.3 + 0.1 + 0.2 and 0.3 + 0.2 + 0.1 differ in the last bit: the
    # sketch's sum shows the order its values arrived in
    batched = WindowedSeries(window_us=1e9, retention=2)
    eager = EagerSeries(1e9, 2)
    for failed, duration in ((False, 0.3), (True, 0.1), (False, 0.2)):
        one = span("door", "d", None, failed, duration, duration)
        one.start_sim_us = 0.0
        batched.record_span(one)
        eager.record_span(one)
    assert batched.merged_sketch("door", "d.sim_us").sum == 0.3 + 0.1 + 0.2
    assert dumped(batched) == dumped(eager)


def test_a_full_pending_list_folds_at_the_bound():
    batched = WindowedSeries(window_us=1e9, retention=2)
    eager = EagerSeries(1e9, 2)
    feed_both(
        batched,
        eager,
        [(("span", "door", "d", None, i % 7 == 0, 0.1 * (i % 3)), 0.5) for i in range(1300)],
    )
    (window,) = [w for w in batched._slots if w is not None]
    assert len(window.pending) == 1300 % 512  # two bound folds, the rest waits
    assert dumped(batched) == dumped(eager)
    assert window.pending == []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            st.sampled_from([0.0, 1e-7, 2.5, 2.5000000000000004]),
        ),
        max_size=60,
    ),
    st.sampled_from([3, 8, 4096]),
)
def test_extend_equals_repeated_insert(values, max_buckets):
    extended, inserted = Sketch(max_buckets=max_buckets), Sketch(max_buckets=max_buckets)
    extended.insert(3.0)
    inserted.insert(3.0)
    extended.extend(values)
    for value in values:
        inserted.insert(value)
    assert json.dumps(extended.snapshot()) == json.dumps(inserted.snapshot())


def test_extend_raises_where_insert_raises():
    extended, inserted = Sketch(), Sketch()
    values = [1.0, 2.0, -1.0, 4.0]
    try:
        extended.extend(values)
    except ValueError as exc:
        raised = str(exc)
    else:
        raise AssertionError("extend took a negative value")
    for value in values[:2]:
        inserted.insert(value)
    assert raised == "sketch values must be >= 0, got -1.0"
    assert extended.snapshot() == inserted.snapshot()


def test_appends_racing_a_fold_are_never_lost():
    """Four threads (more than cores) feed one window while the bound
    folds run on them; each fold sleeps mid-way, so the others append to
    the list it is folding.  A fold removes only the entries it folded."""
    threads, per_thread = 4, 3_000
    series = WindowedSeries(window_us=1e9, retention=2)
    one = span("door", "d", None, False, 50.0, 1.5)
    start = threading.Barrier(threads, timeout=30)
    extend = Sketch.extend

    def extend_after_a_yield(sketch, values):
        time.sleep(0.0002)
        extend(sketch, values)

    def feed():
        start.wait()
        for _ in range(per_thread):
            series.record_span(one)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(Sketch, "extend", extend_after_a_yield):
            workers = [threading.Thread(target=feed) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert series.counter_total("door", "d") == threads * per_thread
    assert series.merged_sketch("door", "d.sim_us").count == threads * per_thread
