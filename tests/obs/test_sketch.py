"""Sketch properties: relative-error bound, exact merge associativity,
snapshot round-trips — the guarantees the windowed plane builds on."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import Sketch, SketchMergeError


def exact_quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    return ordered[int(rank)]


class TestAccuracy:
    def test_quantiles_within_relative_error_bound(self):
        rng = random.Random(1993)
        values = [rng.uniform(1.0, 100_000.0) for _ in range(5000)]
        sketch = Sketch(alpha=0.01)
        for value in values:
            sketch.insert(value)
        for q in (0.5, 0.9, 0.99, 0.999):
            true = exact_quantile(values, q)
            estimate = sketch.quantile(q)
            assert abs(estimate - true) <= 0.0101 * true

    def test_insert_order_does_not_change_quantiles(self):
        values = [float(v) for v in range(1, 500)]
        forward, backward = Sketch(), Sketch()
        for value in values:
            forward.insert(value)
        for value in reversed(values):
            backward.insert(value)
        for q in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0):
            assert forward.quantile(q) == backward.quantile(q)

    def test_zero_and_subminimum_values_report_zero(self):
        sketch = Sketch(min_value=1e-6)
        for _ in range(10):
            sketch.insert(0.0)
        sketch.insert(5.0)
        assert sketch.zero_count == 10
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) > 0.0

    def test_negative_values_refused(self):
        with pytest.raises(ValueError):
            Sketch().insert(-1.0)

    def test_empty_sketch_is_calm(self):
        sketch = Sketch()
        assert sketch.quantile(0.99) == 0.0
        assert sketch.mean() == 0.0
        assert len(sketch) == 0

    def test_mean_and_count(self):
        sketch = Sketch()
        sketch.insert(10.0)
        sketch.insert(30.0, count=3)
        assert len(sketch) == 4
        assert sketch.mean() == pytest.approx(25.0)
        assert sketch.min == 10.0
        assert sketch.max == 30.0

    def test_max_buckets_collapses_low_end_keeps_tail(self):
        sketch = Sketch(alpha=0.01, max_buckets=64)
        for exponent in range(200):  # 200 distinct buckets across ~60 decades
            sketch.insert(2.0**exponent)
        assert len(sketch._buckets) <= 64
        # collapsed values moved to the zero bucket; the tail keeps resolution
        assert sketch.zero_count > 0
        top = 2.0**199
        assert abs(sketch.quantile(1.0) - top) <= 0.0101 * top


class TestMerge:
    def _filled(self, seed: int) -> Sketch:
        rng = random.Random(seed)
        sketch = Sketch()
        for _ in range(400):
            sketch.insert(rng.uniform(0.5, 50_000.0))
        return sketch

    def test_merge_is_exactly_associative(self):
        a, b, c = self._filled(1), self._filled(2), self._filled(3)
        left = a.copy().merge(b.copy()).merge(c.copy())
        right = a.copy().merge(b.copy().merge(c.copy()))
        # bit-identical bucket maps, not merely close quantiles
        assert left._buckets == right._buckets
        assert left.zero_count == right.zero_count
        assert left.count == right.count
        for q in (0.5, 0.9, 0.99):
            assert left.quantile(q) == right.quantile(q)

    def test_merge_is_commutative_for_quantiles(self):
        a, b = self._filled(4), self._filled(5)
        ab = a.copy().merge(b.copy())
        ba = b.copy().merge(a.copy())
        assert ab._buckets == ba._buckets
        assert ab.quantile(0.99) == ba.quantile(0.99)

    def test_merge_equals_single_sketch_of_union(self):
        rng = random.Random(6)
        values_a = [rng.uniform(1.0, 1000.0) for _ in range(200)]
        values_b = [rng.uniform(1.0, 1000.0) for _ in range(200)]
        a, b, union = Sketch(), Sketch(), Sketch()
        for value in values_a:
            a.insert(value)
            union.insert(value)
        for value in values_b:
            b.insert(value)
            union.insert(value)
        merged = a.merge(b)
        assert merged._buckets == union._buckets
        assert merged.quantile(0.99) == union.quantile(0.99)

    def test_mismatched_resolution_refused(self):
        with pytest.raises(SketchMergeError):
            Sketch(alpha=0.01).merge(Sketch(alpha=0.02))
        with pytest.raises(SketchMergeError):
            Sketch(min_value=1e-6).merge(Sketch(min_value=1e-3))


class TestSnapshot:
    def test_snapshot_roundtrip_is_exact(self):
        sketch = Sketch()
        for value in (0.0, 0.5, 10.0, 10.0, 99.9, 12345.6):
            sketch.insert(value)
        restored = Sketch.from_snapshot(sketch.snapshot())
        assert restored._buckets == sketch._buckets
        assert restored.count == sketch.count
        assert restored.zero_count == sketch.zero_count
        for q in (0.1, 0.5, 0.99):
            assert restored.quantile(q) == sketch.quantile(q)

    def test_snapshot_survives_json(self):
        sketch = Sketch()
        for value in range(1, 100):
            sketch.insert(float(value))
        wire = json.loads(json.dumps(sketch.snapshot()))
        assert Sketch.from_snapshot(wire).quantile(0.9) == sketch.quantile(0.9)

    def test_empty_snapshot_has_null_extrema(self):
        snap = Sketch().snapshot()
        assert snap["min"] is None and snap["max"] is None
        assert Sketch.from_snapshot(snap).quantile(0.5) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=1e-3, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=300,
    ),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_quantile_relative_error(values, q):
    """DDSketch's contract: any quantile of any data set within alpha."""
    sketch = Sketch(alpha=0.01)
    for value in values:
        sketch.insert(value)
    true = exact_quantile(values, q)
    estimate = sketch.quantile(q)
    # alpha plus float-arithmetic headroom
    assert abs(estimate - true) <= 0.0101 * true + 1e-9


class _ReferenceSketch(Sketch):
    """``insert`` as it reads without the last-index memo: every value's
    bucket index computed from scratch."""

    def insert(self, value: float, count: int = 1) -> None:
        self.count += count
        self.sum += value * count
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if value < self.min_value:
            self.zero_count += count
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[index] = self._buckets.get(index, 0) + count
        if len(self._buckets) > self.max_buckets:
            self._collapse()


@settings(max_examples=80, deadline=None)
@given(
    pool=st.lists(
        st.one_of(
            st.floats(min_value=1e-3, max_value=1e7, allow_nan=False),
            st.floats(min_value=0.0, max_value=9e-7),  # below min_value
        ),
        min_size=1,
        max_size=6,
    ),
    picks=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=120),
    max_buckets=st.integers(min_value=1, max_value=4),
)
def test_memoised_index_matches_computing_every_index(pool, picks, max_buckets):
    """Runs of repeated values (the memo's hits), values below
    ``min_value`` and inserts after ``_collapse`` land exactly where a
    sketch that computes every index puts them."""
    fast = Sketch(max_buckets=max_buckets)
    slow = _ReferenceSketch(max_buckets=max_buckets)
    for pick in picks:
        value = pool[pick % len(pool)]
        fast.insert(value)
        slow.insert(value)
        fast.insert(value, 2)
        slow.insert(value, 2)
    assert fast._buckets == slow._buckets
    assert (fast.zero_count, fast.count, fast.min, fast.max) == (
        slow.zero_count,
        slow.count,
        slow.min,
        slow.max,
    )
