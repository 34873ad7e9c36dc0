"""DDSketch-style quantile sketch with relative-error guarantees.

PR 3's fixed-bucket :class:`~repro.obs.metrics.Histogram` deliberately
stopped short of percentiles: linear buckets cannot bound the error of
a quantile estimate, so reporting one would be a lie.  The :class:`Sketch`
closes that gap with the DDSketch construction (Masson, Rim & Lee,
VLDB'19): values are bucketed by the integer ``ceil(log_gamma(v))``
where ``gamma = (1 + alpha) / (1 - alpha)``, which guarantees every
quantile estimate is within a *relative* error of ``alpha`` of the true
value — ``p99 = 100ms ± 1ms`` at the default ``alpha = 0.01``, whether
the underlying values are microseconds or minutes.

Three properties matter for this codebase:

* **Mergeable, exactly associative.**  Buckets hold integer counts at
  integer indices, so merging two sketches is integer addition bucket
  by bucket — ``(a + b) + c`` and ``a + (b + c)`` produce *identical*
  bucket maps, and therefore bit-identical quantiles.  This is what
  lets the procfabric supervisor merge per-worker sketches over the
  wire and report fleet quantiles no worse than a single process would.
* **Deterministic.**  Quantile evaluation walks buckets in sorted index
  order; snapshots list buckets in sorted order.  The same inserts in
  any order produce the same quantiles (the float ``sum`` field is the
  one order-dependent value, and is documented as such).
* **Bounded.**  The bucket count grows with the *dynamic range* of the
  data, not its volume: values spanning 1us..100s at ``alpha = 0.01``
  need ~920 buckets, ever.  ``max_buckets`` collapses the lowest
  buckets into the zero bucket if a pathological range exceeds it.

Values must be non-negative (durations, byte counts, depths).  Values
below ``min_value`` (including zero) land in a dedicated zero bucket
and are reported as ``0.0`` by quantile evaluation.
"""

from __future__ import annotations

import math
from collections import Counter

__all__ = ["Sketch", "SketchMergeError"]


class SketchMergeError(ValueError):
    """Two sketches with different resolution parameters were merged."""


class Sketch:
    """Mergeable relative-error quantile sketch (DDSketch construction).

    ``alpha`` is the relative-error bound: ``quantile(q)`` returns a
    value within ``alpha * true_value`` of the true q-quantile of the
    inserted values.  Sketches only merge with sketches built with the
    same ``alpha`` and ``min_value``.
    """

    __slots__ = (
        "alpha",
        "min_value",
        "max_buckets",
        "_gamma",
        "_log_gamma",
        "_buckets",
        "_last_value",
        "_last_index",
        "zero_count",
        "count",
        "sum",
        "min",
        "max",
    )

    def __init__(
        self,
        alpha: float = 0.01,
        *,
        min_value: float = 1e-6,
        max_buckets: int = 4096,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
        if min_value <= 0.0:
            raise ValueError(f"min_value must be positive, got {min_value!r}")
        self.alpha = alpha
        self.min_value = min_value
        self.max_buckets = max_buckets
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        #: bucket index -> integer count; index i covers (gamma^(i-1), gamma^i]
        self._buckets: dict[int, int] = {}
        self._last_value = self._last_index = None  # _bucket's index memo
        self.zero_count = 0
        self.count = 0
        #: sum of inserted values — float accumulation, the one field
        #: whose low bits depend on insert order; use for means only
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- insertion ------------------------------------------------------

    def insert(self, value: float, count: int = 1) -> None:
        """Insert ``value`` with multiplicity ``count`` (integer)."""
        if value < 0.0:
            raise ValueError(f"sketch values must be >= 0, got {value!r}")
        if count <= 0:
            raise ValueError(f"count must be positive, got {count!r}")
        self.count += count
        self.sum += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._bucket(value, count)

    def extend(self, values: "list[float]") -> None:
        """Insert each of ``values`` once: exactly repeated :meth:`insert`
        (the same count, sum added in order, min, max and buckets), equal
        values sharing one bucket update.  A negative, infinite or NaN
        value sends them all through :meth:`insert`, which raises on it."""
        total = self.sum
        for value in values:
            total += value
        if not (values and min(values) >= 0.0 and total < math.inf):
            for value in values:
                self.insert(value)
            return
        self.count += len(values)
        self.sum = total
        self.min = min(self.min, *values)
        self.max = max(self.max, *values)
        for value, count in Counter(values).items():
            self._bucket(value, count)

    def _bucket(self, value: float, count: int) -> None:
        if value < self.min_value:
            self.zero_count += count
            return
        # Durations repeat exactly, so the last value's index is kept.
        if value == self._last_value:
            index = self._last_index
        else:
            index = math.ceil(math.log(value) / self._log_gamma)
            self._last_value, self._last_index = value, index
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + count
        # Collapsing here or after every insert leaves the same buckets: a
        # collapsed index lies below max_buckets others, which stay.
        if len(buckets) > self.max_buckets:
            self._collapse()

    def _collapse(self) -> None:
        """Fold the lowest buckets into the zero bucket to respect
        ``max_buckets``.  Collapsing low (not high) keeps the tail
        quantiles — the ones operators page on — at full resolution."""
        order = sorted(self._buckets)
        while len(self._buckets) > self.max_buckets:
            lowest = order.pop(0)
            self.zero_count += self._buckets.pop(lowest)

    # -- evaluation -----------------------------------------------------

    def _bucket_value(self, index: int) -> float:
        # midpoint (harmonic) of (gamma^(i-1), gamma^i]: relative error
        # against any value in the bucket is <= (gamma-1)/(gamma+1) = alpha
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """The q-quantile estimate, within ``alpha`` relative error.

        Deterministic: identical bucket contents (any insert order)
        produce bit-identical results.  Empty sketch returns ``0.0``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = q * (self.count - 1)
        cumulative = self.zero_count
        if rank < cumulative:
            return 0.0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if rank < cumulative:
                return self._bucket_value(index)
        return self._bucket_value(max(self._buckets))

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Sketch(alpha={self.alpha}, count={self.count}, "
            f"buckets={len(self._buckets)})"
        )

    # -- merge / snapshot ----------------------------------------------

    def _check_compatible(self, other_alpha: float, other_min: float) -> None:
        if other_alpha != self.alpha or other_min != self.min_value:
            raise SketchMergeError(
                f"cannot merge sketches with different resolution: "
                f"alpha {self.alpha!r} vs {other_alpha!r}, "
                f"min_value {self.min_value!r} vs {other_min!r}"
            )

    def merge(self, other: "Sketch") -> "Sketch":
        """Fold ``other`` into this sketch in place; returns ``self``.

        Integer bucket counts make the merge exactly associative and
        commutative for every quantile (``sum`` is float-accumulated
        and only mean-grade).
        """
        self._check_compatible(other.alpha, other.min_value)
        buckets = self._buckets
        for index, count in other._buckets.items():
            buckets[index] = buckets.get(index, 0) + count
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        if len(buckets) > self.max_buckets:
            self._collapse()
        return self

    def copy(self) -> "Sketch":
        clone = Sketch(
            self.alpha, min_value=self.min_value, max_buckets=self.max_buckets
        )
        clone._buckets = dict(self._buckets)
        clone.zero_count = self.zero_count
        clone.count = self.count
        clone.sum = self.sum
        clone.min = self.min
        clone.max = self.max
        return clone

    def snapshot(self) -> dict:
        """A JSON-safe, deterministic snapshot (buckets in sorted order)."""
        return {
            "alpha": self.alpha,
            "min_value": self.min_value,
            "zero_count": self.zero_count,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": [[index, self._buckets[index]] for index in sorted(self._buckets)],
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> "Sketch":
        """Rebuild a sketch from :meth:`snapshot` output (wire format)."""
        sketch = cls(snap["alpha"], min_value=snap["min_value"])
        sketch._buckets = {int(index): int(count) for index, count in snap["buckets"]}
        sketch.zero_count = int(snap["zero_count"])
        sketch.count = int(snap["count"])
        sketch.sum = float(snap["sum"])
        sketch.min = math.inf if snap["min"] is None else float(snap["min"])
        sketch.max = -math.inf if snap["max"] is None else float(snap["max"])
        return sketch
