"""Metrics registry and the tracer's per-subcontract accounting."""

from __future__ import annotations

import pytest

from repro.obs.demo import run_demo
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.runtime.faults import crash_domain


class TestPrimitives:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_histogram_bucket_placement(self):
        h = Histogram((10.0, 100.0))
        h.observe(5.0)    # < 10
        h.observe(50.0)   # < 100
        h.observe(10.0)   # boundary: an exact bound lands in the next bucket
        h.observe(1e6)    # overflow
        assert h.counts == [1, 2, 1]
        assert h.total == 4
        assert h.mean == pytest.approx((5 + 50 + 10 + 1e6) / 4)

    def test_histogram_rejects_empty_bounds(self):
        with pytest.raises(ValueError):
            Histogram(())

    def test_registry_is_keyed_by_scope_and_name(self):
        reg = MetricsRegistry()
        reg.counter("cluster", "invocations").inc()
        reg.counter("caching", "invocations").inc(2)
        reg.histogram("cluster", "lat", (1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["cluster"]["counters"]["invocations"] == 1
        assert snap["caching"]["counters"]["invocations"] == 2
        assert snap["cluster"]["histograms"]["lat"]["count"] == 1


class TestInvokeAccounting:
    def test_invocations_and_size_histograms(self, traced_world):
        env, tracer, _, _, remote = traced_world
        remote.add(1)
        remote.add(2)
        snap = tracer.metrics.snapshot()
        scoped = snap["singleton"]
        assert scoped["counters"]["invocations"] == 2
        assert "errors" not in scoped["counters"]
        assert scoped["histograms"]["invoke_sim_us"]["count"] == 2
        assert scoped["histograms"]["request_bytes"]["count"] == 2
        assert scoped["histograms"]["reply_bytes"]["count"] == 2
        assert scoped["histograms"]["request_bytes"]["sum"] > 0

    def test_failed_invocation_counts_as_error(self, traced_world):
        env, tracer, _, server, remote = traced_world
        crash_domain(server)
        with pytest.raises(Exception):
            remote.add(1)
        scoped = tracer.metrics.snapshot()["singleton"]
        assert scoped["counters"]["invocations"] == 1
        assert scoped["counters"]["errors"] == 1

    def test_bound_handle_keeps_the_registry_bounds_check(self, traced_world):
        """The tracer binds its invoke aggregates once; the registry still
        refuses anyone else who asks for them with other bounds."""
        from repro.obs.metrics import LATENCY_BUCKETS_US, MetricsMergeError

        env, tracer, _, _, remote = traced_world
        remote.add(1)
        with pytest.raises(MetricsMergeError):
            tracer.metrics.histogram("singleton", "invoke_sim_us", (1.0, 2.0))
        remote.add(2)
        bound = tracer.metrics.histogram("singleton", "invoke_sim_us", LATENCY_BUCKETS_US)
        assert bound.total == 2


class TestSubcontractEventCounters:
    def test_demo_counts_routing_events_per_subcontract(self):
        _, tracer = run_demo()
        snap = tracer.metrics.snapshot()
        # At least the three counter calls (add, add, total) chose a
        # member; naming-service resolves are cluster calls too.
        assert snap["cluster"]["counters"]["events:cluster.member"] >= 3
        # store.get: miss, hit, then a post-invalidation miss on "k".
        assert snap["caching"]["counters"]["events:cache.miss"] >= 2
        assert snap["caching"]["counters"]["events:cache.hit"] >= 1
        # The demo's invoke spans all landed in per-subcontract scopes.
        for scope in ("cluster", "caching", "singleton"):
            assert snap[scope]["counters"]["invocations"] > 0


class TestMergeSafety:
    """Regressions for the mismatched-bounds paths (obs v2 hardening)."""

    def test_rerequest_with_different_bounds_raises(self):
        from repro.obs.metrics import MetricsMergeError

        registry = MetricsRegistry()
        registry.histogram("s", "lat", (1.0, 10.0)).observe(5.0)
        with pytest.raises(MetricsMergeError) as exc:
            registry.histogram("s", "lat", (1.0, 100.0))
        assert "'s'" in str(exc.value) and "'lat'" in str(exc.value)
        # same bounds re-request returns the same histogram untouched
        again = registry.histogram("s", "lat", (1.0, 10.0))
        assert again.total == 1

    def test_merge_snapshots_with_mismatched_bounds_raises(self):
        from repro.obs.metrics import MetricsMergeError, merge_snapshots

        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("s", "lat", (1.0, 10.0)).observe(2.0)
        b.histogram("s", "lat", (5.0, 50.0)).observe(2.0)
        with pytest.raises(MetricsMergeError) as exc:
            merge_snapshots(a.snapshot(), b.snapshot())
        assert "'s'" in str(exc.value) and "'lat'" in str(exc.value)

    def test_merge_snapshots_with_matching_bounds_adds(self):
        from repro.obs.metrics import merge_snapshots

        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("s", "lat", (1.0, 10.0)).observe(2.0)
        b.histogram("s", "lat", (1.0, 10.0)).observe(20.0)
        a.counter("s", "calls").inc(3)
        b.counter("s", "calls").inc(4)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["s"]["counters"]["calls"] == 7
        assert merged["s"]["histograms"]["lat"]["count"] == 2
