"""Observability for the subcontract runtime: causal tracing + metrics.

The paper's whole point is that subcontracts hide machinery — replication,
caching, reconnection — behind an unchanged stub boundary.  This package
makes that hidden machinery observable per call: every invocation opens a
**span** carrying a trace id and parent span id, the context rides the
communication buffer across doors/fabric/netserver/skeleton hops, and the
subcontracts annotate spans with the routing decisions they make (cluster
member chosen, cache hit or miss, replicon failover, reconnect retries,
rawnet retransmits).

Design constraints (see ``docs/observability.md``):

* **Near-zero disabled cost.**  Every kernel has a ``tracer`` attribute,
  preinstalled as the no-op :data:`NULL_TRACER`; hot paths pay exactly one
  attribute read plus one branch (``if kernel.tracer.enabled:``) at
  each span site.  The kernel's two legs (``Kernel.door_call``,
  ``Kernel.incoming``) open their spans behind that branch in one
  body; only ``core.stubs.remote_call`` keeps a separate traced twin,
  where merging would cost the disabled path a Python frame per call.
* **Simulated and wall time.**  Span timestamps come from the kernel's
  deterministic :class:`~repro.kernel.clock.SimClock`; wall-clock deltas
  ride along for profiling real hardware.  The tracer's own probe cost is
  charged to the clock (``trace_span`` / ``trace_event``) only while
  tracing is enabled, so disabled runs are bit-for-bit identical.
* **Per-domain ring collection.**  Finished spans land in a fixed-size
  per-domain ring (no lock, no unbounded growth); exporters and the CLI
  merge the rings.

The v2 analysis layer builds on the same feed (see
``docs/observability.md``): :class:`~repro.obs.sketch.Sketch` gives
relative-error quantiles, :class:`~repro.obs.windows.WindowedSeries`
buckets them into tumbling sim-time windows,
:mod:`repro.obs.attribution` decomposes call latency into named
segments, and :mod:`repro.obs.slo` evaluates declarative SLO policies
with burn-rate alerting — all deterministic, all mergeable across
processes, and all served back through the runtime's own doors by
:mod:`repro.services.obsd`.
"""

from __future__ import annotations

from repro.obs.attribution import (
    attribution_json,
    attribution_report,
    render_attribution,
)
from repro.obs.export import (
    chrome_trace,
    render_metrics,
    render_summary,
    render_tree,
    span_record,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsMergeError,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.ring import TraceRing
from repro.obs.sketch import Sketch, SketchMergeError
from repro.obs.slo import SloEngine, SloPolicy, render_slo, slo_json
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer, install_tracer
from repro.obs.windows import (
    WindowedSeries,
    WindowMergeError,
    install_windows,
    merge_window_snapshots,
    snapshot_counter_total,
    snapshot_quantile,
    uninstall_windows,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsMergeError",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Sketch",
    "SketchMergeError",
    "SloEngine",
    "SloPolicy",
    "Span",
    "TraceRing",
    "Tracer",
    "WindowMergeError",
    "WindowedSeries",
    "attribution_json",
    "attribution_report",
    "chrome_trace",
    "install_tracer",
    "install_windows",
    "merge_snapshots",
    "merge_window_snapshots",
    "render_attribution",
    "render_metrics",
    "render_slo",
    "render_summary",
    "render_tree",
    "slo_json",
    "snapshot_counter_total",
    "snapshot_quantile",
    "span_record",
    "uninstall_windows",
    "write_chrome_trace",
    "write_jsonl",
]
