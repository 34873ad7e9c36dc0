"""The tracer: spans, causal context, and the no-op disabled mode.

One :class:`Tracer` serves one kernel (``kernel.tracer``); every kernel
boots with the preallocated :data:`NULL_TRACER`, whose class-level
``enabled = False`` is the *only* thing hot paths ever read from it.

Span model
----------

A span is one timed unit of work, in one domain, with a name and a
category describing which layer did the work::

    invoke     client stub -> subcontract (remote_call / fused stub)
    door       kernel door traversal (door_call)
    fabric     cross-machine forwarding (NetworkFabric.carry)
    netserver  door-identifier translation at a machine boundary
    handler    server-side door delivery (Kernel.incoming / rawnet receive)
    skeleton   server subcontract -> server stubs dispatch

Causality is carried two ways:

* **within a call chain on one thread** — a per-thread span stack; a new
  span's parent is the stack top, which is how a nested ``remote_call``
  made from inside a server-side handler joins its caller's trace;
* **across the transmission boundary** — ``Kernel.door_call`` stamps
  ``(trace_id, span_id)`` into the communication buffer's out-of-band
  ``trace_ctx`` slot (the same out-of-band channel the door vector
  uses), and ``Kernel.incoming`` starts the handler span from that
  context alone.  Domain isolation holds: no Python object crosses, only
  the two integers, and the rawnet subcontract proves the point by
  carrying the same pair in-band in its packet headers
  (:meth:`~repro.marshal.codec.Encoder.put_trace_ctx`).

Timestamps are simulated microseconds from the kernel's ``SimClock``;
wall-clock deltas (``time.perf_counter``) ride along so real-hardware
profiles can be read off the same spans.  While tracing is enabled the
tracer charges its own probe cost to the clock (``trace_span`` per span,
``trace_event`` per event) so traced sim-time is honest about the
instrumentation; disabled runs charge nothing and stay bit-for-bit
identical to an untraced tree.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import (
    BYTES_BUCKETS,
    LATENCY_BUCKETS_US,
    RETRY_BUCKETS,
    MetricsRegistry,
)
from repro.obs.ring import DEFAULT_RING_CAPACITY, TraceRing

if TYPE_CHECKING:
    from repro.kernel.domain import Domain
    from repro.kernel.nucleus import Kernel

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "install_tracer"]


class Span:
    """One timed unit of work; also a context manager (records errors)."""

    __slots__ = (
        "tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "category",
        "subcontract",
        "domain_name",
        "machine_name",
        "start_sim_us",
        "end_sim_us",
        "start_wall_s",
        "end_wall_s",
        "status",
        "error_type",
        "error_message",
        "events",
        "attrs",
        "seq",
        "_ring",
        "_ended",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: int,
        span_id: int,
        parent_id: int,
        name: str,
        category: str,
        domain: "Domain",
        ring: TraceRing,
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.subcontract: str | None = None
        self.domain_name = domain.name
        machine = domain.machine
        self.machine_name = machine.name if machine is not None else ""
        self.start_sim_us = 0.0
        self.end_sim_us = 0.0
        self.start_wall_s = 0.0
        self.end_wall_s = 0.0
        self.status = "ok"
        self.error_type: str | None = None
        self.error_message: str | None = None
        self.events: list[dict] = []
        self.attrs: dict[str, Any] = {}
        self.seq = -1
        self._ring = ring
        self._ended = False

    # -- annotation ----------------------------------------------------

    @property
    def ctx(self) -> tuple[int, int]:
        """The wire form of this span: ``(trace_id, span_id)``."""
        return (self.trace_id, self.span_id)

    @property
    def duration_us(self) -> float:
        return self.end_sim_us - self.start_sim_us

    @property
    def wall_us(self) -> float:
        return (self.end_wall_s - self.start_wall_s) * 1e6

    def annotate(self, **attrs: Any) -> None:
        """Attach key/value attributes to this span."""
        self.attrs.update(attrs)

    def event(self, name: str, **detail: Any) -> None:
        """Record a point-in-time event on this span."""
        clock = self.tracer.clock
        clock.charge(_EV_TRACE_EVENT)
        evt = {"name": name, "ts_us": clock.now_us}
        if detail:
            evt.update(detail)
        self.events.append(evt)

    def record_error(self, exc: BaseException) -> None:
        """Mark this span failed; called once per failing span."""
        self.status = "error"
        self.error_type = type(exc).__name__
        self.error_message = str(exc)

    # -- completion ----------------------------------------------------

    def end(self) -> None:
        """Finish the span: stamp end times, pop the stack, record it.

        Idempotent — a second ``end`` (e.g. an explicit call inside a
        ``with`` block) is a no-op.
        """
        if self._ended:
            return
        self._ended = True
        tracer = self.tracer
        self.end_sim_us = tracer.clock.now_us
        self.end_wall_s = time.perf_counter()  # springlint: disable=clock-discipline -- spans record real wall-clock deltas alongside simulated time by design
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # out-of-order end: remove without disturbing others
            try:
                stack.remove(self)
            except ValueError:
                pass
        tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc is not None:
            self.record_error(exc)
        self.end()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.trace_id}/{self.span_id} {self.category}:{self.name!r}"
            f" parent={self.parent_id} {self.status}>"
        )


#: precomputed charge-site names (clock-discipline: no hot-path formatting)
_EV_TRACE_SPAN = "trace_span"
_EV_TRACE_EVENT = "trace_event"
_EV_WINDOW_PROBE = "window_probe"


class Tracer:
    """Live tracer for one kernel: spans, per-domain rings, metrics."""

    #: hot paths read only this; NullTracer's False makes them no-ops
    enabled = True

    def __init__(
        self, kernel: "Kernel", ring_capacity: int = DEFAULT_RING_CAPACITY
    ) -> None:
        self.kernel = kernel
        self.clock = kernel.clock
        self.ring_capacity = ring_capacity
        self.metrics = MetricsRegistry()
        #: optional WindowedSeries (repro.obs.windows.install_windows);
        #: None keeps the windowed feed at one attr read per span/event
        self.windows = None
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._local = threading.local()
        self._rings: list[TraceRing] = []
        self._ring_lock = threading.Lock()

    # -- plumbing ------------------------------------------------------

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack: list[Span] = []
            self._local.stack = stack
            return stack

    def _ring_for(self, domain: "Domain") -> TraceRing:
        ring = domain._trace_ring
        if ring is not None and ring.owner is self:
            return ring
        with self._ring_lock:
            ring = domain._trace_ring
            if ring is None or ring.owner is not self:
                ring = TraceRing(self.ring_capacity, owner=self, domain_name=domain.name)
                domain._trace_ring = ring
                self._rings.append(ring)
            return ring

    def _finish(self, span: Span) -> None:
        span._ring.record(span)
        windows = self.windows
        if windows is not None:
            self.clock.charge(_EV_WINDOW_PROBE)
            windows.record_span(span)
        if span.category != "invoke":
            return
        scope = span.subcontract or "unknown"
        metrics = self.metrics
        metrics.counter(scope, "invocations").inc()
        if span.status != "ok":
            metrics.counter(scope, "errors").inc()
        metrics.histogram(scope, "invoke_sim_us", LATENCY_BUCKETS_US).observe(
            span.duration_us
        )
        attrs = span.attrs
        request_bytes = attrs.get("request_bytes")
        if request_bytes is not None:
            metrics.histogram(scope, "request_bytes", BYTES_BUCKETS).observe(
                request_bytes
            )
        reply_bytes = attrs.get("reply_bytes")
        if reply_bytes is not None:
            metrics.histogram(scope, "reply_bytes", BYTES_BUCKETS).observe(reply_bytes)
        retries = attrs.get("retries")
        if retries is not None:
            metrics.histogram(scope, "retries", RETRY_BUCKETS).observe(retries)

    # -- span creation -------------------------------------------------

    def _begin(
        self,
        domain: "Domain",
        name: str,
        category: str,
        trace_id: int,
        parent_id: int,
        attrs: dict,
    ) -> Span:
        clock = self.clock
        clock.charge(_EV_TRACE_SPAN)
        span = Span(
            self,
            trace_id,
            next(self._span_ids),
            parent_id,
            name,
            category,
            domain,
            self._ring_for(domain),
        )
        span.start_sim_us = clock.now_us
        span.start_wall_s = time.perf_counter()  # springlint: disable=clock-discipline -- spans record real wall-clock deltas alongside simulated time by design
        if attrs:
            span.attrs.update(attrs)
        self._stack().append(span)
        return span

    def begin_span(
        self, domain: "Domain", name: str, category: str = "span", **attrs: Any
    ) -> Span:
        """Open a span; its parent is the calling thread's current span."""
        stack = self._stack()
        if stack:
            top = stack[-1]
            trace_id, parent_id = top.trace_id, top.span_id
        else:
            trace_id, parent_id = next(self._trace_ids), 0
        return self._begin(domain, name, category, trace_id, parent_id, attrs)

    def begin_invoke(
        self, domain: "Domain", op: str, subcontract_id: str, **attrs: Any
    ) -> Span:
        """Open the client-side invocation span for one operation."""
        span = self.begin_span(domain, op, "invoke", **attrs)
        span.subcontract = subcontract_id
        return span

    def begin_handler(
        self,
        domain: "Domain",
        name: str,
        ctx: "tuple[int, int] | None",
        **attrs: Any,
    ) -> Span:
        """Open a server-side span parented ONLY by the wire context.

        ``ctx`` is the ``(trace_id, parent span_id)`` pair recovered from
        the transmission (buffer ``trace_ctx`` slot, or a rawnet packet
        header); the thread stack is deliberately not consulted, so the
        causal link is exactly what crossed the wire.
        """
        if ctx is not None:
            trace_id, parent_id = ctx
        else:
            trace_id, parent_id = next(self._trace_ids), 0
        return self._begin(domain, name, "handler", trace_id, parent_id, attrs)

    # -- current-span conveniences (safe no-ops with no span open) -----

    def current(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def current_ctx(self) -> tuple[int, int] | None:
        """Wire context of the current span, for in-band transports."""
        stack = self._stack()
        return stack[-1].ctx if stack else None

    def event(self, name: str, subcontract: str | None = None, **detail: Any) -> None:
        """Annotate the current span with a point event and count it.

        This is the one call subcontracts make at their routing decisions;
        with no span open (untraced entry point) the event is dropped,
        but the per-subcontract counter still ticks.
        """
        if subcontract is not None:
            self.metrics.counter(subcontract, "events:" + name).inc()  # springlint: disable=metrics-naming -- generic relay: the literal name is at the caller's emit site
        windows = self.windows
        if windows is not None:
            clock = self.clock
            clock.charge(_EV_WINDOW_PROBE)
            windows.record_event(name, subcontract, detail, clock.now_us)
        stack = self._stack()
        if stack:
            stack[-1].event(name, **detail)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the current span, if one is open."""
        stack = self._stack()
        if stack:
            stack[-1].attrs.update(attrs)

    # -- collection ----------------------------------------------------

    def rings(self) -> list[TraceRing]:
        with self._ring_lock:
            return list(self._rings)

    def spans(self) -> list[Span]:
        """All retained spans across every domain ring, in id order."""
        out: list[Span] = []
        for ring in self.rings():
            out.extend(ring.spans())
        out.sort(key=lambda s: (s.trace_id, s.span_id))
        return out

    def dropped(self) -> int:
        """Total spans lost to ring wraparound across all domains."""
        return sum(ring.dropped for ring in self.rings())


class NullTracer:
    """The preinstalled disabled tracer: one attribute, all no-ops.

    Hot paths check ``kernel.tracer.enabled`` and never call further; the
    method surface exists only so cold paths and tests may call through
    unconditionally.
    """

    enabled = False
    metrics = None
    windows = None

    def begin_span(self, *args: Any, **kwargs: Any) -> "_NullSpan":
        return _NULL_SPAN

    def begin_invoke(self, *args: Any, **kwargs: Any) -> "_NullSpan":
        return _NULL_SPAN

    def begin_handler(self, *args: Any, **kwargs: Any) -> "_NullSpan":
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def current_ctx(self) -> None:
        return None

    def event(self, *args: Any, **kwargs: Any) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None

    def spans(self) -> list:
        return []

    def dropped(self) -> int:
        return 0


class _NullSpan:
    """Inert span returned by :class:`NullTracer`."""

    __slots__ = ()

    status = "ok"

    def annotate(self, **attrs: Any) -> None:
        return None

    def event(self, name: str, **detail: Any) -> None:
        return None

    def record_error(self, exc: BaseException) -> None:
        return None

    def end(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: the process-wide disabled tracer every kernel boots with
NULL_TRACER = NullTracer()


def install_tracer(
    kernel: "Kernel", ring_capacity: int = DEFAULT_RING_CAPACITY
) -> Tracer:
    """Create a :class:`Tracer` and install it on ``kernel``."""
    tracer = Tracer(kernel, ring_capacity=ring_capacity)
    kernel.tracer = tracer
    return tracer
