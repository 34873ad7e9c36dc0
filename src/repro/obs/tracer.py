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
* **across the transmission boundary** — ``Kernel.door_call`` stamps the
  door span's ``(trace_id, span_id)`` as the per-hop :data:`TRACE` key of
  the buffer's call context (:meth:`Span.stamp`), and ``Kernel.incoming``
  starts the handler span from that key alone.  Domain isolation holds:
  no Python object crosses, only the two integers, and the rawnet
  subcontract proves the point by carrying the same pair in-band in its
  packet headers
  (:meth:`~repro.marshal.codec.TaggedStream.put_trace_ctx`).

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
import struct
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.marshal.context import register_key
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

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "TRACE", "install_tracer"]

#: call-context key of the trace context ``(trace_id, span_id)``; per hop
TRACE = register_key(
    3,
    "trace",
    encode=lambda pair, now_us: struct.pack("<QQ", *pair),
    decode=lambda data, now_us: struct.unpack("<QQ", data),
    inherit=False,
)


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
        "_stack",
        "_ended",
    )

    def __init__(
        self,
        tracer: "Tracer",
        domain: "Domain",
        name: str,
        category: str,
        attrs: dict,
        ctx: "tuple[int, int] | None",
    ) -> None:
        """Open under ``ctx`` = ``(trace_id, parent_id)``, or under the
        thread's current span if ``None``; ``attrs`` becomes the span's."""
        stack = getattr(tracer._local, "stack", None)
        if stack is None:
            stack = tracer._local.stack = []
        if ctx is None:
            ctx = (stack[-1].trace_id, stack[-1].span_id) if stack else (next(tracer._trace_ids), 0)
        clock = tracer.clock
        clock.charge(_EV_TRACE_SPAN)
        self.tracer = tracer
        self.trace_id, self.parent_id = ctx
        self.span_id = next(tracer._span_ids)
        self.name = name
        self.category = category
        self.subcontract: str | None = None
        self.domain_name = domain.name
        machine = domain.machine
        self.machine_name = machine.name if machine is not None else ""
        self.end_sim_us = 0.0
        self.end_wall_s = 0.0
        self.status = "ok"
        self.error_type: str | None = None
        self.error_message: str | None = None
        self.events: list[dict] = []
        self.attrs: dict[str, Any] = attrs
        self.seq = -1
        ring = domain._trace_ring
        if ring is None or ring.owner is not tracer:
            ring = tracer._ring_for(domain)
        self._ring = ring
        self._stack = stack
        self._ended = False
        self.start_sim_us = clock.now_us
        self.start_wall_s = time.perf_counter()  # springlint: disable=clock-discipline -- spans record real wall-clock deltas alongside simulated time by design
        stack.append(self)

    # -- annotation ----------------------------------------------------

    @property
    def ctx(self) -> tuple[int, int]:
        """The wire form of this span: ``(trace_id, span_id)``."""
        return (self.trace_id, self.span_id)

    def stamp(self, ctx: "dict | None") -> dict:
        """``ctx`` with this span as the trace context of the hop it opens."""
        return {**(ctx or {}), TRACE: (self.trace_id, self.span_id)}

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
        """Finish the span: stamp end times, pop the stack, record it
        (ring, windows, and an invoke span's aggregates).

        Idempotent — a second ``end`` (e.g. an explicit call inside a
        ``with`` block) is a no-op.
        """
        if self._ended:
            return
        self._ended = True
        tracer = self.tracer
        clock = tracer.clock
        self.end_sim_us = clock.now_us
        self.end_wall_s = time.perf_counter()  # springlint: disable=clock-discipline -- spans record real wall-clock deltas alongside simulated time by design
        stack = self._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # out-of-order end: remove without disturbing others
            try:
                stack.remove(self)
            except ValueError:
                pass
        ring = self._ring  # TraceRing.record, inline
        self.seq = seq = next(ring._counter)
        ring._slots[seq % ring.capacity] = self
        windows = tracer.windows
        if windows is not None:
            clock.charge(_EV_WINDOW_PROBE)
            windows.record_span(self)
        if self.category != "invoke":
            return
        # Registry handles are bound once per (scope, name), on first use.
        scope = self.subcontract or "unknown"
        bound = tracer._bound
        (bound.get((scope, "invocations")) or tracer._bind(scope, "invocations")).value += 1
        if self.status != "ok":
            (bound.get((scope, "errors")) or tracer._bind(scope, "errors")).value += 1
        attrs = self.attrs
        for name, bounds, value in (
            ("invoke_sim_us", LATENCY_BUCKETS_US, self.end_sim_us - self.start_sim_us),
            ("request_bytes", BYTES_BUCKETS, attrs.get("request_bytes")),
            ("reply_bytes", BYTES_BUCKETS, attrs.get("reply_bytes")),
            ("retries", RETRY_BUCKETS, attrs.get("retries")),
        ):
            if value is not None:
                (bound.get((scope, name)) or tracer._bind(scope, name, bounds)).observe(value)

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
        #: (scope, name) -> an invoke aggregate's registry Counter/Histogram
        self._bound: dict[tuple[str, str], Any] = {}

    # -- plumbing ------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _ring_for(self, domain: "Domain") -> TraceRing:
        with self._ring_lock:
            ring = domain._trace_ring
            if ring is None or ring.owner is not self:
                ring = TraceRing(self.ring_capacity, owner=self, domain_name=domain.name)
                domain._trace_ring = ring
                self._rings.append(ring)
            return ring

    def _bind(self, scope: str, name: str, bounds: Any = None) -> Any:
        """Bind one invoke aggregate to its registry handle (first use only;
        the registry's bounds check runs here, and for every other caller)."""
        if bounds is None:
            handle = self.metrics.counter(scope, name)  # springlint: disable=metrics-naming -- generic relay: the literal names are in Span.end
        else:
            handle = self.metrics.histogram(scope, name, bounds)  # springlint: disable=metrics-naming -- generic relay: the literal names are in Span.end
        self._bound[scope, name] = handle
        return handle

    # -- span creation (each is one Span constructor call) --------------

    def begin_span(
        self, domain: "Domain", name: str, category: str = "span", **attrs: Any
    ) -> Span:
        """Open a span; its parent is the calling thread's current span."""
        return Span(self, domain, name, category, attrs, None)

    def begin_invoke(
        self, domain: "Domain", op: str, subcontract_id: str, **attrs: Any
    ) -> Span:
        """Open the client-side invocation span for one operation."""
        span = Span(self, domain, op, "invoke", attrs, None)
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
        the transmission (the call context's :data:`TRACE` key, or a
        rawnet packet header); the thread stack is deliberately not
        consulted, so the causal link is exactly what crossed the wire.
        """
        if ctx is None:
            ctx = (next(self._trace_ids), 0)
        return Span(self, domain, name, "handler", attrs, ctx)

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
