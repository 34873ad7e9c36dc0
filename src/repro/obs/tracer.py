"""The tracer: spans, causal context, and the no-op disabled mode.

One :class:`Tracer` serves one kernel (``kernel.tracer``); every kernel
boots with the preallocated :data:`NULL_TRACER`, whose class-level
``enabled = False`` is the *only* thing hot paths ever read from it.

Span model
----------

A span is one timed unit of work, in one domain, with a name and a
category describing which layer did the work::

    invoke     client stub -> subcontract (a generated general or fused stub)
    door       kernel door traversal (door_call's launch seam)
    fabric     cross-machine forwarding (launch seam, around the carry)
    netserver  door-identifier translation at a machine boundary
    handler    server-side door delivery (handler seam / rawnet receive)
    skeleton   server subcontract -> server stubs dispatch

Causality is carried two ways:

* **within a call chain on one thread** — a per-thread span stack; a new
  span's parent is the stack top, which is how a nested stub call
  made from inside a server-side handler joins its caller's trace;
* **across the transmission boundary** — the launch-seam stage
  (:meth:`Tracer.around_launch`) stamps the door span's
  ``(trace_id, span_id)`` as the per-hop :data:`TRACE` key of the
  buffer's call context (:meth:`Span.stamp`), and the handler-seam stage
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
from bisect import bisect_right
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
    """One timed unit of work; also a context manager (records errors).
    ``end_sim_us`` and ``end_wall_s`` exist once it has ended."""

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
        try:
            stack = tracer._local.stack
        except AttributeError:
            stack = tracer._local.stack = []
        if ctx is not None:
            self.trace_id, self.parent_id = ctx
        elif stack:
            parent = stack[-1]
            self.trace_id, self.parent_id = parent.trace_id, parent.span_id
        else:
            self.trace_id, self.parent_id = next(tracer._trace_ids), 0
        clock = tracer.clock
        clock.charge(_EV_TRACE_SPAN)
        self.tracer = tracer
        self.span_id = next(tracer._span_ids)
        self.name = name
        self.category = category
        self.subcontract: str | None = None
        self.domain_name = domain.name
        machine = domain.machine
        self.machine_name = machine.name if machine is not None else ""
        self.status = "ok"
        self.error_type: str | None = None
        self.error_message: str | None = None
        #: point events, in order; spans without any share one empty tuple
        self.events: "list[dict] | tuple[()]" = ()
        self.attrs: dict[str, Any] = attrs
        self.seq = -1  # its ring position once ended
        ring = domain._trace_ring
        if ring is None or ring.owner is not tracer:
            ring = tracer._ring_for(domain)
        self._ring = ring
        self._stack = stack
        self.start_sim_us = clock.now()
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
        self.events = [*self.events, evt]

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
        if self.seq >= 0:
            return
        tracer = self.tracer
        clock = tracer.clock
        self.end_sim_us = clock.now()
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
        # The scope's registry handles sit in one list, each bound on first
        # use (an aggregate never observed has no registry entry).
        scope = self.subcontract or "unknown"
        bound = tracer._bound.get(scope)
        if bound is None:
            bound = tracer._bound[scope] = [None] * len(_AGGREGATES)
        (bound[0] or tracer._bind(bound, scope, 0)).value += 1
        if self.status != "ok":
            (bound[1] or tracer._bind(bound, scope, 1)).value += 1
        attrs = self.attrs
        for slot, value in (
            (2, self.end_sim_us - self.start_sim_us),
            (3, attrs.get("request_bytes")),
            (4, attrs.get("reply_bytes")),
            (5, attrs.get("retries")),
        ):
            if value is not None:  # Histogram.observe, inline
                histogram = bound[slot] or tracer._bind(bound, scope, slot)
                histogram.counts[bisect_right(histogram.bounds, value)] += 1
                histogram.total += 1
                histogram.sum += value

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

#: an invoke span's aggregates, in the order of a scope's handle list:
#: (name, histogram bounds, or None for a counter)
_AGGREGATES = (
    ("invocations", None), ("errors", None), ("invoke_sim_us", LATENCY_BUCKETS_US),
    ("request_bytes", BYTES_BUCKETS), ("reply_bytes", BYTES_BUCKETS), ("retries", RETRY_BUCKETS),
)


class Tracer:
    """Live tracer for one kernel: spans, per-domain rings, metrics."""

    #: hot paths read only this; NullTracer's False makes them no-ops
    enabled = True
    rank = 30  # innermost: spans time what the base does

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
        #: scope -> its invoke aggregates' registry handles (see _AGGREGATES)
        self._bound: dict[str, list[Any]] = {}

    # -- plumbing ------------------------------------------------------

    def _ring_for(self, domain: "Domain") -> TraceRing:
        with self._ring_lock:
            ring = domain._trace_ring
            if ring is None or ring.owner is not self:
                ring = TraceRing(self.ring_capacity, owner=self, domain_name=domain.name)
                domain._trace_ring = ring
                self._rings.append(ring)
            return ring

    def _bind(self, bound: list, scope: str, slot: int) -> Any:
        """Bind one invoke aggregate to its registry handle (first use only;
        the registry's bounds check runs here, and for every other caller)."""
        name, bounds = _AGGREGATES[slot]
        if bounds is None:
            handle = self.metrics.counter(scope, name)  # springlint: disable=metrics-naming -- generic relay: the literal names are in _AGGREGATES
        else:
            handle = self.metrics.histogram(scope, name, bounds)  # springlint: disable=metrics-naming -- generic relay: the literal names are in _AGGREGATES
        bound[slot] = handle
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

    # -- the kernel's seams --------------------------------------------

    def around_launch(self, inner: Any) -> Any:
        """Launch seam: the door span (the hop's trace context, riding in
        the call context) and, across machines, the fabric span."""

        def launch(caller, door, buffer, remote):
            ctx, server, name = buffer.ctx, door.server, door.label
            span = Span(
                self, caller, name or f"door#{door.uid}", "door",
                {"door": door.uid, "server": server.name, "remote": remote}, None,
            )
            carry = None
            try:
                hop = (span.trace_id, span.span_id)  # span.stamp(ctx), inline
                buffer.ctx = {**ctx, TRACE: hop} if ctx else {TRACE: hop}
                if remote:
                    carry = Span(
                        self, caller, "fabric.carry", "fabric",
                        {"src": caller.machine.name, "dst": server.machine.name,
                         "bytes": buffer.size}, None,
                    )
                reply = inner(caller, door, buffer, remote)
                if carry is not None:
                    carry.attrs["reply_bytes"] = reply.size
                return reply
            except BaseException as exc:
                if carry is not None:
                    carry.record_error(exc)
                span.record_error(exc)
                raise
            finally:
                buffer.ctx = ctx
                if carry is not None:
                    carry.end()
                span.end()

        return launch

    def around_handler(self, inner: Any) -> Any:
        """Handler seam: the handler span's parent is ONLY the trace
        context that crossed with the call, never this thread's stack."""

        def handle(door, buffer):
            ctx = buffer.ctx
            trace = ctx.get(TRACE) if ctx is not None else None
            span = Span(
                self, door.server, door.label or f"door#{door.uid}", "handler",
                {"door": door.uid}, trace or (next(self._trace_ids), 0),
            )
            try:
                return inner(door, buffer)
            except BaseException as exc:
                span.record_error(exc)
                raise
            finally:
                span.end()

        return handle

    # -- current-span conveniences (safe no-ops with no span open) -----

    def current(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def current_ctx(self) -> tuple[int, int] | None:
        """Wire context of the current span, for in-band transports."""
        stack = getattr(self._local, "stack", None)
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
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].event(name, **detail)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the current span, if one is open."""
        stack = getattr(self._local, "stack", None)
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
    kernel.interpose(tracer)
    return tracer
