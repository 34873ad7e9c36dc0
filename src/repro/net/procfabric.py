"""The process fabric: door calls across real OS process boundaries.

The paper's claim is that subcontracts can swap the entire distribution
mechanism under unchanged stubs; the simulated
:class:`~repro.net.fabric.NetworkFabric` proves it for a deterministic
in-process world, and this module proves it for *real* parallelism.  A
:class:`ProcFabric` supervisor forks worker processes (one per simulated
machine), each serving exports behind its own kernel; a door call from
the supervisor process crosses the boundary carrying the exact wire
bytes the client stub already marshalled — framed by the small envelope
of :mod:`repro.marshal.envelope` and written, header plus payload, as
one gather write on the per-worker socketpair at every size.

The join with the rest of the codebase is a *proxy door*: ``bind``
creates an ordinary kernel door in the supervisor whose handler forwards
the sealed request bytes to a worker and wraps the reply bytes back into
a pooled buffer.  The generated general stubs, the singleton
subcontract, deadlines, tracing, retry policies, and admission control
all run unchanged above it — the correctness planes compose across a
transport they were not born on:

* **deadlines** — the proxy hands the request's call context to the
  envelope unread; the deadline crosses as the *remaining budget*, the
  worker re-anchors it on its own clock, its ordinary incoming-leg check
  refuses late calls (:class:`DeadlineExceeded` crosses back as an ERROR
  envelope) and the handler's own calls inherit it.
* **tracing** — the proxy opens a ``fabric`` span and stamps it as the
  context's trace key; the worker's handler span parents from that
  wire context alone, so both processes' spans join one trace id.
* **admission** — the worker hands each call to its kernel's
  ``incoming`` leg, where the admission gate sits; a shed call's
  :class:`ServerBusyError` (with its ``retry_after_us`` hint)
  round-trips exactly.

The in-process simulated fabric stays the default transport
(``Environment(transport="sim")``); nothing in this module is imported
on that path, so tier-1 determinism and the pinned sim totals are
untouched.
"""

from __future__ import annotations

# springlint: wall-clock-module -- the supervisor blocks on real sockets,
# join timeouts, and worker teardown: wall-clock use here IS the transport,
# not a simulated path.

import itertools
import json
import multiprocessing
import os
import socket
import struct
import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.core.registry import ensure_registry
from repro.kernel.errors import (
    CommunicationError,
    DeadlineExceeded,
    DoorAccessError,
    DoorRevokedError,
    DomainCrashedError,
    InvalidDoorError,
    KernelError,
    NetworkPartitionError,
    ServerBusyError,
    ServerDiedError,
)
from repro.marshal.context import DEADLINE
from repro.marshal.envelope import (
    KIND_CALL,
    KIND_CONTROL,
    KIND_ERROR,
    ChannelClosedError,
    pack_context,
    recv_envelope,
    send_envelope,
    unpack_error,
)
from repro.net.procworker import (
    OP_LIST_EXPORTS,
    OP_OBS_PULL,
    OP_PING,
    OP_SHUTDOWN,
    worker_main,
)
from repro.obs.export import span_record
from repro.obs.metrics import merge_snapshots
from repro.obs.windows import merge_window_snapshots
from repro.subcontracts.common import SingleDoorRep

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.domain import Domain
    from repro.kernel.nucleus import Kernel

__all__ = ["ProcFabric", "ProcFabricError"]

#: SO_SNDBUF/SO_RCVBUF asked for on each socketpair end (the host may
#: clamp it): a payload under this size leaves the sender in one write
#: instead of trickling out as the peer drains a smaller default buffer
SOCKET_BUFFER_BYTES = 1 << 20

_SPAN_CARRY = "procfabric.carry"

#: wire error-type name -> local class, for reconstructing worker-raised
#: kernel errors on the supervisor side (ServerBusyError is special-cased
#: to restore its retry_after_us hint)
_ERROR_CLASSES = {
    cls.__name__: cls
    for cls in (
        KernelError,
        InvalidDoorError,
        DoorRevokedError,
        DoorAccessError,
        DomainCrashedError,
        CommunicationError,
        NetworkPartitionError,
        ServerDiedError,
        ServerBusyError,
        DeadlineExceeded,
    )
}


class ProcFabricError(KernelError):
    """The process fabric itself failed (configuration, lost worker)."""


class _Pending:
    """One in-flight call awaiting its reply envelope."""

    __slots__ = ("event", "envelope", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.envelope = None
        self.error: BaseException | None = None


class _WorkerHandle:
    """Supervisor-side state for one worker process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Any = None
        self.sock: socket.socket | None = None
        self.send_lock = threading.Lock()
        self.pending: dict[int, _Pending] = {}
        self.reader: threading.Thread | None = None
        self.exports: dict[str, int] = {}
        self.alive = False
        self.calls = 0

    def fail_pending(self, error: BaseException) -> None:
        while self.pending:
            try:
                _, waiting = self.pending.popitem()
            except KeyError:  # pragma: no cover - racing reader teardown
                break
            waiting.error = error
            waiting.event.set()


class ProcFabric:
    """Supervisor for a set of worker processes serving door calls.

    ``bootstrap`` runs *in each worker* after its environment boots and
    returns ``{name: SpringObject}`` — the worker's named exports.  The
    supervisor's :meth:`bind` then materialises a proxy object for one
    export so unchanged client stubs drive it.

    The fabric requires the ``fork`` start method (the bootstrap
    callable and config cross by inheritance, never by pickling);
    platforms without it should skip, which is what the test suite does.
    """

    def __init__(
        self,
        kernel: "Kernel",
        workers: int = 2,
        bootstrap: Callable[[Any, int], dict] | None = None,
        seed: int = 1993,
        trace: bool = False,
        windows: "dict | bool" = False,
        log_dir: str | None = None,
        call_timeout_s: float = 30.0,
    ) -> None:
        if bootstrap is None:
            raise ProcFabricError("ProcFabric needs a worker bootstrap callable")
        if workers < 1:
            raise ProcFabricError("ProcFabric needs at least one worker")
        self.kernel = kernel
        self.workers = workers
        self.bootstrap = bootstrap
        self.seed = seed
        self.trace = trace
        # Windowed telemetry needs span records, hence tracing: a truthy
        # ``windows`` (True, or an install_windows kwargs dict) implies it.
        if windows and not trace:
            raise ProcFabricError("windows=... requires trace=True")
        self.windows = windows
        self.log_dir = log_dir if log_dir is not None else os.environ.get(
            "PROCFABRIC_LOG_DIR"
        )
        self.call_timeout_s = call_timeout_s
        self._handles: list[_WorkerHandle] = []
        self._call_ids = itertools.count(1)
        self._bridges: dict[int, "Domain"] = {}
        self._started = False
        self._shut = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ProcFabric":
        """Fork the workers, wire sockets and reader threads, load exports.

        A failure anywhere in here (socketpair exhaustion, a worker
        whose bootstrap raises so its export roundtrip dies) reaps every
        worker forked so far before re-raising: no orphaned processes,
        sockets, or reader threads outlive a failed start.
        """
        if self._started:
            raise ProcFabricError("ProcFabric already started")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ProcFabricError(
                "the process fabric requires the fork start method"
            )
        try:
            self._start_workers()
        except BaseException:
            self._shut = True
            for handle in self._handles:
                self._reap(handle, 1.0, graceful=False)
            raise
        return self

    def _start_workers(self) -> None:
        ctx = multiprocessing.get_context("fork")
        config = {
            "seed": self.seed,
            "trace": self.trace,
            "windows": self.windows,
            "log_dir": self.log_dir,
        }
        # A send-only timeout (SO_SNDTIMEO takes a struct timeval): a
        # write the worker stops draining gives up after call_timeout_s
        # without progress, while the reader thread's blocking recv on
        # the same socket is untouched.
        whole_s, frac_s = divmod(self.call_timeout_s, 1.0)
        send_timeout = struct.pack("ll", int(whole_s), int(frac_s * 1_000_000))
        for index in range(self.workers):
            handle = _WorkerHandle(index)
            self._handles.append(handle)
            parent_sock, child_sock = socket.socketpair()
            handle.sock = parent_sock
            for end in (parent_sock, child_sock):
                end.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SOCKET_BUFFER_BYTES)
                end.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, SOCKET_BUFFER_BYTES)
            parent_sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, send_timeout)
            process = ctx.Process(
                target=worker_main,
                args=(index, child_sock, self.bootstrap, config),
                name=f"procfabric-worker-{index}",
                daemon=True,
            )
            process.start()
            child_sock.close()
            handle.process = process
            handle.alive = True
            reader = threading.Thread(
                target=self._read_replies,
                args=(handle,),
                name=f"procfabric-reader-{index}",
                daemon=True,
            )
            handle.reader = reader
            reader.start()
        self._started = True
        for handle in self._handles:
            doc = json.loads(self._control(handle.index, OP_LIST_EXPORTS))
            handle.exports = dict(doc["exports"])

    def shutdown(self, join_timeout_s: float = 5.0) -> None:
        """Stop every worker: graceful first, then kill the wedged.

        A worker that does not exit within ``join_timeout_s`` of the
        shutdown request (it may be wedged inside a handler) is killed;
        either way its in-flight callers get :class:`ServerDiedError`,
        never a hang.
        """
        if not self._started or self._shut:
            self._shut = True
            return
        self._shut = True
        for handle in self._handles:
            if handle.alive:
                try:
                    self._send(handle, KIND_CONTROL, next(self._call_ids), OP_SHUTDOWN, b"")
                except (OSError, ProcFabricError, ServerDiedError):
                    pass
        for handle in self._handles:
            self._reap(handle, join_timeout_s)

    def kill_worker(self, index: int, join_timeout_s: float = 2.0) -> None:
        """Forcibly tear down one worker (crash injection, wedge recovery)."""
        self._reap(self._handles[index], join_timeout_s, graceful=False)

    def _reap(
        self, handle: _WorkerHandle, join_timeout_s: float, graceful: bool = True
    ) -> None:
        process = handle.process
        if process is not None:
            if graceful:
                process.join(join_timeout_s)
            if process.is_alive():
                process.terminate()
                process.join(1.0)
            if process.is_alive():  # pragma: no cover - SIGTERM ignored
                process.kill()
                process.join(1.0)
        handle.alive = False
        if handle.sock is not None:
            try:
                handle.sock.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        if handle.reader is not None and handle.reader is not threading.current_thread():
            handle.reader.join(2.0)
        handle.fail_pending(
            ServerDiedError(f"procfabric worker {handle.index} was torn down")
        )

    # ------------------------------------------------------------------
    # binding: proxy doors for worker exports
    # ------------------------------------------------------------------

    def bind(
        self,
        domain: "Domain",
        name: str,
        binding: "InterfaceBinding",
        worker: int = 0,
    ) -> Any:
        """A proxy object in ``domain`` for a worker's named export.

        The proxy is an ordinary singleton-subcontract object over a
        local door whose handler forwards the wire bytes; unchanged
        general (or specialized) stubs drive it.
        """
        handle = self._handles[worker]
        export_id = handle.exports.get(name)
        if export_id is None:
            raise ProcFabricError(
                f"worker {worker} exports {sorted(handle.exports)}, not {name!r}"
            )
        kernel = self.kernel
        bridge = self._bridge_for(domain)
        handler = self._forward_handler(bridge, worker, export_id, name)
        door_id = kernel.create_door(
            bridge, handler, label=f"procfabric:{name}@w{worker}"
        )
        ident = kernel.attach_door_id(domain, kernel.detach_door_id(bridge, door_id))
        vector = ensure_registry(domain).lookup("singleton")
        return vector.make_object(SingleDoorRep(ident), binding)

    def _bridge_for(self, domain: "Domain") -> "Domain":
        """One bridge domain per caller machine hosts the proxy doors.

        The bridge shares the caller's machine so the sim fabric never
        intervenes: the proxy door call is a plain local delivery whose
        handler does the real cross-process work.
        """
        machine = domain.machine
        key = id(machine)
        bridge = self._bridges.get(key)
        if bridge is None:
            bridge = self.kernel.create_domain(
                f"procfabric-bridge:{machine.name if machine else 'local'}"
            )
            bridge.machine = machine
            self._bridges[key] = bridge
        return bridge

    def _forward_handler(
        self, bridge: "Domain", worker: int, export_id: int, name: str
    ) -> Callable:
        kernel = self.kernel

        def handler(request):
            # The context leaves on the clock as the request reached the
            # proxy: budgets are measured before the carry span's probe.
            ctx = request.ctx
            now_us = kernel.clock.now_us if ctx is not None else 0.0
            dl = ctx.get(DEADLINE) if ctx is not None else None
            if dl is not None and now_us >= dl:
                raise DeadlineExceeded(
                    f"deadline spent before crossing to worker {worker} "
                    f"({now_us - dl:.1f} us over budget)"
                )
            tracer = kernel.tracer
            if tracer.enabled:
                with tracer.begin_span(
                    bridge, _SPAN_CARRY, "fabric", worker=worker, export=name
                ) as span:
                    context = pack_context(span.stamp(ctx), now_us)
                    payload = self.call_raw(worker, export_id, request.data, context)
            else:
                context = pack_context(ctx, now_us) if ctx is not None else b""
                payload = self.call_raw(worker, export_id, request.data, context)
            reply = bridge.acquire_buffer()
            reply.data.extend(payload)
            return reply

        return handler

    # ------------------------------------------------------------------
    # the wire
    # ------------------------------------------------------------------

    def call_raw(
        self,
        worker: int,
        export_id: int,
        payload: "bytes | bytearray | memoryview",
        context: bytes = b"",
        timeout_s: float | None = None,
    ) -> bytes:
        """Ship one call's bytes and packed context; returns the reply bytes.

        Raises the reconstructed worker-side error for ERROR envelopes
        and :class:`ServerDiedError` when the worker dies mid-call.
        """
        handle = self._handles[worker]
        envelope = self._roundtrip(
            handle, KIND_CALL, export_id, payload, context, timeout_s
        )
        handle.calls += 1
        if envelope.kind == KIND_ERROR:
            raise self._map_error(envelope.payload)
        return envelope.payload

    def _control(self, worker: int, op: int, timeout_s: float | None = None) -> bytes:
        envelope = self._roundtrip(
            self._handles[worker], KIND_CONTROL, op, b"", timeout_s=timeout_s
        )
        return envelope.payload

    def _send(
        self,
        handle: _WorkerHandle,
        kind: int,
        call_id: int,
        target: int,
        payload: "bytes | bytearray | memoryview",
        context: bytes = b"",
    ) -> None:
        # The send lock keeps frames whole: one writer per socket at a time.
        with handle.send_lock:
            if not handle.alive or handle.sock is None:
                raise ServerDiedError(f"procfabric worker {handle.index} is down")
            try:
                send_envelope(handle.sock, kind, call_id, target, payload, context)
            except OSError as exc:
                # The socket failed, or took no bytes for call_timeout_s
                # (the worker is wedged or gone).  Either way the frame
                # stream may be torn mid-frame and no later frame can be
                # sent on it, so the worker is reaped before the lock
                # drops: whoever takes the lock next finds it dead.
                self._reap(handle, 1.0, graceful=False)
                raise ServerDiedError(
                    f"procfabric worker {handle.index} connection failed, or "
                    f"took no bytes for {self.call_timeout_s:.1f}s: {exc}"
                ) from exc

    def _roundtrip(
        self,
        handle: _WorkerHandle,
        kind: int,
        target: int,
        payload: "bytes | bytearray | memoryview",
        context: bytes = b"",
        timeout_s: float | None = None,
    ):
        call_id = next(self._call_ids)
        pending = _Pending()
        handle.pending[call_id] = pending
        try:
            self._send(handle, kind, call_id, target, payload, context)
        except BaseException:
            handle.pending.pop(call_id, None)
            raise
        if not pending.event.wait(timeout_s or self.call_timeout_s):
            handle.pending.pop(call_id, None)
            raise CommunicationError(
                f"no reply from procfabric worker {handle.index} within "
                f"{timeout_s or self.call_timeout_s:.1f}s"
            )
        if pending.envelope is None:
            raise pending.error or ServerDiedError(
                f"procfabric worker {handle.index} died mid-call"
            )
        return pending.envelope

    def _read_replies(self, handle: _WorkerHandle) -> None:
        """Per-worker reader thread: dispatch replies to waiting callers."""
        sock = handle.sock
        try:
            while True:
                envelope = recv_envelope(sock, self.kernel.clock)
                waiting = handle.pending.pop(envelope.call_id, None)
                if waiting is not None:
                    waiting.envelope = envelope
                    waiting.event.set()
        except (ChannelClosedError, OSError):
            pass
        handle.alive = False
        handle.fail_pending(
            ServerDiedError(
                f"procfabric worker {handle.index} process died "
                "(connection closed with calls in flight)"
            )
        )

    @staticmethod
    def _map_error(payload: bytes) -> Exception:
        """Reconstruct a worker-raised error from an ERROR payload."""
        name, message, retry_after_us = unpack_error(payload)
        if name == "ServerBusyError":
            return ServerBusyError(message, retry_after_us=retry_after_us)
        cls = _ERROR_CLASSES.get(name)
        if cls is not None:
            return cls(message)
        return CommunicationError(f"worker raised {name}: {message}")

    # ------------------------------------------------------------------
    # observability: cross-process pull + merge
    # ------------------------------------------------------------------

    def ping(self, worker: int, timeout_s: float = 5.0) -> bool:
        try:
            self._control(worker, OP_PING, timeout_s=timeout_s)
            return True
        except (CommunicationError, ProcFabricError):
            return False

    def pull_obs(self, worker: int) -> dict:
        """One worker's spans, metrics, windows, clock, and call count."""
        return json.loads(self._control(worker, OP_OBS_PULL))

    def merged_spans(self) -> list[dict]:
        """Supervisor + worker span records, tagged with their process.

        Deterministically ordered by ``(trace_id, span_id, process)``:
        worker span ids live in disjoint per-worker bands, so the same
        set of calls yields the same record order no matter which
        worker replied first or how the pull interleaved.
        """
        records: list[dict] = []
        tracer = self.kernel.tracer
        if tracer.enabled:
            for span in tracer.spans():
                rec = span_record(span)
                rec["process"] = "supervisor"
                records.append(rec)
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                spans = self.pull_obs(handle.index)["spans"]
            except (ServerDiedError, CommunicationError):
                continue  # died between the check and the roundtrip
            for rec in spans:
                rec["process"] = f"worker{handle.index}"
                records.append(rec)
        records.sort(key=lambda r: (r["trace_id"], r["span_id"], r["process"]))
        return records

    def merged_metrics(self) -> dict:
        """Per-subcontract metric snapshots merged across processes."""
        snapshots = []
        tracer = self.kernel.tracer
        if tracer.enabled:
            snapshots.append(tracer.metrics.snapshot())
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                snapshots.append(self.pull_obs(handle.index)["metrics"])
            except (ServerDiedError, CommunicationError):
                continue  # died between the check and the roundtrip
        return merge_snapshots(*snapshots)

    def merged_windows(self) -> dict:
        """Windowed snapshots merged across processes (obs v2).

        Workers booted with ``windows=...`` ship their snapshot in the
        OBS_PULL document; the supervisor's own series (if installed)
        joins the merge.  Sketch merges are exactly associative, so the
        merged quantiles are independent of worker pull order.
        """
        snapshots = []
        tracer = self.kernel.tracer
        windows = getattr(tracer, "windows", None)
        if windows is not None:
            snapshots.append(windows.snapshot())
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                snapshot = self.pull_obs(handle.index).get("windows")
            except (ServerDiedError, CommunicationError):
                continue  # died between the check and the roundtrip
            if snapshot:
                snapshots.append(snapshot)
        return merge_window_snapshots(*snapshots)

    def stats(self) -> dict:
        """Supervisor-side transport counters, per worker."""
        return {
            handle.index: {
                "alive": handle.alive,
                "calls": handle.calls,
                # Constant: benchmarks/suite/workloads.py indexes this key;
                # the next [benchmark] PR drops it together with ring_share.
                "ring_payloads": 0,
                "pending": len(handle.pending),
                "exports": dict(handle.exports),
            }
            for handle in self._handles
        }

    # -- context manager -----------------------------------------------

    def __enter__(self) -> "ProcFabric":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.shutdown()
        return False
