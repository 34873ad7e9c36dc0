"""Worker-process side of the process fabric.

Each worker is one forked OS process standing in for one Spring machine:
it boots its own :class:`~repro.runtime.env.Environment` (own kernel,
own deterministic clock), runs the supervisor-provided ``bootstrap``
callable to export named objects, and then serves door calls off a
socketpair forever.  An incoming CALL envelope's payload is the exact
byte stream the client-side stub marshalled in the supervisor process;
the worker wraps it in a :class:`MarshalBuffer`, re-anchors the deadline
budget on its own clock, restores the wire trace context, and hands it
to the kernel's ordinary incoming leg — composition (deadlines,
admission, tracing) happens in the same code that serves in-process
calls, which is the point.

The worker is deliberately single-threaded: one call at a time per
worker, parallelism comes from running many workers.  Every reply
payload is inlined after its envelope header on the socket.

Workers never let a door identifier cross the boundary: a reply that
parks in-transit door references is refused with a kernel error (the
capability tables of the two kernels are disjoint address spaces;
Section 3.3's forgery protection is kept by refusing, not by trusting
bytes).
"""

from __future__ import annotations

# springlint: wall-clock-module -- the worker's serve loop blocks on a real
# socket and logs real elapsed time: wall-clock use here IS the transport,
# not a simulated path.

import json
import os
import time
import traceback
from typing import TYPE_CHECKING, Any, Callable

from repro.kernel.errors import InvalidDoorError, KernelError
from repro.marshal.buffer import MarshalBuffer
from repro.marshal.envelope import (
    KIND_CALL,
    KIND_CONTROL,
    KIND_CONTROL_REPLY,
    KIND_ERROR,
    KIND_REPLY,
    ChannelClosedError,
    pack_error,
    recv_envelope,
    send_envelope,
)
from repro.marshal.errors import MarshalError
from repro.obs.export import span_record

if TYPE_CHECKING:
    import socket

__all__ = [
    "worker_main",
    "OP_PING",
    "OP_LIST_EXPORTS",
    "OP_OBS_PULL",
    "OP_SHUTDOWN",
]

#: control-envelope ops (the envelope's ``target`` field)
OP_PING = 1
OP_LIST_EXPORTS = 2
OP_OBS_PULL = 3
OP_SHUTDOWN = 4

#: worker-local trace/span ids are offset into a per-worker band so
#: merged cross-process traces never collide with supervisor-allocated
#: ids (joined traces reuse the originator's ids and are unaffected)
_ID_BAND_SHIFT = 40


class _Log:
    """Append-only per-worker log file (the CI crash artifact)."""

    def __init__(self, log_dir: str | None, index: int) -> None:
        self._fh = None
        if log_dir:
            os.makedirs(log_dir, exist_ok=True)
            self._fh = open(
                os.path.join(log_dir, f"worker-{index}.log"), "a", encoding="utf-8"
            )
        self.index = index

    def write(self, message: str) -> None:
        if self._fh is None:
            return
        self._fh.write(f"[worker {self.index} pid {os.getpid()}] {message}\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def worker_main(
    index: int,
    sock: "socket.socket",
    bootstrap: Callable[[Any, int], dict],
    config: dict,
) -> None:
    """Process entry point (forked); never returns normally."""
    log = _Log(config.get("log_dir"), index)
    started = time.monotonic()
    try:
        log.write("booting")
        _serve(index, sock, bootstrap, config, log)
        log.write(f"clean shutdown after {time.monotonic() - started:.3f}s")
        log.close()
    except BaseException:
        log.write("worker crashed:\n" + traceback.format_exc())
        log.close()
        os._exit(1)
    # _exit skips atexit/teardown inherited from the forked parent
    # (pytest sessions, multiprocessing bookkeeping).
    os._exit(0)


def _serve(
    index: int,
    sock: "socket.socket",
    bootstrap: Callable[[Any, int], dict],
    config: dict,
    log: _Log,
) -> None:
    # Deferred import: worker boot happens post-fork and Environment's
    # import graph is already warm in the parent, so this costs nothing.
    from repro.runtime.env import Environment

    env = Environment(
        latency_us=config.get("latency_us", 0.0),
        with_naming=config.get("naming", True),
        seed=config.get("seed", 1993) + index,
    )
    kernel = env.kernel
    if config.get("trace"):
        import itertools

        tracer = env.install_tracer()
        band = (index + 1) << _ID_BAND_SHIFT
        tracer._trace_ids = itertools.count(band + 1)
        tracer._span_ids = itertools.count(band + 1)
        windows = config.get("windows")
        if windows:
            from repro.obs.windows import install_windows

            install_windows(
                tracer, **(windows if isinstance(windows, dict) else {})
            )

    exported = bootstrap(env, index)
    table: dict[int, Any] = {}
    names: dict[str, int] = {}
    for eid, name in enumerate(sorted(exported)):
        table[eid] = exported[name]._rep.door.door
        names[name] = eid
    log.write(f"serving {len(table)} exports: {sorted(names)}")

    calls_served = 0

    while True:
        try:
            envelope = recv_envelope(sock)
        except (ChannelClosedError, OSError):
            log.write("supervisor channel closed; exiting")
            return
        if envelope.kind == KIND_CALL:
            try:
                reply = _serve_call(kernel, table, envelope)
            except Exception as exc:
                try:
                    send_envelope(
                        sock, KIND_ERROR, envelope.call_id, 0, pack_error(exc)
                    )
                except (ChannelClosedError, OSError):
                    log.write("supervisor channel closed mid-reply; exiting")
                    return
                continue
            calls_served += 1
            try:
                try:
                    send_envelope(sock, KIND_REPLY, envelope.call_id, 0, reply.data)
                except MarshalError as exc:
                    # Refused before a byte was written (reply over
                    # MAX_PAYLOAD): the stream is intact, so say why.
                    send_envelope(
                        sock, KIND_ERROR, envelope.call_id, 0, pack_error(exc)
                    )
            except (ChannelClosedError, OSError):
                log.write("supervisor channel closed mid-reply; exiting")
                return
            finally:
                reply.region = None
                reply.recycle()
        elif envelope.kind == KIND_CONTROL:
            payload, stop = _serve_control(
                kernel, envelope.target, names, calls_served
            )
            try:
                send_envelope(sock, KIND_CONTROL_REPLY, envelope.call_id, 0, payload)
            except (ChannelClosedError, OSError):
                log.write("supervisor channel closed mid-reply; exiting")
                return
            if stop:
                log.write("shutdown requested by supervisor")
                return
        else:
            log.write(f"ignoring unexpected envelope kind {envelope.kind}")


def _serve_call(kernel: Any, table: dict, envelope: Any) -> MarshalBuffer:
    """One CALL: rebuild the buffer, run the kernel's incoming leg."""
    door = table.get(envelope.target)
    if door is None:
        raise InvalidDoorError(f"no export #{envelope.target} in this worker")
    request = MarshalBuffer(kernel)
    try:
        request.data.extend(envelope.payload)
        request.sealed = True
        # Re-anchor the remaining budget on this process's clock: the
        # incoming leg's arrival-deadline check then enforces it.
        if envelope.budget_us is not None:
            request.deadline_us = kernel.clock.now_us + envelope.budget_us
        if envelope.trace_ctx is not None and kernel.tracer.enabled:
            request.trace_ctx = envelope.trace_ctx
        # The idempotency key crosses the same way the deadline does:
        # restored out-of-band so the worker-side dedup memo sees it.
        if envelope.idem_key is not None:
            request.idem_key = envelope.idem_key
        reply = kernel.incoming(door, request)
    finally:
        request.discard()
    if reply.live_door_count():
        reply.recycle()
        raise KernelError(
            "door identifiers cannot cross the process boundary: the two "
            "kernels' capability tables are disjoint address spaces"
        )
    return reply


def _serve_control(
    kernel: Any, op: int, names: dict[str, int], calls_served: int
) -> tuple[bytes, bool]:
    """One CONTROL op; returns (json payload, stop serving)."""
    if op == OP_PING:
        return b"{}", False
    if op == OP_LIST_EXPORTS:
        doc = {"exports": names, "pid": os.getpid()}
        return json.dumps(doc).encode("utf-8"), False
    if op == OP_OBS_PULL:
        tracer = kernel.tracer
        windows = getattr(tracer, "windows", None)
        doc = {
            "spans": [span_record(s) for s in tracer.spans()] if tracer.enabled else [],
            "metrics": tracer.metrics.snapshot() if tracer.enabled else {},
            "windows": windows.snapshot() if windows is not None else None,
            "clock_now_us": kernel.clock.now_us,
            "calls_served": calls_served,
        }
        return json.dumps(doc).encode("utf-8"), False
    if op == OP_SHUTDOWN:
        return b"{}", True
    return json.dumps({"error": f"unknown control op {op}"}).encode("utf-8"), False
