"""Threads sharing one kernel each call in their own call context.

The kernel's context slot is per thread, the buffer's is per call, and
``Kernel.incoming`` swaps the handler thread's slot for the request's
and back.  Several caller threads, each holding its own deadline and
idempotency key, drive one door through one kernel at once: every
handler must see its own caller's context and nobody else's.  CI runs
this file under ``REPRO_TSAN=1`` as well, where the race detector
watches the same interleavings.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.marshal.context import DEADLINE
from repro.runtime import Environment, deadline
from repro.runtime.idem import IDEM, idempotency_key
from repro.runtime.threads import run_concurrently

THREADS = 4
CALLS = 25


@pytest.mark.parametrize("entry", ["local", "fabric"])
def test_each_handler_sees_only_its_callers_context(entry):
    env = Environment()
    kernel = env.kernel
    server = env.create_domain("south", "server")
    seen = []
    lock = threading.Lock()
    # Every caller sets its context before anyone calls, and the first
    # handlers all run at once: a slot shared between threads shows.
    contexts_set = threading.Barrier(THREADS, timeout=10.0)
    in_handlers = threading.Barrier(THREADS, timeout=10.0)

    def handler(request):
        caller, first = request.get_int32(), request.get_bool()
        if first:
            in_handlers.wait()
        inherited = kernel.context.value
        with lock:
            seen.append((caller, request.ctx, inherited))
        return server.acquire_buffer()

    door = kernel.create_door(server, handler)
    deadlines: dict[int, float] = {}

    def caller(index: int):
        client = env.create_domain("north" if entry == "fabric" else "south", f"c{index}")
        ident = kernel.attach_door_id(
            client, kernel.detach_door_id(server, kernel.copy_door_id(server, door))
        )

        def run() -> None:
            with deadline(kernel, 1e12 + index) as absolute, idempotency_key(
                kernel, 1000 + index
            ):
                deadlines[index] = absolute
                contexts_set.wait()
                for n in range(CALLS):
                    buffer = client.acquire_buffer()
                    buffer.put_int32(index)
                    buffer.put_bool(n == 0)
                    try:
                        kernel.door_call(client, ident, buffer).recycle()
                    finally:
                        buffer.recycle()
            assert kernel.context.value is None

        return run

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_concurrently([caller(i) for i in range(THREADS)], timeout=30.0)
    finally:
        sys.setswitchinterval(switch)
    assert len(seen) == THREADS * CALLS
    for index, request_ctx, inherited in seen:
        assert request_ctx == {DEADLINE: deadlines[index], IDEM: 1000 + index}
        assert inherited == {DEADLINE: deadlines[index]}
