"""Process-fabric composition tests: real OS processes, unchanged stubs.

Every test here forks worker processes, so the whole module is
skip-marked on platforms without the ``fork`` start method.  The
assertions are the ISSUE's composition criteria: deadlines expire across
the boundary, traces join into one trace_id, admission's
``ServerBusyError`` retry-after hints round-trip, payloads of every size
cross the one socket path intact, and a wedged or killed worker surfaces
as :class:`ServerDiedError` to in-flight callers inside a bounded wait.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time

import pytest

from repro.idl.compiler import compile_idl
from repro.kernel.errors import (
    CommunicationError,
    DeadlineExceeded,
    ServerBusyError,
    ServerDiedError,
)
from repro.marshal.buffer import MarshalBuffer
from repro.net.procfabric import ProcFabricError
from repro.runtime.deadline import deadline, remaining_us
from repro.runtime.env import Environment
from repro.runtime.retry import RetryPolicy
from repro.runtime.transfer import transfer
from repro.subcontracts.singleton import SingletonServer

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process fabric requires the fork start method",
)

COUNTER_IDL = """
interface counter {
    int32 add(int32 n);
    int32 total();
}
"""

BLOB_IDL = """
interface blob {
    bytes echo(bytes data);
    bytes inflate(int32 size);
}
"""

BUDGET_IDL = """
interface budget {
    float64 left();
    bool nested_call_refused();
}
"""

counter_module = compile_idl(COUNTER_IDL, "procfabric_counter")
blob_module = compile_idl(BLOB_IDL, "procfabric_blob")
budget_module = compile_idl(BUDGET_IDL, "procfabric_budget")


class CounterImpl:
    def __init__(self):
        self.value = 0

    def add(self, n):
        self.value += n
        return self.value

    def total(self):
        return self.value


class BlobImpl:
    def echo(self, data):
        return data

    def inflate(self, size):
        return b"i" * size


class WedgedBlobImpl(BlobImpl):
    """Takes the whole request, then blocks the worker on wall time."""

    def echo(self, data):
        time.sleep(30.0)
        return data


class SleepyBlobImpl(BlobImpl):
    """``echo(b"sleep:<seconds>")`` holds the worker that long first."""

    def echo(self, data):
        if data.startswith(b"sleep:"):
            time.sleep(float(data[6:]))
        return data


class WedgedImpl:
    """Blocks the (single-threaded) worker on real wall time."""

    def add(self, n):
        time.sleep(30.0)
        return n

    def total(self):
        return 0


def export_counter(env, index):
    server = env.create_domain("w", "server")
    obj = SingletonServer(server).export(CounterImpl(), counter_module.binding("counter"))
    return {"counter": obj}


class BudgetImpl:
    """Reports the budget its handler runs in; spends it, then calls on."""

    def __init__(self, kernel, counter):
        self.kernel = kernel
        self.counter = counter

    def left(self):
        left = remaining_us(self.kernel)
        return -1.0 if left is None else left

    def nested_call_refused(self):
        self.kernel.clock.advance(remaining_us(self.kernel) or 0.0)
        try:
            self.counter.total()
        except DeadlineExceeded:
            return True
        return False


def export_blob(env, index):
    server = env.create_domain("w", "server")
    obj = SingletonServer(server).export(BlobImpl(), blob_module.binding("blob"))
    return {"blob": obj}


def export_blob_and_counter(env, index):
    return {**export_blob(env, index), **export_counter(env, index)}


def export_wedged_blob_on_worker_0(env, index):
    server = env.create_domain("w", "server")
    impl = WedgedBlobImpl() if index == 0 else BlobImpl()
    return {"blob": SingletonServer(server).export(impl, blob_module.binding("blob"))}


def export_sleepy_blob_and_counter(env, index):
    server = env.create_domain("w", "server")
    blob = SingletonServer(server).export(SleepyBlobImpl(), blob_module.binding("blob"))
    return {"blob": blob, **export_counter(env, index)}


def export_wedged(env, index):
    server = env.create_domain("w", "server")
    obj = SingletonServer(server).export(WedgedImpl(), counter_module.binding("counter"))
    return {"counter": obj}


def export_budget(env, index):
    server = env.create_domain("w", "budget-server")
    counter = transfer(export_counter(env, index)["counter"], server)
    impl = BudgetImpl(env.kernel, counter)
    return {"budget": SingletonServer(server).export(impl, budget_module.binding("budget"))}


def export_dedup_counter(env, index):
    """A counter whose door sits behind an idempotency-key dedup memo."""
    from repro.runtime.idem import DedupMemo, wrap_idempotent

    server = env.create_domain("w", "server")
    obj = SingletonServer(server).export(CounterImpl(), counter_module.binding("counter"))
    door = obj._rep.door.door
    door.handler = wrap_idempotent(server, door.handler, DedupMemo())
    return {"counter": obj}


def export_busy(env, index):
    """A governed counter whose one service slot is already taken."""
    from repro.runtime.admission import AdmissionPolicy

    server = env.create_domain("w", "server")
    obj = SingletonServer(server).export(CounterImpl(), counter_module.binding("counter"))
    controller = env.install_admission()
    door = obj._rep.door.door
    controller.govern(
        door,
        AdmissionPolicy(limit=1, queue_limit=0, service_estimate_us=50_000.0),
    )
    # Hold the only permit forever: every real call arriving over the
    # fabric is shed with a positive retry-after hint.
    controller.admit(door, MarshalBuffer(env.kernel))
    return {"counter": obj}


def proc_env(**kwargs):
    return Environment(latency_us=0.0, transport="proc", **kwargs)


def patterned(size):
    return (bytes(range(256)) * (size // 256 + 1))[:size]


def in_thread(outcome, fn, *args):
    """Start ``fn(*args)`` on a daemon thread, recording how it ended."""

    def run():
        try:
            outcome["result"] = fn(*args)
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def procfabric_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("procfabric-")]


def wait_until(condition, timeout_s=5.0):
    deadline_s = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline_s:
        time.sleep(0.01)
    assert condition(), "the world never reached the state under test"


class TestTransportSelection:
    def test_sim_environment_refuses_procfabric(self):
        env = Environment(latency_us=0.0)
        assert env.transport == "sim"
        with pytest.raises(ProcFabricError):
            env.install_procfabric(export_counter)

    def test_unknown_transport_refused(self):
        with pytest.raises(ValueError):
            Environment(transport="carrier-pigeon")


class TestRoundtrip:
    def test_calls_cross_the_process_boundary(self):
        env = proc_env()
        fabric = env.install_procfabric(export_counter, workers=2)
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "counter", counter_module.binding("counter"))
            assert proxy.add(5) == 5
            assert proxy.add(3) == 8
            assert proxy.total() == 8
        finally:
            env.uninstall_procfabric()

    def test_workers_hold_independent_state(self):
        env = proc_env()
        fabric = env.install_procfabric(export_counter, workers=2)
        try:
            client = env.create_domain("m0", "client")
            w0 = fabric.bind(client, "counter", counter_module.binding("counter"), worker=0)
            w1 = fabric.bind(client, "counter", counter_module.binding("counter"), worker=1)
            assert w0.add(10) == 10
            assert w1.add(1) == 1
            assert w0.total() == 10
            assert w1.total() == 1
        finally:
            env.uninstall_procfabric()

    def test_unknown_export_refused(self):
        env = proc_env()
        fabric = env.install_procfabric(export_counter, workers=1)
        try:
            client = env.create_domain("m0", "client")
            with pytest.raises(ProcFabricError):
                fabric.bind(client, "no-such-export", counter_module.binding("counter"))
        finally:
            env.uninstall_procfabric()

    @pytest.mark.parametrize(
        "size",
        [0, 1, 4095, 4096, 16 << 10, 300 << 10, 450 << 10, 600 << 10, 8 << 20],
    )
    def test_payload_size_sweep_with_interleaved_small_calls(self, size):
        # One worker, one socket, two callers: every size crosses the
        # same inline path, and a large frame in flight must neither
        # corrupt nor be corrupted by the small frames queued around it.
        env = proc_env()
        fabric = env.install_procfabric(export_blob_and_counter, workers=1)
        try:
            client = env.create_domain("m0", "client")
            blob_proxy = fabric.bind(client, "blob", blob_module.binding("blob"))
            other = env.create_domain("m0", "adder")
            counter = fabric.bind(other, "counter", counter_module.binding("counter"))
            stop = threading.Event()
            sums = []

            def keep_adding():
                while not stop.is_set() or len(sums) < 20:
                    sums.append(counter.add(1))

            adding = {}
            adder = in_thread(adding, keep_adding)
            blob = patterned(size)
            try:
                for _ in range(3):
                    assert blob_proxy.echo(blob) == blob
            finally:
                stop.set()
                adder.join(10.0)
            assert not adder.is_alive()
            assert "error" not in adding, adding
            # Each add() got its own reply, not a neighbour's: the
            # running total came back in order with no gap or repeat.
            assert sums == list(range(1, len(sums) + 1))
            assert fabric.stats()[0]["calls"] == 3 + len(sums)
        finally:
            env.uninstall_procfabric()

    @pytest.mark.parametrize("step", ["request half-written", "reply pending"])
    def test_worker_killed_with_8mib_echo_in_flight(self, step):
        env = proc_env()
        fabric = env.install_procfabric(export_wedged_blob_on_worker_0, workers=2)
        try:
            client = env.create_domain("m0", "client")
            w0 = fabric.bind(client, "blob", blob_module.binding("blob"), worker=0)
            w1 = fabric.bind(client, "blob", blob_module.binding("blob"), worker=1)
            handle = fabric._handles[0]
            if step == "request half-written":
                # Wedge the worker first: it stops reading, so the big
                # frame fills the socket and its sender blocks mid-frame.
                in_thread({}, w0.echo, b"")
                wait_until(lambda: len(handle.pending) == 1)
            outcome = {}
            caller = in_thread(outcome, w0.echo, patterned(8 << 20))
            if step == "request half-written":
                wait_until(lambda: len(handle.pending) == 2)
                wait_until(handle.send_lock.locked)
                time.sleep(0.1)
                assert handle.send_lock.locked(), "the sender should be blocked"
            else:
                # The worker took the whole frame and sits in the handler.
                wait_until(lambda: len(handle.pending) == 1)
                wait_until(lambda: not handle.send_lock.locked())
            fabric.kill_worker(0)
            caller.join(2.0)
            assert not caller.is_alive(), "in-flight caller must not hang"
            assert isinstance(outcome.get("error"), ServerDiedError), outcome
            assert w1.echo(b"still serving") == b"still serving"
        finally:
            env.uninstall_procfabric()

    def test_reply_over_the_envelope_limit_is_an_error_not_a_dead_worker(
        self, monkeypatch
    ):
        from repro.marshal import envelope

        # Lowered before the fork, so the worker inherits the same limit.
        monkeypatch.setattr(envelope, "MAX_PAYLOAD", 1 << 20)
        env = proc_env()
        fabric = env.install_procfabric(export_blob, workers=1)
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "blob", blob_module.binding("blob"))
            with pytest.raises(CommunicationError, match="exceeds the envelope limit"):
                proxy.inflate(2 << 20)
            assert proxy.echo(b"still serving") == b"still serving"
        finally:
            env.uninstall_procfabric()


class TestReplyReading:
    """No thread reads replies: the waiting caller leads, the rest follow."""

    def test_no_procfabric_thread_runs(self):
        env = proc_env()
        fabric = env.install_procfabric(export_counter, workers=2)
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "counter", counter_module.binding("counter"))
            assert proxy.add(1) == 1
            assert procfabric_threads() == []
        finally:
            env.uninstall_procfabric()

    def test_reply_timeout_fails_the_call_and_the_late_reply_is_discarded(self):
        env = proc_env()
        fabric = env.install_procfabric(export_sleepy_blob_and_counter, workers=2)
        try:
            client = env.create_domain("m0", "client")
            w0 = fabric.bind(client, "blob", blob_module.binding("blob"), worker=0)
            w1 = fabric.bind(client, "counter", counter_module.binding("counter"), worker=1)
            stop = threading.Event()
            sums = []

            def keep_adding():
                while not stop.is_set():
                    sums.append(w1.add(1))

            adding = {}
            adder = in_thread(adding, keep_adding)
            try:
                call_raw = fabric.call_raw
                fabric.call_raw = lambda *a, **kw: call_raw(*a, timeout_s=0.1, **kw)
                started = time.monotonic()
                with pytest.raises(CommunicationError, match="no reply"):
                    w0.echo(b"sleep:0.5")
                assert time.monotonic() - started < 0.4
                del fabric.call_raw
                # The late reply reaches the socket first; this call's
                # leader discards it and returns its own.
                assert w0.echo(b"fast") == b"fast"
                assert w0.echo(b"faster") == b"faster"
            finally:
                stop.set()
                adder.join(10.0)
            assert "error" not in adding, adding
            assert sums and sums == list(range(1, len(sums) + 1))
            assert fabric.stats()[0]["alive"] and fabric.stats()[0]["pending"] == 0
        finally:
            env.uninstall_procfabric()

    def test_a_torn_reply_stream_reaps_the_worker(self, monkeypatch):
        from repro.marshal.envelope import ChannelClosedError
        from repro.net import procfabric

        env = proc_env()
        fabric = env.install_procfabric(export_counter, workers=2)
        try:
            client = env.create_domain("m0", "client")
            w0 = fabric.bind(client, "counter", counter_module.binding("counter"), worker=0)
            w1 = fabric.bind(client, "counter", counter_module.binding("counter"), worker=1)

            def torn(sock, clock):
                raise ChannelClosedError("receive timed out mid-frame")

            monkeypatch.setattr(procfabric, "recv_envelope", torn)
            with pytest.raises(ServerDiedError, match="timed out mid-frame"):
                w0.add(1)
            monkeypatch.undo()
            handle = fabric._handles[0]
            assert not handle.alive and not handle.process.is_alive()
            assert handle.sock.fileno() == -1
            with pytest.raises(ServerDiedError):
                w0.add(1)
            assert w1.add(1) == 1
        finally:
            env.uninstall_procfabric()

    def test_many_callers_on_one_worker_each_get_their_own_replies(self):
        env = proc_env()
        fabric = env.install_procfabric(export_counter, workers=1, call_timeout_s=5.0)
        try:
            proxies = [
                fabric.bind(
                    env.create_domain("m0", f"client{i}"),
                    "counter",
                    counter_module.binding("counter"),
                )
                for i in range(8)
            ]
            # Lockstep rounds: once a round's replies are in, no caller
            # sends again, so a follower a released lead failed to wake
            # stays asleep until its call times out.
            barrier = threading.Barrier(len(proxies))

            def adds(proxy):
                got = []
                try:
                    for _ in range(250):
                        barrier.wait(30.0)
                        got.append(proxy.add(1))
                except BaseException:
                    barrier.abort()
                    raise
                return got

            outcomes = [{} for _ in proxies]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [
                    in_thread(outcome, adds, proxy)
                    for proxy, outcome in zip(proxies, outcomes)
                ]
                for thread in threads:
                    thread.join(30.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            seen = []
            for outcome in outcomes:
                assert "error" not in outcome, outcome
                got = outcome["result"]
                assert all(a < b for a, b in zip(got, got[1:])), got
                seen.extend(got)
            assert sorted(seen) == list(range(1, 2001))
        finally:
            env.uninstall_procfabric()

    def test_a_follower_takes_over_the_lead(self):
        env = proc_env()
        fabric = env.install_procfabric(
            export_sleepy_blob_and_counter, workers=1, call_timeout_s=5.0
        )
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "blob", blob_module.binding("blob"))
            handle = fabric._handles[0]
            finished = {}

            def timed(name, data):
                started = time.monotonic()
                proxy.echo(data)
                finished[name] = time.monotonic()
                return finished[name] - started

            fast, slow = {}, {}
            leader = in_thread(fast, timed, "fast", b"sleep:0.2")
            wait_until(lambda: len(handle.pending) == 1 and handle.recv_lock.locked())
            follower = in_thread(slow, timed, "slow", b"sleep:0.3")
            leader.join(5.0)
            follower.join(10.0)
            assert "error" not in fast and "error" not in slow, (fast, slow)
            assert finished["fast"] < finished["slow"]
            # Served after the 0.2 s call: 0.5 s plus slack, not 5 s.
            assert slow["result"] < 1.5
        finally:
            env.uninstall_procfabric()

    def test_a_reply_handed_over_before_its_caller_leads_is_returned(self):
        # The early caller sends, then stalls before its try-lock.  A
        # later caller leads, reads the early reply ahead of its own and
        # hands it over.  Taking the free lead afterwards, the early
        # caller must return that reply, not wait for a frame already read.
        env = proc_env()
        fabric = env.install_procfabric(export_counter, workers=1, call_timeout_s=2.0)
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "counter", counter_module.binding("counter"))
            handle = fabric._handles[0]
            lock = handle.recv_lock
            stalled, resume = threading.Event(), threading.Event()

            class StallFirstTry:
                first = True

                def acquire(self, blocking=True):
                    if self.first:
                        self.first = False
                        stalled.set()
                        resume.wait(5.0)
                    return lock.acquire(blocking)

                def release(self):
                    lock.release()

            handle.recv_lock = StallFirstTry()
            early = {}
            caller = in_thread(early, proxy.add, 1)
            assert stalled.wait(5.0)
            assert proxy.add(1) == 2
            resume.set()
            started = time.monotonic()
            caller.join(5.0)
            assert early == {"result": 1}, early
            assert time.monotonic() - started < 0.5, "read past a settled call"
            handle.recv_lock = lock
            assert proxy.add(1) == 3
            assert handle.alive and handle.pending == {}
        finally:
            env.uninstall_procfabric()

    def test_a_leader_relaying_replies_fails_at_its_own_deadline(self):
        # Two calls from other threads are queued ahead of a 0.1 s call
        # that leads.  Each relayed reply arrives within 0.1 s of the one
        # before, so only the call's own deadline can stop it: at the
        # second relay, ~0.16 s in, long before its own reply at ~0.24 s.
        env = proc_env()
        fabric = env.install_procfabric(
            export_sleepy_blob_and_counter, workers=1, call_timeout_s=5.0
        )
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "blob", blob_module.binding("blob"))
            handle = fabric._handles[0]
            lock, main, tried = handle.recv_lock, threading.current_thread(), set()

            class OnlyMainLeads:
                def acquire(self, blocking=True):
                    if threading.current_thread() is not main:
                        tried.add(threading.current_thread().name)
                        return False
                    return lock.acquire(blocking)

                def release(self):
                    lock.release()

            handle.recv_lock = OnlyMainLeads()
            queued = [{}, {}]
            threads = []
            for outcome in queued:
                threads.append(in_thread(outcome, proxy.echo, b"sleep:0.08"))
                wait_until(lambda: len(tried) == len(threads))
            call_raw = fabric.call_raw
            fabric.call_raw = lambda *a, **kw: call_raw(*a, timeout_s=0.1, **kw)
            started = time.monotonic()
            with pytest.raises(CommunicationError, match="no reply"):
                proxy.echo(b"sleep:0.08")
            assert time.monotonic() - started < 0.22
            del fabric.call_raw
            for thread in threads:
                thread.join(5.0)
            assert queued == [{"result": b"sleep:0.08"}] * 2, queued
            handle.recv_lock = lock
            assert proxy.echo(b"after") == b"after"
            assert handle.alive and handle.pending == {}
        finally:
            env.uninstall_procfabric()


class TestIdempotencyComposition:
    def test_idem_key_dedups_across_the_process_boundary(self):
        # The acceptance criterion on the real fabric: a keyed request
        # crosses in the envelope, the worker's memo records the reply,
        # and a client retry with the same key gets the recorded reply
        # back — the handler demonstrably did not run a second time.
        from repro.runtime.idem import idempotency_key

        env = proc_env()
        fabric = env.install_procfabric(export_dedup_counter, workers=1)
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "counter", counter_module.binding("counter"))
            with idempotency_key(env.kernel, 42):
                assert proxy.add(5) == 5
            with idempotency_key(env.kernel, 42):
                assert proxy.add(5) == 5  # replayed, not re-executed
            assert proxy.total() == 5  # execution count unchanged
            # A fresh key is a new logical request and does execute.
            with idempotency_key(env.kernel, 43):
                assert proxy.add(5) == 10
            assert proxy.total() == 10
        finally:
            env.uninstall_procfabric()

    def test_unkeyed_calls_cross_unkeyed(self):
        # No ambient key: the envelope's idem flag stays clear and every
        # call executes (the memo never sees it).
        env = proc_env()
        fabric = env.install_procfabric(export_dedup_counter, workers=1)
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "counter", counter_module.binding("counter"))
            assert proxy.add(1) == 1
            assert proxy.add(1) == 2
        finally:
            env.uninstall_procfabric()


class TestDeadlineComposition:
    def test_deadline_expires_across_the_boundary(self):
        # A 200 us budget survives the supervisor's own legs (~112 sim-us
        # for the proxy door call) but cannot cover the worker's 110 us
        # door traversal: the worker's ordinary delivery-leg check trips
        # and DeadlineExceeded crosses back as an ERROR envelope.
        env = proc_env()
        fabric = env.install_procfabric(export_counter, workers=1)
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "counter", counter_module.binding("counter"))
            with deadline(env.kernel, 200.0):
                with pytest.raises(DeadlineExceeded) as excinfo:
                    proxy.add(1)
            assert "over budget" in str(excinfo.value)
            # DeadlineExceeded ends retry exchanges on both sides of the
            # boundary — the reconstructed error keeps its taxonomy.
            assert not RetryPolicy.retryable(excinfo.value)
        finally:
            env.uninstall_procfabric()

    def test_ample_budget_passes(self):
        env = proc_env()
        fabric = env.install_procfabric(export_counter, workers=1)
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "counter", counter_module.binding("counter"))
            with deadline(env.kernel, 1_000_000.0):
                assert proxy.add(1) == 1
        finally:
            env.uninstall_procfabric()

    def test_worker_handler_runs_in_the_callers_budget(self):
        # The worker's incoming leg makes the request's context the
        # handler's: it sees the re-anchored budget, and its own calls
        # inherit it like a local or sim-fabric handler's do.
        env = proc_env()
        fabric = env.install_procfabric(export_budget, workers=1)
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "budget", budget_module.binding("budget"))
            assert proxy.left() == -1.0
            with deadline(env.kernel, 1_000_000.0):
                assert 0.0 < proxy.left() < 1_000_000.0
                assert proxy.nested_call_refused()
            assert not proxy.nested_call_refused()
        finally:
            env.uninstall_procfabric()

    def test_unbounded_calls_carry_no_budget(self):
        env = proc_env()
        fabric = env.install_procfabric(export_counter, workers=1)
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "counter", counter_module.binding("counter"))
            assert proxy.add(1) == 1  # no deadline installed, no envelope flag
        finally:
            env.uninstall_procfabric()


class TestTraceComposition:
    def test_spans_join_one_trace_id(self):
        env = proc_env()
        env.install_tracer()
        fabric = env.install_procfabric(export_counter, workers=1, trace=True)
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "counter", counter_module.binding("counter"))
            assert proxy.add(7) == 7

            local_ids = {s.trace_id for s in env.kernel.tracer.spans()}
            assert len(local_ids) == 1
            worker_spans = fabric.pull_obs(0)["spans"]
            assert worker_spans, "worker must record handler spans"
            assert {s["trace_id"] for s in worker_spans} == local_ids
            # The worker's handler span is parented from the wire context
            # alone: its parent is a span the supervisor allocated.
            supervisor_span_ids = {s.span_id for s in env.kernel.tracer.spans()}
            handler_parents = {
                s["parent_id"] for s in worker_spans if s["category"] == "handler"
            }
            assert handler_parents <= supervisor_span_ids
        finally:
            env.uninstall_procfabric()

    def test_merged_views_skip_dead_workers(self, monkeypatch):
        # A worker dying between the alive check and the control
        # roundtrip must cost its own observability only, not fail the
        # whole merge.
        env = proc_env()
        env.install_tracer()
        fabric = env.install_procfabric(export_counter, workers=2, trace=True)
        try:
            client = env.create_domain("m0", "client")
            w0 = fabric.bind(client, "counter", counter_module.binding("counter"), worker=0)
            w0.add(1)
            real_pull = fabric.pull_obs

            def racy_pull(worker):
                if worker == 1:
                    raise ServerDiedError("worker 1 died mid-pull")
                return real_pull(worker)

            monkeypatch.setattr(fabric, "pull_obs", racy_pull)
            merged = fabric.merged_spans()
            processes = {r["process"] for r in merged}
            assert "worker0" in processes and "worker1" not in processes
            assert fabric.merged_metrics(), "surviving workers still merge"
        finally:
            env.uninstall_procfabric()

    def test_merged_views_tag_processes(self):
        env = proc_env()
        env.install_tracer()
        fabric = env.install_procfabric(export_counter, workers=2, trace=True)
        try:
            client = env.create_domain("m0", "client")
            w0 = fabric.bind(client, "counter", counter_module.binding("counter"), worker=0)
            w1 = fabric.bind(client, "counter", counter_module.binding("counter"), worker=1)
            w0.add(1)
            w1.add(2)
            merged = fabric.merged_spans()
            processes = {r["process"] for r in merged}
            assert {"supervisor", "worker0", "worker1"} <= processes
            metrics = fabric.merged_metrics()
            assert metrics, "merged metrics must not be empty"
        finally:
            env.uninstall_procfabric()


class TestAdmissionComposition:
    def test_busy_hint_round_trips(self):
        env = proc_env()
        fabric = env.install_procfabric(export_busy, workers=1)
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "counter", counter_module.binding("counter"))
            with pytest.raises(ServerBusyError) as excinfo:
                proxy.add(1)
            busy = excinfo.value
            assert busy.retry_after_us > 0.0
            assert RetryPolicy.retryable(busy)
            assert RetryPolicy.retry_after_us(busy) == busy.retry_after_us
        finally:
            env.uninstall_procfabric()


def export_broken(env, index):
    raise RuntimeError("bootstrap failed on purpose")


class TestStartFailure:
    def test_failed_bootstrap_reaps_forked_workers(self):
        # A worker whose bootstrap raises dies before serving exports;
        # start() must reap every worker it forked (processes and
        # sockets) before re-raising, not leak them.
        from repro.net.procfabric import ProcFabric

        env = Environment(latency_us=0.0)
        fabric = ProcFabric(env.kernel, workers=2, bootstrap=export_broken)
        with pytest.raises(ServerDiedError):
            fabric.start()
        assert not procfabric_threads()
        for handle in fabric._handles:
            assert not handle.alive
            assert handle.process is not None and not handle.process.is_alive()
            assert handle.sock.fileno() == -1, "socket left open"


class TestTeardown:
    def test_clean_shutdown_is_idempotent(self):
        env = proc_env()
        fabric = env.install_procfabric(export_counter, workers=2)
        client = env.create_domain("m0", "client")
        proxy = fabric.bind(client, "counter", counter_module.binding("counter"))
        assert proxy.add(1) == 1
        env.uninstall_procfabric()
        fabric.shutdown()  # second shutdown is a no-op
        for handle in fabric._handles:
            assert not handle.process.is_alive()

    def test_context_manager_starts_and_shuts_down_and_ping_reports_liveness(self):
        from repro.net.procfabric import ProcFabric

        env = Environment(latency_us=0.0)
        with ProcFabric(env.kernel, workers=2, bootstrap=export_counter) as fabric:
            fabric.kill_worker(1)
            assert fabric.ping(0)
            assert not fabric.ping(1)
        assert not fabric._handles[0].process.is_alive()

    def test_calls_after_worker_death_raise_server_died(self):
        env = proc_env()
        fabric = env.install_procfabric(export_counter, workers=1)
        try:
            client = env.create_domain("m0", "client")
            proxy = fabric.bind(client, "counter", counter_module.binding("counter"))
            assert proxy.add(1) == 1
            fabric.kill_worker(0)
            with pytest.raises(ServerDiedError):
                proxy.add(1)
        finally:
            env.uninstall_procfabric()

    def test_wedged_worker_is_killed_and_callers_unblocked(self):
        # The satellite criterion: a worker stuck inside a handler is
        # terminated after the join timeout and the in-flight caller gets
        # ServerDiedError instead of a hang.
        env = proc_env()
        fabric = env.install_procfabric(export_wedged, workers=1)
        client = env.create_domain("m0", "client")
        proxy = fabric.bind(client, "counter", counter_module.binding("counter"))
        outcome = {}
        caller = in_thread(outcome, proxy.add, 1)
        # Give the call time to reach the worker and wedge there.
        wait_until(lambda: fabric._handles[0].pending)
        fabric.shutdown(join_timeout_s=0.5)
        caller.join(10.0)
        assert not caller.is_alive(), "in-flight caller must not hang"
        assert isinstance(outcome.get("error"), ServerDiedError)
        assert not fabric._handles[0].process.is_alive()

    def test_send_to_a_wedged_worker_is_bounded_and_reaps_it(self):
        # Worker 0 wedges in a handler and stops reading.  A second
        # caller's 8 MiB frame then fills the socket; its send must give
        # up after call_timeout_s without progress instead of blocking
        # forever inside send_lock, and because the frame stream is now
        # torn mid-frame the worker is reaped.
        env = proc_env()
        fabric = env.install_procfabric(
            export_wedged_blob_on_worker_0, workers=2, call_timeout_s=1.0
        )
        try:
            client = env.create_domain("m0", "client")
            w0 = fabric.bind(client, "blob", blob_module.binding("blob"), worker=0)
            w1 = fabric.bind(client, "blob", blob_module.binding("blob"), worker=1)
            handle = fabric._handles[0]
            # The wedging caller waits with a long reply timeout, so only
            # the reap (not its own timeout) can be what unblocks it.
            call_raw = fabric.call_raw
            fabric.call_raw = lambda *a, **kw: call_raw(*a, timeout_s=30.0, **kw)
            pending_outcome = {}
            pending = in_thread(pending_outcome, w0.echo, b"")
            wait_until(lambda: len(handle.pending) == 1)
            del fabric.call_raw
            sender_outcome = {}
            sender = in_thread(sender_outcome, w0.echo, patterned(8 << 20))
            sender.join(5.0)
            pending.join(1.0)
            assert not sender.is_alive(), "sender still blocked in sendall"
            assert not pending.is_alive(), "pending caller was not unblocked"
            assert isinstance(sender_outcome.get("error"), ServerDiedError)
            assert isinstance(pending_outcome.get("error"), ServerDiedError)
            assert not handle.process.is_alive()
            with pytest.raises(ServerDiedError):
                w0.echo(b"later")
            assert w1.echo(b"still serving") == b"still serving"
        finally:
            fabric.kill_worker(0)  # unblocks a sender this test found hung
            env.uninstall_procfabric()


def export_counter_with_obsd(env, index):
    """Worker bootstrap: a counter plus the worker's own obsd door."""
    from repro.services.obsd import ObsdService

    server = env.create_domain("w", "server")
    obj = SingletonServer(server).export(
        CounterImpl(), counter_module.binding("counter")
    )
    obs_domain = env.create_domain("w", "obsd")
    return {"counter": obj, "obsd": ObsdService(obs_domain).exported}


class TestObsV2:
    """Windowed telemetry across the process boundary (obs v2)."""

    def test_windows_without_trace_refused(self):
        env = proc_env()
        with pytest.raises(ProcFabricError):
            env.install_procfabric(export_counter, workers=1, windows=True)

    def test_merged_windows_combine_supervisor_and_workers(self):
        from repro.obs.windows import snapshot_counter_total, snapshot_quantile

        env = proc_env()
        env.install_tracer()
        env.install_windows()
        fabric = env.install_procfabric(
            export_counter, workers=2, trace=True, windows=True
        )
        try:
            client = env.create_domain("m0", "client")
            w0 = fabric.bind(client, "counter", counter_module.binding("counter"), worker=0)
            w1 = fabric.bind(client, "counter", counter_module.binding("counter"), worker=1)
            w0.add(1)
            w0.add(2)
            w1.add(3)
            merged = fabric.merged_windows()
            assert merged["windows"], "merged snapshot must carry windows"
            # The supervisor's invoke spans land in its own series; the
            # workers' door spans land in theirs; the merge carries both.
            invocations = sum(
                snapshot_counter_total(merged, scope, "invocations")
                for scope in ("singleton", "unknown")
            )
            assert invocations >= 3
            # Workers record the server-side handler sketch (the
            # client-side door span lives in the supervisor process).
            handler_metrics = {
                name
                for window in merged["windows"]
                for scope, name, _ in window["sketches"]
                if scope == "handler" and "counter" in name
            }
            assert handler_metrics, "worker handler sketches must survive the merge"
            for name in sorted(handler_metrics):
                assert snapshot_quantile(merged, "handler", name, 0.99) > 0.0
        finally:
            env.uninstall_procfabric()

    def test_merged_spans_order_is_deterministic(self):
        env = proc_env()
        env.install_tracer()
        fabric = env.install_procfabric(export_counter, workers=2, trace=True)
        try:
            client = env.create_domain("m0", "client")
            w0 = fabric.bind(client, "counter", counter_module.binding("counter"), worker=0)
            w1 = fabric.bind(client, "counter", counter_module.binding("counter"), worker=1)
            for n in (1, 2, 3):
                w0.add(n)
                w1.add(n)
            first = fabric.merged_spans()
            second = fabric.merged_spans()
            assert first == second
            keys = [(r["trace_id"], r["span_id"], r["process"]) for r in first]
            assert keys == sorted(keys)
        finally:
            env.uninstall_procfabric()

    def test_worker_obsd_snapshot_matches_offline_analyzer(self):
        # The acceptance gate on the proc fabric: an obsd door inside a
        # worker hands back a marshalled windowed snapshot, and the
        # offline analyzer over those wire bytes agrees bit-for-bit with
        # the worker's live quantile operation.
        import json as _json

        from repro.obs.windows import snapshot_quantile
        from repro.services.obsd import obsd_binding

        env = proc_env()
        env.install_tracer()
        fabric = env.install_procfabric(
            export_counter_with_obsd, workers=1, trace=True, windows=True
        )
        try:
            client = env.create_domain("m0", "client")
            counter = fabric.bind(client, "counter", counter_module.binding("counter"))
            for n in (1, 2, 3, 4):
                counter.add(n)
            obsd = fabric.bind(client, "obsd", obsd_binding())
            snapshot = _json.loads(obsd.windows_json(0))
            doors = sorted(
                {
                    name
                    for window in snapshot["windows"]
                    for scope, name, _ in window["sketches"]
                    if scope == "handler" and "obsd" not in name
                }
            )
            assert doors, "the counter workload must exercise worker doors"
            for metric in doors:
                offline = snapshot_quantile(snapshot, "handler", metric, 0.99)
                # The obsd calls themselves only touch the obsd door's
                # series, so the counter door's live read is unmoved.
                assert offline == obsd.quantile("handler", metric, 0.99)
                assert offline > 0.0
        finally:
            env.uninstall_procfabric()
