"""Fault paths leave honest traces: error spans and ordered retry events."""

from __future__ import annotations

import pytest

from repro.kernel import CommunicationError, NetworkPartitionError
from repro.marshal.buffer import MarshalBuffer
from repro.obs.tracer import install_tracer
from repro.runtime.env import Environment
from repro.runtime.faults import crash_domain, partitioned
from repro.subcontracts.reconnectable import ReconnectableServer
from tests.conftest import CounterImpl
from tests.obs.conftest import build_counter_world


def invoke_spans(tracer):
    return [s for s in tracer.spans() if s.category == "invoke"]


class TestCrash:
    def test_crashed_server_yields_error_status_invoke_span(self, traced_world):
        env, tracer, _, server, remote = traced_world
        crash_domain(server)
        with pytest.raises(Exception):
            remote.add(1)
        (span,) = invoke_spans(tracer)
        assert span.status == "error"
        assert span.error_type
        assert span.error_message

    def test_error_propagates_through_every_open_ancestor(self, traced_world):
        env, tracer, _, server, remote = traced_world
        crash_domain(server)
        with pytest.raises(Exception):
            remote.add(1)
        (invoke,) = invoke_spans(tracer)
        trace = [s for s in tracer.spans() if s.trace_id == invoke.trace_id]
        # Whatever layers did open a span before the failure, none of
        # them may report "ok" for a call that raised.
        assert trace, "the failed call must still be traced"
        assert all(s.status == "error" for s in trace)


class TestPartition:
    def test_partition_yields_error_spans_at_client_and_fabric(self, traced_world):
        env, tracer, _, _, remote = traced_world
        with partitioned(env.fabric, "server-m", "client-m"):
            with pytest.raises(NetworkPartitionError):
                remote.add(1)
        (invoke,) = invoke_spans(tracer)
        assert invoke.status == "error"
        assert invoke.error_type == "NetworkPartitionError"
        fabric_spans = [s for s in tracer.spans() if s.category == "fabric"]
        assert fabric_spans
        assert all(s.status == "error" for s in fabric_spans)
        assert all(s.trace_id == invoke.trace_id for s in fabric_spans)

    def test_healed_link_traces_clean_again(self, traced_world):
        env, tracer, _, _, remote = traced_world
        with partitioned(env.fabric, "server-m", "client-m"):
            with pytest.raises(NetworkPartitionError):
                remote.add(1)
        remote.add(1)
        statuses = [s.status for s in invoke_spans(tracer)]
        assert statuses == ["error", "ok"]


@pytest.fixture
def reconnectable_world(counter_module):
    env = Environment()
    server = env.create_domain("servers", "server-1")
    client = env.create_domain("clients", "client")
    binding = counter_module.binding("counter")
    obj = ReconnectableServer(server).export(
        CounterImpl(), binding, name="/services/counter"
    )
    buffer = MarshalBuffer(env.kernel)
    obj._subcontract.marshal(obj, buffer)
    buffer.seal_for_transmission(server)
    remote = binding.unmarshal_from(buffer, client)
    tracer = install_tracer(env.kernel)
    return env, tracer, server, remote, binding


class TestReconnectableRetries:
    def test_recovery_records_retry_event_and_retries_attr(
        self, reconnectable_world, counter_module
    ):
        env, tracer, server, remote, binding = reconnectable_world
        crash_domain(server)
        # Restart: a fresh domain re-exports under the same name.
        fresh = env.create_domain("servers", "server-2")
        ReconnectableServer(fresh).export(
            CounterImpl(), binding, name="/services/counter"
        )
        assert remote.add(5) == 5
        invoke = next(
            s for s in tracer.spans()
            if s.category == "invoke" and s.name == "add"
        )
        assert invoke.status == "ok"
        assert invoke.attrs["retries"] >= 1
        retries = [e for e in invoke.events if e["name"] == "reconnect.retry"]
        assert retries
        assert retries[0]["attempt"] == 1
        assert retries[0]["error"]
        assert retries[0]["backoff_us"] > 0

    def test_give_up_records_every_retry_in_order(self, reconnectable_world):
        env, tracer, server, remote, _ = reconnectable_world
        crash_domain(server)  # no restart: re-resolution keeps failing
        with pytest.raises(CommunicationError):
            remote.add(1)
        invoke = next(
            s for s in tracer.spans()
            if s.category == "invoke" and s.name == "add"
        )
        assert invoke.status == "error"
        attempts = [
            e["attempt"] for e in invoke.events if e["name"] == "reconnect.retry"
        ]
        assert attempts == list(range(1, len(attempts) + 1))
        assert len(attempts) == remote._subcontract.max_retries
        counters = tracer.metrics.snapshot()["reconnectable"]["counters"]
        assert counters["events:reconnect.retry"] == len(attempts)
        assert counters["errors"] == 1


class TestSkeletonFailure:
    def test_a_raising_dispatch_fails_its_skeleton_span(
        self, traced_world, counter_module, monkeypatch
    ):
        env, tracer, _, _, remote = traced_world
        skeleton = counter_module.binding("counter").skeleton
        dispatch = skeleton.dispatch

        def broken(*args):
            raise KeyError("no such slot")

        monkeypatch.setattr(skeleton, "dispatch", broken)
        with pytest.raises(Exception):
            remote.add(1)
        monkeypatch.setattr(skeleton, "dispatch", dispatch)
        try:
            raise LookupError("handled by the caller")
        except LookupError:
            # A call made while the caller handles an exception is not
            # failed by it.
            assert remote.add(2) == 2
        failed, ok = [s for s in tracer.spans() if s.category == "skeleton"]
        assert (failed.status, failed.error_type, failed.error_message) == (
            "error", "KeyError", "'no such slot'"
        )
        assert (ok.status, ok.error_type) == ("ok", None)

    def test_an_unreadable_op_name_is_reported_as_untraced(self, counter_module):
        # The traced skeleton reads the op name for its span; when that
        # read fails, dispatch re-reads it and writes the same failure
        # status an untraced server would.
        replies = []
        for traced in (False, True):
            env, client, server, remote = build_counter_world(counter_module)
            tracer = install_tracer(env.kernel) if traced else None
            request = MarshalBuffer(env.kernel)
            request.put_int32(7)  # where the op name belongs
            reply = env.kernel.door_call(client, remote._rep.door, request)
            replies.append(bytes(reply.data))
        assert replies[0] == replies[1]
        (span,) = [s for s in tracer.spans() if s.category == "skeleton"]
        assert span.name == "?"
