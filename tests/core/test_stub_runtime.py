"""Unit tests of the generated client stub protocol, driven over a
scripted subcontract in isolation."""

from __future__ import annotations

import pytest

from repro.core.errors import (
    ObjectConsumedError,
    RemoteApplicationError,
    RevokedObjectError,
)
from repro.core.stubs import (
    STATUS_EXCEPTION,
    STATUS_OK,
    STATUS_REVOKED,
    write_exception_status,
    write_ok_status,
    write_revoked_status,
)
from repro.core.subcontract import ClientSubcontract
from repro.idl.compiler import compile_idl
from repro.marshal.buffer import MarshalBuffer

THING_IDL = "interface thing { int32 op(int32 n); }"


class ScriptedSubcontract(ClientSubcontract):
    """A subcontract whose invoke replays a canned reply."""

    id = "scripted"

    def __init__(self, domain, reply_factory):
        super().__init__(domain)
        self._reply_factory = reply_factory
        self.preambles = 0
        self.sent_buffers = []

    def invoke_preamble(self, obj, buffer):
        self.preambles += 1
        buffer.put_string("control")

    def invoke(self, obj, buffer):
        # The stub recycles the request buffer once invoke returns, so
        # keep a snapshot of the wire bytes rather than the live buffer.
        snapshot = MarshalBuffer(self.domain.kernel)
        snapshot.data.extend(buffer.data)
        self.sent_buffers.append(snapshot)
        return self._reply_factory(self.domain)

    def marshal_rep(self, obj, buffer):
        raise NotImplementedError

    def unmarshal_rep(self, buffer, binding):
        raise NotImplementedError

    def copy(self, obj):
        raise NotImplementedError

    def consume(self, obj):
        obj._mark_consumed()


def make_object(kernel, reply_factory):
    """A ``thing`` on the scripted subcontract, with the generated
    general stubs as its method table."""
    domain = kernel.create_domain("d")
    binding = compile_idl(THING_IDL).binding("thing")
    subcontract = ScriptedSubcontract(domain, reply_factory)
    obj = binding.stub_class(
        domain=domain,
        method_table=binding.remote_method_table(),
        subcontract=subcontract,
        rep=object(),
        binding=binding,
    )
    return obj, subcontract


def scripted_reply(write):
    """A reply factory: a pooled buffer holding what ``write`` puts."""

    def reply(domain):
        buffer = domain.acquire_buffer()
        write(buffer)
        buffer.rewind()
        return buffer

    return reply


def assert_pool_balanced(obj):
    """Request and reply both went back to the domain's pool."""
    domain = obj._domain
    assert domain.buffer_acquires == domain.buffer_releases == 2


class TestRemoteCall:
    def test_ok_path_returns_unmarshalled_result(self, kernel):
        def ok(buffer):
            write_ok_status(buffer)
            buffer.put_int32(99)

        obj, subcontract = make_object(kernel, scripted_reply(ok))
        assert obj.op(1) == 99
        assert subcontract.preambles == 1
        assert_pool_balanced(obj)
        # The request buffer holds: control, opname, then the argument.
        sent = subcontract.sent_buffers[0]
        sent.rewind()
        assert sent.get_string() == "control"
        assert sent.get_string() == "op"
        assert sent.get_int32() == 1

    def test_exception_status_raises_remote_error(self, kernel):
        obj, _ = make_object(
            kernel,
            scripted_reply(lambda b: write_exception_status(b, KeyError("missing"))),
        )
        with pytest.raises(RemoteApplicationError) as info:
            obj.op(1)
        assert info.value.remote_type == "KeyError"
        assert "missing" in info.value.message
        assert_pool_balanced(obj)

    def test_revoked_status_raises_revoked(self, kernel):
        obj, _ = make_object(
            kernel, scripted_reply(lambda b: write_revoked_status(b, "gone"))
        )
        with pytest.raises(RevokedObjectError, match="gone"):
            obj.op(1)
        assert_pool_balanced(obj)

    def test_consumed_object_rejected_before_any_work(self, kernel):
        obj, subcontract = make_object(kernel, None)
        subcontract.consume(obj)
        # The method-table entry itself, not the stub class method (which
        # checks too): the generated stub rejects the object on its own.
        stub = obj._binding.remote_method_table()["op"]
        with pytest.raises(ObjectConsumedError):
            stub(obj, 1)
        assert subcontract.preambles == 0
        assert obj._domain.buffer_acquires == 0

    def test_status_codes_are_distinct(self):
        assert len({STATUS_OK, STATUS_EXCEPTION, STATUS_REVOKED}) == 3
