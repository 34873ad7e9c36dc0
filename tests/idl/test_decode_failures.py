"""What a failed unmarshal leaves behind: nothing.

A stub whose reply does not decode (the peer compiled a different IDL,
sent an unknown status or a malformed exception) must still return the
reply buffer to its pool; a skeleton whose argument decode fails must
give up the objects it had already unmarshalled, so their servers hear
``unreferenced``.
"""

from __future__ import annotations

import pytest

from repro.core import narrow
from repro.core.errors import RemoteApplicationError
from repro.core.stubs import STATUS_EXCEPTION
from repro.idl.compiler import compile_idl
from repro.idl.specialize import specialize
from repro.marshal.errors import MarshalError
from repro.runtime.env import Environment
from repro.subcontracts.singleton import SingletonServer
from tests.conftest import CounterImpl

CLIENT_GAUGE = "interface gauge { int32 total(); }"
SERVER_GAUGE = "interface gauge { string total(); }"


class GaugeImpl:
    def total(self):
        return "seven"


def unknown_status(domain, impl, request, reply, binding):
    reply.put_int8(7)
    reply.put_string("seven")


def malformed_exception(domain, impl, request, reply, binding):
    reply.put_int8(STATUS_EXCEPTION)
    reply.put_int32(7)


#: skeleton dispatches that write a reply no stub can decode
RAW_REPLIES = {"unknown status": unknown_status, "malformed exception": malformed_exception}


def unbalanced(*domains):
    """The domains whose pools gave out more buffers than came back."""
    return [d.name for d in domains if d.buffer_acquires != d.buffer_releases]


@pytest.mark.parametrize("stubs", ["general", "fused"])
@pytest.mark.parametrize("reply", ["wrong type", "unknown status", "malformed exception"])
def test_a_reply_that_fails_to_decode_goes_back_to_its_pool(stubs, reply):
    env = Environment()
    server = env.create_domain("m0", "server")
    client = env.create_domain("m0", "client")
    served = compile_idl(SERVER_GAUGE, module_name=f"tests.gauge.server.{stubs}")
    skeleton = served.binding("gauge").skeleton
    exported = SingletonServer(server).export(GaugeImpl(), served.binding("gauge"))
    env.bind(server, "/gauge", exported)
    module = compile_idl(CLIENT_GAUGE, module_name=f"tests.gauge.client.{stubs}")
    if stubs == "fused":
        specialize(module, "gauge", "singleton")
    gauge = narrow(env.resolve(client, "/gauge"), module.binding("gauge"))
    if reply != "wrong type":
        skeleton.dispatch = RAW_REPLIES[reply]
    for _ in range(3):
        with pytest.raises(MarshalError):
            gauge.total()
        assert unbalanced(server, client) == []


CLIENT_HOLDER = """
interface counter { int32 total(); }
interface holder { void put(counter c, int32 n); }
"""
SERVER_HOLDER = CLIENT_HOLDER.replace("int32 n", "string n")


class HolderImpl:
    def put(self, c, n):  # never reached: ``n`` does not unmarshal
        raise AssertionError("called")


def test_arguments_unmarshalled_before_a_failing_one_are_given_up():
    env = Environment()
    owner = env.create_domain("m0", "owner")
    holder_domain = env.create_domain("m0", "holder")
    served = compile_idl(SERVER_HOLDER, module_name="tests.holder.server")
    exported = SingletonServer(holder_domain).export(HolderImpl(), served.binding("holder"))
    env.bind(holder_domain, "/holder", exported)
    module = compile_idl(CLIENT_HOLDER, module_name="tests.holder.client")
    holder = narrow(env.resolve(owner, "/holder"), module.binding("holder"))
    fired = []
    impl = CounterImpl()
    counter = SingletonServer(owner).export(
        impl, module.binding("counter"), unreferenced=fired.append
    )
    held = len(holder_domain.door_ids)
    with pytest.raises(RemoteApplicationError):
        holder.put(counter, 5)  # the owner's only reference moves
    assert len(holder_domain.door_ids) == held
    assert fired == [impl]
    assert unbalanced(owner, holder_domain) == []
