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


HOLDER_IDL = """
interface counter {{ int32 total(); }}
interface holder {{ void put({held}, int32 n); }}
"""


class HolderImpl:
    def put(self, held, n):  # never reached: ``n`` does not unmarshal
        raise AssertionError("called")


#: the argument unmarshalled before the failing one -> how the counter is sent in it
HELD = {
    "counter c": lambda counter: counter,
    "sequence<counter> cs": lambda counter: [counter],
    "sequence<sequence<counter>> css": lambda counter: [[], [counter]],
    # the counter's door identifier itself, not an object wrapping it
    "sequence<door> ds": lambda counter: [counter._rep.door],
}


def check_given_up(held):
    env = Environment()
    owner = env.create_domain("m0", "owner")
    holder_domain = env.create_domain("m0", "holder")
    client_idl = HOLDER_IDL.format(held=held)
    served = compile_idl(client_idl.replace("int32 n", "string n"))
    exported = SingletonServer(holder_domain).export(HolderImpl(), served.binding("holder"))
    env.bind(holder_domain, "/holder", exported)
    module = compile_idl(client_idl)
    holder = narrow(env.resolve(owner, "/holder"), module.binding("holder"))
    fired = []
    impl = CounterImpl()
    counter = SingletonServer(owner).export(
        impl, module.binding("counter"), unreferenced=fired.append
    )
    held_ids = len(holder_domain.door_ids)
    with pytest.raises(RemoteApplicationError):
        holder.put(HELD[held](counter), 5)  # the owner's only reference moves
    assert len(holder_domain.door_ids) == held_ids
    assert fired == [impl]
    assert unbalanced(owner, holder_domain) == []


def test_arguments_unmarshalled_before_a_failing_one_are_given_up():
    check_given_up("counter c")


@pytest.mark.parametrize("held", [held for held in HELD if held.startswith("sequence")])
def test_objects_and_doors_held_in_a_sequence_are_given_up(held):
    check_given_up(held)


def test_elements_before_one_that_fails_to_decode_are_given_up():
    """A ``sequence<counter>`` of two whose second element is an int32:
    the counter decoded as element 0 is given up when element 1 fails."""
    env = Environment()
    owner = env.create_domain("m0", "owner")
    holder_domain = env.create_domain("m0", "holder")
    module = compile_idl(HOLDER_IDL.format(held="sequence<counter> cs").replace(", int32 n", ""))
    exported = SingletonServer(holder_domain).export(HolderImpl(), module.binding("holder"))
    env.bind(holder_domain, "/holder", exported)
    holder = narrow(env.resolve(owner, "/holder"), module.binding("holder"))
    fired = []
    impl = CounterImpl()
    counter = SingletonServer(owner).export(
        impl, module.binding("counter"), unreferenced=fired.append
    )
    held_ids = len(holder_domain.door_ids)
    request = owner.acquire_buffer()
    request.put_string("put")
    request.put_sequence_header(2)
    counter._subcontract.marshal(counter, request)  # the owner's only reference moves
    request.put_int32(5)
    reply = holder._subcontract.invoke(holder, request)
    request.recycle()
    assert reply.get_int8() == STATUS_EXCEPTION
    assert reply.get_string() == "WireTypeError"
    reply.release()
    assert len(holder_domain.door_ids) == held_ids
    assert fired == [impl]
    assert unbalanced(owner, holder_domain) == []
