"""Drift guard between the client template's two variants.

Every client stub comes from one template in two variants: general
(through the subcontract vector) and fused (``SingleDoorClient.invoke``
inlined, Section 9.1).  On singleton objects they must be the same call:
the same request bytes, the same result or error, and the same clock
charges — except for exactly the two client-side indirect calls of
Section 9.3 that fusing removes.
"""

from __future__ import annotations

import pytest

from repro.core.errors import RemoteApplicationError
from repro.idl.compiler import compile_idl
from repro.idl.specialize import specialize
from repro.kernel.clock import SimClock
from repro.kernel.nucleus import Kernel
from repro.marshal.buffer import MarshalBuffer
from repro.subcontracts.singleton import SingletonServer
from tests.conftest import COUNTER_IDL, ECHO_IDL, CounterImpl, EchoImpl, make_domain

HOLDER_IDL = """
interface holder {
    int32 weigh(copy object o, string note);
    void boom(string why);
}
"""


class HolderImpl:
    def weigh(self, o, note):
        o.spring_consume()
        return len(note)

    def boom(self, why):
        raise ValueError(why)


def echo_args(module, fresh_object):
    point = module.point(x=1.5, y=-2.0)
    return {
        "flip": (True,),
        "neg32": (7,),
        "neg64": (-(2**40),),
        "halve": (3.0,),
        "upper": ("drift",),
        "reverse": (b"\x00\x01\x02",),
        "swap": (point,),
        "swap_ends": (module.segment(a=point, b=module.point(x=0.0, y=9.0), label="s"),),
        "double_all": ([1, 2, 3],),
        "nest": ([["a", "b"], [], ["c"]],),
        "nothing": (),
    }


def counter_args(module, fresh_object):
    return {"add": (5,), "total": (), "reset": ()}


def holder_args(module, fresh_object):
    return {"weigh": lambda: (fresh_object(), "four"), "boom": ("pow",)}


CASES = [
    ("echo", ECHO_IDL, EchoImpl, echo_args),
    ("counter", COUNTER_IDL, CounterImpl, counter_args),
    ("holder", HOLDER_IDL, HolderImpl, holder_args),
]


@pytest.fixture
def recorded(monkeypatch):
    """Every clock charge and every door-call request, in order."""
    made = []
    for name in ("charge", "charge_bytes"):
        original = getattr(SimClock, name)

        def recording(self, *args, _name=name, _original=original):
            made.append((_name, args))
            return _original(self, *args)

        monkeypatch.setattr(SimClock, name, recording)
    door_call = Kernel.door_call

    def recording_door_call(self, caller, door, buffer, *rest, **kwargs):
        made.append(("request", bytes(buffer.data), len(buffer.doors)))
        return door_call(self, caller, door, buffer, *rest, **kwargs)

    monkeypatch.setattr(Kernel, "door_call", recording_door_call)
    return made


def ship(kernel, src, dst, obj, binding):
    buffer = MarshalBuffer(kernel)
    obj._subcontract.marshal(obj, buffer)
    buffer.seal_for_transmission(src)
    return binding.unmarshal_from(buffer, dst)


def outcome(stub, obj, args):
    try:
        return ("ok", stub(obj, *args))
    except RemoteApplicationError as exc:
        return ("error", exc.remote_type, exc.message)


INDIRECT = ("charge", ("indirect_call",))


def without_client_indirect_calls(made):
    """``made`` less the stub's two indirect calls: the very first charge
    (before the preamble) and the one just before the door call (before
    invoke), whose first charge is the kernel's copy of the request."""
    request = next(i for i, entry in enumerate(made) if entry[0] == "request")
    assert made[0] == made[request - 1] == INDIRECT, made
    assert made[request + 1][1][0] == "memory_copy_byte", made
    return [entry for i, entry in enumerate(made) if i not in (0, request - 1)]


@pytest.mark.parametrize("iface, idl, impl_class, args_for", CASES, ids=[c[0] for c in CASES])
def test_general_and_fused_stubs_make_the_same_call(recorded, iface, idl, impl_class, args_for):
    kernel = Kernel()
    server = make_domain(kernel, "server")
    client = make_domain(kernel, "client")
    module = compile_idl(idl, f"variants.{iface}")
    binding = module.binding(iface)
    general = binding.remote_method_table()
    fused = specialize(module, iface, "singleton")
    counter_binding = compile_idl(COUNTER_IDL, f"variants.{iface}.arg").binding("counter")

    def fresh_object():
        exported = SingletonServer(server).export(CounterImpl(), counter_binding)
        return ship(kernel, server, client, exported, counter_binding)

    def export():
        exported = SingletonServer(server).export(impl_class(), binding)
        return ship(kernel, server, client, exported, binding)

    cases = args_for(module, fresh_object)
    assert sorted(cases) == sorted(binding.operations)  # every operation
    for op, args in cases.items():
        results = []
        for table in (general, fused):
            obj, call_args = export(), args() if callable(args) else args
            del recorded[:]
            results.append((outcome(table[op], obj, call_args), list(recorded)))
        (general_result, general_made), (fused_result, fused_made) = results
        assert fused_result == general_result, op
        assert fused_made == without_client_indirect_calls(general_made), op
        assert any(entry[0] == "request" for entry in fused_made)
