"""The base call path's Python-call budget (paper §9.3, asked of our base).

One call on a lone singleton object is the smallest thing the system
does: stub, subcontract, door, skeleton, handler and back.  These tests
count the Python calls it makes in ``repro`` and in generated IDL code,
and pin the simulated-clock charges it makes, in order and with their
arguments: a change that cuts calls must not move a charge.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.core import narrow
from repro.idl.compiler import compile_idl
from repro.kernel.clock import SimClock
from repro.runtime.env import Environment
from repro.subcontracts.singleton import SingletonServer
from tests.conftest import CounterImpl

_PACKAGE = os.path.dirname(repro.__file__) + os.sep

#: Python calls one call may make, the clock calls it makes, and the
#: charges they add up to.  Before the buffer became the codec these were
#: 63 and 58 calls, before the stubs marshalled inline 36 and 33, and
#: before they packed primitive items themselves 33 and 30, with these
#: charges in 11 and 10 clock calls.
BUDGETS = {
    "add": (
        22,
        9,
        (1,),
        [
            ("charge", ("local_call",)),
            ("charge", ("indirect_call",)),
            ("charge_bytes", (5,)),  # opname "add"
            ("charge_bytes", (5,)),  # int32 argument
            ("charge", ("indirect_call",)),
            ("charge", ("memory_copy_byte", 10)),
            ("charge", ("door_call",)),
            ("charge", ("indirect_call",)),
            ("charge_bytes", (2,)),  # int8 status
            ("charge_bytes", (5,)),  # int32 result
            ("charge", ("memory_copy_byte", 7)),
        ],
    ),
    "total": (
        22,
        9,
        (),
        [
            ("charge", ("local_call",)),
            ("charge", ("indirect_call",)),
            ("charge_bytes", (7,)),  # opname "total"
            ("charge", ("indirect_call",)),
            ("charge", ("memory_copy_byte", 7)),
            ("charge", ("door_call",)),
            ("charge", ("indirect_call",)),
            ("charge_bytes", (2,)),
            ("charge_bytes", (5,)),
            ("charge", ("memory_copy_byte", 7)),
        ],
    ),
}


#: The same calls with ``env.install_windows()`` (a tracer feeding a
#: windowed series): four spans (invoke, door, handler, skeleton), each
#: charging ``trace_span`` as it opens and ``window_probe`` as it ends.
#: Before the stubs packed primitive items: 87 and 84 calls, 19 and 18
#: clock calls; before the windowed feed folded in batches: 75 calls;
#: before the skeleton span handed its op name to dispatch: 63 calls.
TRACED_BUDGETS = {
    "add": (
        62,
        17,
        (1,),
        [
            ("charge", ("local_call",)),
            ("charge", ("trace_span",)),  # invoke
            ("charge", ("indirect_call",)),
            ("charge_bytes", (5,)),
            ("charge_bytes", (5,)),
            ("charge", ("indirect_call",)),
            ("charge", ("memory_copy_byte", 10)),
            ("charge", ("trace_span",)),  # door
            ("charge", ("door_call",)),
            ("charge", ("trace_span",)),  # handler
            ("charge", ("trace_span",)),  # skeleton
            ("charge", ("indirect_call",)),
            ("charge_bytes", (2,)),
            ("charge_bytes", (5,)),
            ("charge", ("window_probe",)),  # skeleton ends
            ("charge", ("window_probe",)),  # handler ends
            ("charge", ("window_probe",)),  # door ends
            ("charge", ("memory_copy_byte", 7)),
            ("charge", ("window_probe",)),  # invoke ends
        ],
    ),
    "total": (
        62,
        17,
        (),
        [
            ("charge", ("local_call",)),
            ("charge", ("trace_span",)),
            ("charge", ("indirect_call",)),
            ("charge_bytes", (7,)),
            ("charge", ("indirect_call",)),
            ("charge", ("memory_copy_byte", 7)),
            ("charge", ("trace_span",)),
            ("charge", ("door_call",)),
            ("charge", ("trace_span",)),
            ("charge", ("trace_span",)),
            ("charge", ("indirect_call",)),
            ("charge_bytes", (2,)),
            ("charge_bytes", (5,)),
            ("charge", ("window_probe",)),
            ("charge", ("window_probe",)),
            ("charge", ("window_probe",)),
            ("charge", ("memory_copy_byte", 7)),
            ("charge", ("window_probe",)),
        ],
    ),
}


class Charges(list):
    """Every clock charge made while a test runs, in order.  A
    ``charge_bytes`` run is one entry per count, so it reads as the
    separate item charges it adds up to; ``calls`` counts clock calls."""

    calls = 0

    def clear(self) -> None:
        del self[:]
        self.calls = 0


@pytest.fixture
def charges(monkeypatch):
    made = Charges()
    for name in ("charge", "charge_bytes", "advance"):
        original = getattr(SimClock, name)

        def recording(self, *args, _name=name, _original=original):
            made.calls += 1
            if _name == "charge_bytes":
                made.extend((_name, (count,)) for count in args)
            else:
                made.append((_name, args))
            return _original(self, *args)

        monkeypatch.setattr(SimClock, name, recording)
    return made


def export_counter(counter_module, client_machine="m0"):
    """``(env, counter)``: a singleton counter exported by one domain on
    ``m0`` and resolved by another, on the same machine unless
    ``client_machine`` names another, as a Spring program would reach it."""
    env = Environment()
    binding = counter_module.binding("counter")
    server = env.create_domain("m0", "server")
    client = env.create_domain(client_machine, "client")
    env.bind(server, "/counter", SingletonServer(server).export(CounterImpl(), binding))
    return env, narrow(env.resolve(client, "/counter"), binding)


@pytest.fixture
def counter(counter_module, charges):
    return export_counter(counter_module)[1]


@pytest.fixture
def traced_counter(counter_module, charges):
    env, counter = export_counter(counter_module)
    env.install_windows()
    return counter


def program_calls(fn, *args, under=(_PACKAGE, "<idl:")) -> int:
    """Python calls ``fn(*args)`` makes in files whose names start with one
    of ``under``: by default ``repro`` and generated IDL code."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(under):
            calls += 1

    sys.setprofile(profiler)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def check_budget(counter, charges, op, budgets):
    budget, clock_calls, args, expected = budgets[op]
    method = getattr(counter, op)
    method(*args)  # warm: the pools hold a buffer each, the clock its shard
    charges.clear()
    calls = program_calls(method, *args)
    assert calls <= budget, f"{op}: {calls} Python calls, budget {budget}"
    assert charges == expected
    assert charges.calls == clock_calls


@pytest.mark.parametrize("op", sorted(BUDGETS))
def test_one_local_call_stays_within_its_budget(counter, charges, op):
    check_budget(counter, charges, op, BUDGETS)


@pytest.mark.parametrize("op", sorted(TRACED_BUDGETS))
def test_one_traced_call_stays_within_its_budget(traced_counter, charges, op):
    check_budget(traced_counter, charges, op, TRACED_BUDGETS)


BLOB_IDL = """
interface blob_store {
    bytes roundtrip(bytes data);
}
"""


class BlobImpl:
    def roundtrip(self, data):
        return data


def blob_charges(size, head):
    """``roundtrip`` of ``size`` bytes, whose item head (tag and varint
    length) takes ``head`` bytes.  Before the stubs packed primitive items
    this was 49 Python calls at 64 B and 53 at 64 KiB, in 11 clock calls."""
    item = head + size
    return (
        22,
        9,
        [
            ("charge", ("local_call",)),
            ("charge", ("indirect_call",)),
            ("charge_bytes", (11,)),  # opname "roundtrip"
            ("charge_bytes", (item,)),  # bytes argument
            ("charge", ("indirect_call",)),
            ("charge", ("memory_copy_byte", 11 + item)),
            ("charge", ("door_call",)),
            ("charge", ("indirect_call",)),
            ("charge_bytes", (2,)),
            ("charge_bytes", (item,)),  # bytes result
            ("charge", ("memory_copy_byte", 2 + item)),
        ],
    )


@pytest.mark.parametrize("size, head", [(64, 2), (1024, 3), (64 * 1024, 4)])
def test_one_bytes_call_stays_within_its_budget(charges, size, head):
    env = Environment()
    binding = compile_idl(BLOB_IDL, module_name="tests.blob").binding("blob_store")
    server = env.create_domain("m0", "server")
    client = env.create_domain("m0", "client")
    env.bind(server, "/blob", SingletonServer(server).export(BlobImpl(), binding))
    blob = narrow(env.resolve(client, "/blob"), binding)
    payload = bytes(range(256)) * (size // 256) or bytes(range(size))
    budget, clock_calls, expected = blob_charges(size, head)
    assert blob.roundtrip(payload) == payload  # warm
    charges.clear()
    calls = program_calls(blob.roundtrip, payload)
    assert calls <= budget, f"roundtrip: {calls} Python calls, budget {budget}"
    assert charges == expected
    assert charges.calls == clock_calls


@pytest.mark.parametrize("feature", ["chaos", "admission", "tsan"])
def test_an_uninstalled_feature_leaves_the_call_as_it_found_it(counter_module, feature):
    """A feature enters the call path at install and leaves it at
    uninstall: every seam is empty again, and one call makes the calls
    and charges of a world that never installed it."""
    (never_env, never), (env, counter) = (export_counter(counter_module) for _ in range(2))
    getattr(env, "install_" + feature)()
    getattr(env, "uninstall_" + feature)()
    kernel = env.kernel
    assert (kernel.launch_seam, kernel.gate_seam, kernel.handler_seam) == (None,) * 3
    made = []
    for world, obj in ((never_env, never), (env, counter)):
        obj.add(1)
        world.clock.reset_tally()
        made.append((program_calls(obj.add, 1), world.clock.tally()))
    assert made[1] == made[0]
    assert made[1][0] <= BUDGETS["add"][0]


#: ``add(1)`` from another machine: Python calls in ``repro`` and IDL code,
#: those in ``repro/net/``, clock calls, and the charges.  They are the local
#: call's, with the wire leg's two ``network`` advances around the server's
#: half; no door rides, so no translation is charged.  Before the wire leg
#: became one path it made 39 and 13 Python calls.
REMOTE_BUDGET = (
    31,
    5,
    11,
    [
        ("charge", ("local_call",)),
        ("charge", ("indirect_call",)),
        ("charge_bytes", (5,)),
        ("charge_bytes", (5,)),
        ("charge", ("indirect_call",)),
        ("charge", ("memory_copy_byte", 10)),
        ("advance", (1200.5, "network")),  # request: 10 bytes on the wire
        ("charge", ("door_call",)),
        ("charge", ("indirect_call",)),
        ("charge_bytes", (2,)),
        ("charge_bytes", (5,)),
        ("advance", (1200.35, "network")),  # reply: 7 bytes
        ("charge", ("memory_copy_byte", 7)),
    ],
)


def test_one_cross_machine_call_stays_within_its_budget(counter_module, charges):
    budget, net_budget, clock_calls, expected = REMOTE_BUDGET
    counter = export_counter(counter_module, client_machine="m1")[1]
    counter.add(1)  # warm
    charges.clear()
    net_calls = program_calls(counter.add, 1, under=_PACKAGE + "net" + os.sep)
    assert net_calls <= net_budget, f"add: {net_calls} Python calls in repro/net/"
    assert charges == expected
    assert charges.calls == clock_calls
    calls = program_calls(counter.add, 1)
    assert calls <= budget, f"add: {calls} Python calls, budget {budget}"
