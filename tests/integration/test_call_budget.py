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
from repro.kernel.clock import SimClock
from repro.runtime.env import Environment
from repro.subcontracts.singleton import SingletonServer
from tests.conftest import CounterImpl

_PACKAGE = os.path.dirname(repro.__file__) + os.sep

#: Python calls one call may make, and the charges it makes.  Before the
#: buffer became the codec these were 63 and 58 calls, and before the
#: stubs marshalled inline 36 and 33, with these charges.
BUDGETS = {
    "add": (
        33,
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
        30,
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
TRACED_BUDGETS = {
    "add": (
        87,
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
        84,
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


@pytest.fixture
def charges(monkeypatch):
    """Every clock charge made while the test runs, in order."""
    made = []
    for name in ("charge", "charge_bytes"):
        original = getattr(SimClock, name)

        def recording(self, *args, _name=name, _original=original):
            made.append((_name, args))
            return _original(self, *args)

        monkeypatch.setattr(SimClock, name, recording)
    return made


def export_counter(counter_module):
    """``(env, counter)``: a singleton counter exported by one domain and
    resolved by another on the same machine, as a Spring program would
    reach it."""
    env = Environment()
    binding = counter_module.binding("counter")
    server = env.create_domain("m0", "server")
    client = env.create_domain("m0", "client")
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


def program_calls(fn, *args) -> int:
    """Python calls ``fn(*args)`` makes in ``repro`` and generated IDL code."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(_PACKAGE) or filename.startswith("<idl:"):
                calls += 1

    sys.setprofile(profiler)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def check_budget(counter, charges, op, budgets):
    budget, args, expected = budgets[op]
    method = getattr(counter, op)
    method(*args)  # warm: the pools hold a buffer each, the clock its shard
    del charges[:]
    calls = program_calls(method, *args)
    assert calls <= budget, f"{op}: {calls} Python calls, budget {budget}"
    assert charges == expected


@pytest.mark.parametrize("op", sorted(BUDGETS))
def test_one_local_call_stays_within_its_budget(counter, charges, op):
    check_budget(counter, charges, op, BUDGETS)


@pytest.mark.parametrize("op", sorted(TRACED_BUDGETS))
def test_one_traced_call_stays_within_its_budget(traced_counter, charges, op):
    check_budget(traced_counter, charges, op, TRACED_BUDGETS)


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
