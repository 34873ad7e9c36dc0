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
#: buffer became the codec these were 63 and 58 calls, with these charges.
BUDGETS = {
    "add": (
        36,
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
        33,
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


@pytest.fixture
def counter(counter_module, charges):
    """A singleton counter exported by one domain and resolved by another
    on the same machine, as a Spring program would reach it."""
    env = Environment()
    binding = counter_module.binding("counter")
    server = env.create_domain("m0", "server")
    client = env.create_domain("m0", "client")
    env.bind(server, "/counter", SingletonServer(server).export(CounterImpl(), binding))
    return narrow(env.resolve(client, "/counter"), binding)


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


@pytest.mark.parametrize("op", sorted(BUDGETS))
def test_one_local_call_stays_within_its_budget(counter, charges, op):
    budget, args, expected = BUDGETS[op]
    method = getattr(counter, op)
    method(*args)  # warm: the pools hold a buffer each, the clock its shard
    del charges[:]
    calls = program_calls(method, *args)
    assert calls <= budget, f"{op}: {calls} Python calls, budget {budget}"
    assert charges == expected
