"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.registry import SubcontractRegistry
from repro.idl.compiler import compile_idl
from repro.kernel.nucleus import Kernel
from repro.marshal import context
from repro.runtime.env import Environment
from repro.subcontracts import standard_subcontracts

COUNTER_IDL = """
interface counter {
    int32 add(int32 n);
    int32 total();
    void reset();
}
"""

ECHO_IDL = """
struct point {
    float64 x;
    float64 y;
}

struct segment {
    point a;
    point b;
    string label;
}

interface echo {
    bool flip(bool v);
    int32 neg32(int32 v);
    int64 neg64(int64 v);
    float64 halve(float64 v);
    string upper(string v);
    bytes reverse(bytes v);
    point swap(point p);
    segment swap_ends(segment s);
    sequence<int32> double_all(sequence<int32> vs);
    sequence<sequence<string>> nest(sequence<sequence<string>> vs);
    void nothing();
}
"""


class CounterImpl:
    """Reference implementation for the counter interface."""

    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int) -> int:
        self.value += n
        return self.value

    def total(self) -> int:
        return self.value

    def reset(self) -> None:
        self.value = 0


class EchoImpl:
    """Reference implementation for the echo interface."""

    def flip(self, v):
        return not v

    def neg32(self, v):
        return -v

    def neg64(self, v):
        return -v

    def halve(self, v):
        return v / 2

    def upper(self, v):
        return v.upper()

    def reverse(self, v):
        return v[::-1]

    def swap(self, p):
        return type(p)(x=p.y, y=p.x)

    def swap_ends(self, s):
        return type(s)(a=s.b, b=s.a, label=s.label)

    def double_all(self, vs):
        return [v * 2 for v in vs]

    def nest(self, vs):
        return vs

    def nothing(self):
        return None


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def local_env():
    """Environment with negligible network latency (single-machine focus)."""
    return Environment(latency_us=0.0)


@pytest.fixture(scope="session")
def counter_module():
    return compile_idl(COUNTER_IDL, module_name="tests.counter")


@pytest.fixture(scope="session")
def echo_module():
    return compile_idl(ECHO_IDL, module_name="tests.echo")


@pytest.fixture
def scratch_keys():
    """Call-context key registrations made inside the test are undone
    after it."""
    keys, hop = dict(context.KEYS), set(context.HOP_KEYS)
    yield
    context.KEYS.clear()
    context.KEYS.update(keys)
    context.HOP_KEYS.clear()
    context.HOP_KEYS.update(hop)


@pytest.fixture
def counter_impl():
    return CounterImpl()


@pytest.fixture
def echo_impl():
    return EchoImpl()


def make_domain(kernel: Kernel, name: str):
    """A bare domain with the standard subcontract registry (no naming)."""
    domain = kernel.create_domain(name)
    registry = SubcontractRegistry(domain)
    registry.register_many(standard_subcontracts())
    return domain


@pytest.fixture
def domain_factory(kernel):
    def factory(name: str):
        return make_domain(kernel, name)

    return factory
