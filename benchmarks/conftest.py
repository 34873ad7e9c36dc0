"""Shared fixtures and helpers for the benchmark harness.

Every bench:

* measures wall-clock time with pytest-benchmark (the usual tables), and
* measures *simulated* microseconds on the kernel clock — the
  hardware-independent accounting that reproduces the paper's Section 9.3
  comparisons — and **asserts the paper's qualitative shape** (who wins,
  by roughly what factor), so `pytest benchmarks/` failing means the
  reproduction has drifted.

Numbers are also appended to ``benchmarks/results.txt`` so a run leaves a
readable record (EXPERIMENTS.md is written from those records).
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.core.registry import SubcontractRegistry
from repro.idl.compiler import compile_idl
from repro.idl.specialize import specialize
from repro.kernel.clock import ClockWindow
from repro.kernel.nucleus import Kernel
from repro.marshal.buffer import MarshalBuffer
from repro.runtime.env import Environment
from repro.subcontracts import standard_subcontracts
from repro.subcontracts.singleton import SingletonServer

RESULTS_PATH = Path(__file__).parent / "results.txt"


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    RESULTS_PATH.write_text("# Subcontract reproduction: simulated-time results\n")
    yield


@pytest.fixture
def record():
    """Append one experiment record to the results file."""

    def _record(experiment: str, line: str) -> None:
        with RESULTS_PATH.open("a") as fh:
            fh.write(f"[{experiment}] {line}\n")

    return _record


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def local_env():
    return Environment(latency_us=0.0)


def sim_us(kernel_or_env, fn):
    """Run ``fn`` once and return the simulated microseconds it cost."""
    clock = getattr(kernel_or_env, "clock", None) or kernel_or_env.clock
    with ClockWindow(clock) as window:
        fn()
    return window.elapsed_us


def ship(kernel, src, dst, obj, binding):
    """Move a Spring object between domains (marshal/unmarshal)."""
    buffer = MarshalBuffer(kernel)
    obj._subcontract.marshal(obj, buffer)
    buffer.seal_for_transmission(src)
    return binding.unmarshal_from(buffer, dst)


COUNTER_IDL = """
interface counter {
    int32 add(int32 n);
    int32 total();
    void reset();
}
"""

BLOB_IDL = """
interface blob_store {
    bytes roundtrip(bytes data);
    void absorb(bytes data);
}
"""


class CounterImpl:
    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int) -> int:
        self.value += n
        return self.value

    def total(self) -> int:
        return self.value

    def reset(self) -> None:
        self.value = 0


class BlobImpl:
    def roundtrip(self, data: bytes) -> bytes:
        return data

    def absorb(self, data: bytes) -> None:
        return None


@pytest.fixture(scope="session")
def counter_module():
    from repro.idl.compiler import compile_idl

    return compile_idl(COUNTER_IDL, module_name="bench.counter")


@pytest.fixture(scope="session")
def blob_module():
    from repro.idl.compiler import compile_idl

    return compile_idl(BLOB_IDL, module_name="bench.blob")


def build_world():
    """One kernel, two domains, raw/general/specialized counter objects."""
    kernel = Kernel()
    server = kernel.create_domain("server")
    client = kernel.create_domain("client")
    for domain in (server, client):
        SubcontractRegistry(domain).register_many(standard_subcontracts())

    general_module = compile_idl(COUNTER_IDL, "p1_general")
    special_module = compile_idl(COUNTER_IDL, "p1_special")
    specialize(special_module, "counter", "singleton")

    def exported(module):
        binding = module.binding("counter")
        return ship(
            kernel,
            server,
            client,
            SingletonServer(server).export(CounterImpl(), binding),
            binding,
        )

    general_obj = exported(general_module)
    special_obj = exported(special_module)

    impl = CounterImpl()

    def raw_handler(request):
        reply = MarshalBuffer(kernel)
        reply.put_int32(impl.add(request.get_int32()))
        return reply

    raw_id = kernel.create_door(server, raw_handler, label="p1-raw")
    raw_door = kernel.attach_door_id(client, kernel.detach_door_id(server, raw_id))

    def raw_call(n: int = 1) -> int:
        buffer = MarshalBuffer(kernel)
        kernel.clock.charge("memory_copy_byte", 5)
        buffer.put_int32(n)
        reply = kernel.door_call(client, raw_door, buffer)
        return reply.get_int32()

    return kernel, raw_call, general_obj, special_obj


def best_of(fn, rounds: int) -> float:
    """Best single-call wall time in microseconds over ``rounds`` samples."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best * 1e6
