"""E1 — Section 9.3: the invocation overhead of subcontract.

The paper: "Each object invocation always requires an additional two
indirect procedure calls from the stubs into the client subcontract and
typically requires a third indirect call from the server-side subcontract
into the server stubs ... we estimate that these costs add less than 2
microseconds (on a SPARCstation 2) to the costs for a minimal remote
call."

Rows regenerated (as wall-time benchmark groups and simulated-us
records):

    direct local call           (no IPC at all)
    raw door RPC                (hand-written stubs, no subcontract)
    subcontract call            (full Figure-3 path)

Shape that must hold: door RPC >> local call; the subcontract layer adds
a small constant that is a small fraction of a minimal door call.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import CounterImpl, ship, sim_us
from repro.core.registry import SubcontractRegistry
from repro.kernel.nucleus import Kernel
from repro.marshal.buffer import MarshalBuffer
from repro.subcontracts import standard_subcontracts
from repro.subcontracts.singleton import SingletonServer


def _domain(kernel, name):
    domain = kernel.create_domain(name)
    registry = SubcontractRegistry(domain)
    registry.register_many(standard_subcontracts())
    return domain


@pytest.fixture
def world(counter_module):
    kernel = Kernel()
    server = _domain(kernel, "server")
    client = _domain(kernel, "client")
    binding = counter_module.binding("counter")

    impl = CounterImpl()

    # --- raw door RPC: hand-written "stubs", no subcontract anywhere.
    def raw_handler(request):
        reply = MarshalBuffer(kernel)
        n = request.get_int32()
        reply.put_int32(impl.add(n))
        return reply

    raw_door_server = kernel.create_door(server, raw_handler, label="raw")
    transit = kernel.detach_door_id(server, raw_door_server)
    raw_door = kernel.attach_door_id(client, transit)

    def raw_call(n: int) -> int:
        buffer = MarshalBuffer(kernel)
        buffer.put_int32(n)
        reply = kernel.door_call(client, raw_door, buffer)
        return reply.get_int32()

    # --- the full subcontract path.
    exported = SingletonServer(server).export(CounterImpl(), binding)
    subcontract_obj = ship(kernel, server, client, exported, binding)

    return kernel, impl, raw_call, subcontract_obj


@pytest.mark.benchmark(group="E1-invocation")
def bench_direct_local_call(benchmark, world):
    _, impl, _, _ = world
    benchmark(impl.add, 1)


@pytest.mark.benchmark(group="E1-invocation")
def bench_raw_door_rpc(benchmark, world):
    _, _, raw_call, _ = world
    benchmark(raw_call, 1)


@pytest.mark.benchmark(group="E1-invocation")
def bench_subcontract_call(benchmark, world):
    _, _, _, obj = world
    benchmark(obj.add, 1)


@pytest.mark.benchmark(group="E1-invocation")
def bench_e1_shape_and_record(benchmark, world, record):
    kernel, impl, raw_call, obj = world
    model = kernel.clock.model
    benchmark(obj.total)

    local = sim_us(kernel, lambda: impl.add(1))
    raw = min(sim_us(kernel, lambda: raw_call(1)) for _ in range(5))
    full = min(sim_us(kernel, lambda: obj.add(1)) for _ in range(5))
    added = full - raw

    record("E1", f"direct local call: {local:8.2f} sim-us")
    record("E1", f"raw door RPC:      {raw:8.2f} sim-us")
    record("E1", f"subcontract call:  {full:8.2f} sim-us")
    record("E1", f"subcontract adds:  {added:8.2f} sim-us "
                 f"({100 * added / raw:.1f}% of a minimal door call)")

    # Paper shape: door IPC dwarfs a local call.
    assert raw > 50 * local
    # Subcontract adds a small positive constant ...
    assert added > 0
    # ... dominated by the three indirect calls and the method-table hop,
    # and well under 10% of a minimal cross-domain call (the analogue of
    # "<2us on a call that costs O(100us)").
    assert added < 0.10 * raw
    floor = 3 * model.indirect_call_us + model.local_call_us
    assert added >= floor - 1e-9
