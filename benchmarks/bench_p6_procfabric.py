"""P6 — process-fabric scaling bench (PR 6's multiprocess tentpole).

Two questions:

1. **Does the default transport pay anything for the new one existing?**
   Nothing measurable: transport selection is construction-time
   (``Environment(transport=...)``) and the process fabric is not even
   imported on the sim path.  The default transport's general-stub
   simulated time stays *bit-for-bit* the pre-P6 figure (asserted on
   every run against :data:`PRE_PROCFABRIC_GENERAL_SIM_US`).

2. **Is wall throughput a multi-core number?**  Every other journey is
   a single-process, single-core number by construction.  The scaling
   legs drive CPU-bound general-stub calls through 1 / 2 / 4 worker
   processes (one supervisor thread per worker, all released by a
   barrier) and report aggregate wall calls/sec.  On a runner with >= 4
   cores the 1 -> 4 ratio must reach :data:`SCALING_GATE_1_TO_4` (2.5x);
   on smaller machines the legs still run and the ratio is recorded, but
   the gate is not asserted — real parallelism cannot be demonstrated on
   hardware that has none, and the result records the core count so the
   claim is honest.

Wall throughput here is deliberately *wall*, not simulated: each worker
process runs its own sim clock, and the thing PR 6 adds is precisely the
number the simulated fabric could never produce.  Wall time per call is
the benchmark suite's job (``python -m benchmarks.suite``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from benchmarks.conftest import best_of, build_world, sim_us
from repro.idl.compiler import compile_idl
from repro.runtime.env import Environment
from repro.subcontracts.singleton import SingletonServer

#: general-stub sim-us/call recorded by the PRE-P6 tree (the sim hot path
#: is untouched by the process fabric, so the deterministic clock must
#: reproduce it bit-for-bit).
PRE_PROCFABRIC_GENERAL_SIM_US = 111.61000000010245

#: on a runner with >= 4 cores, 4-worker aggregate wall calls/sec must
#: reach this multiple of the 1-worker figure
SCALING_GATE_1_TO_4 = 2.5

WORKER_COUNTS = (1, 2, 4)

#: LCG spin iterations per call — enough CPU work (~hundreds of wall-µs)
#: that the worker processes, not the supervisor's marshalling, dominate
GRIND_ITERS = 4000

GRINDER_IDL = """
interface grinder {
    int32 grind(int32 iters);
}
"""

grinder_module = compile_idl(GRINDER_IDL, "p6_grinder")


class GrindImpl:
    """CPU-bound worker payload: a pure-python LCG spin."""

    def grind(self, iters: int) -> int:
        acc = 1
        for _ in range(iters):
            acc = (acc * 1103515245 + 12345) % 2147483647
        return acc


def export_grinder(env, index):
    server = env.create_domain("w", "server")
    obj = SingletonServer(server).export(
        GrindImpl(), grinder_module.binding("grinder")
    )
    return {"grinder": obj}


def throughput_leg(
    workers: int, calls_per_worker: int = 300, iters: int = GRIND_ITERS
) -> dict:
    """Aggregate wall calls/sec of general-stub calls across ``workers``
    real OS processes, one driving thread per worker."""
    env = Environment(latency_us=0.0, transport="proc", seed=11)
    fabric = env.install_procfabric(export_grinder, workers=workers)
    try:
        client = env.create_domain("m0", "client")
        binding = grinder_module.binding("grinder")
        proxies = [
            fabric.bind(client, "grinder", binding, worker=i)
            for i in range(workers)
        ]
        for proxy in proxies:  # warm both sides (pools, import graphs)
            proxy.grind(10)

        barrier = threading.Barrier(workers + 1)

        def drive(proxy):
            barrier.wait()
            for _ in range(calls_per_worker):
                proxy.grind(iters)

        threads = [
            threading.Thread(target=drive, args=(proxy,)) for proxy in proxies
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed_s = time.perf_counter() - started
        calls = workers * calls_per_worker
        return {
            "workers": workers,
            "calls": calls,
            "grind_iters": iters,
            "elapsed_s": round(elapsed_s, 4),
            "wall_calls_per_s": round(calls / elapsed_s, 1),
            "wall_us_per_call": round(1e6 * elapsed_s / calls, 2),
        }
    finally:
        env.uninstall_procfabric()


def run(
    rounds: int = 20000,
    warmup: int = 2000,
    calls_per_worker: int = 300,
    worker_counts: tuple = WORKER_COUNTS,
) -> dict:
    """Run the P6 process-fabric bench; returns the measurement dict."""
    kernel, _, general, _ = build_world()
    for _ in range(warmup):
        general.total()
    sim_default = min(sim_us(kernel, general.total) for _ in range(5))

    results = {
        "rounds": rounds,
        "cores": len(os.sched_getaffinity(0)),
        "default_transport_general_wall_us": round(best_of(general.total, rounds), 2),
        "default_transport_general_sim_us": sim_default,
        "scaling": [
            throughput_leg(workers, calls_per_worker) for workers in worker_counts
        ],
    }

    # -- deterministic invariant (machine-independent) ------------------

    # The default transport is byte-identical behaviour: sim time matches
    # the pre-P6 record bit-for-bit (the procfabric is never imported on
    # this path, let alone charged for).
    assert abs(sim_default - PRE_PROCFABRIC_GENERAL_SIM_US) < 1e-6, (
        f"default-transport sim time drifted: {sim_default} != pre-P6 "
        f"record {PRE_PROCFABRIC_GENERAL_SIM_US}"
    )

    # -- the scaling gate (hardware-conditional) ------------------------

    by_workers = {leg["workers"]: leg for leg in results["scaling"]}
    lo = min(by_workers)
    hi = max(by_workers)
    ratio = (
        by_workers[hi]["wall_calls_per_s"] / by_workers[lo]["wall_calls_per_s"]
    )
    results["scaling_ratio"] = round(ratio, 2)
    results["scaling_span"] = f"{lo}->{hi} workers"
    results["scaling_gate"] = SCALING_GATE_1_TO_4
    checked = results["cores"] >= 4 and lo == 1 and hi == 4
    results["scaling_gate_checked"] = checked
    if checked:
        assert ratio >= SCALING_GATE_1_TO_4, (
            f"process-fabric scaling gate failed on a {results['cores']}-core "
            f"runner: {by_workers[1]['wall_calls_per_s']} -> "
            f"{by_workers[4]['wall_calls_per_s']} calls/s "
            f"({ratio:.2f}x < {SCALING_GATE_1_TO_4}x)"
        )
    return results


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def bench_p6_shape_and_record(record):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the process fabric requires the fork start method")
    results = run(
        rounds=2000, warmup=500, calls_per_worker=40, worker_counts=(1, 2)
    )
    record(
        "P6",
        f"default transport general: "
        f"{results['default_transport_general_wall_us']:8.2f} wall-us/call "
        f"(best); sim {results['default_transport_general_sim_us']:.2f} "
        f"sim-us/call == pre-P6 record (asserted)",
    )
    for leg in results["scaling"]:
        record(
            "P6",
            f"procfabric @ {leg['workers']} worker(s): "
            f"{leg['wall_calls_per_s']:8.1f} wall calls/s "
            f"({leg['wall_us_per_call']:.0f} wall-us/call, "
            f"{leg['calls']} calls)",
        )
    record(
        "P6",
        f"scaling {results['scaling_span']}: {results['scaling_ratio']:.2f}x "
        f"on {results['cores']} core(s) "
        f"(gate >= {results['scaling_gate']}x "
        f"{'checked' if results['scaling_gate_checked'] else 'recorded only: needs a 4-core runner'})",
    )
