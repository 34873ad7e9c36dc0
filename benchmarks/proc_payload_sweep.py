"""Process-fabric latency by payload size: the large-payload window.

``proc_call`` in ``benchmarks/suite`` sends at most 16 KiB, so it cannot
see what happens to a door call once its payload outgrows the socket
buffer.  This script can: one worker, supervisor and worker pinned to
one CPU, and for each size a one-way ``absorb`` and a there-and-back
``echo``, timed in short blocks taken round-robin over the sizes so
drift lands on all of them alike.  It prints the p50 per size as JSON.

It uses only calls every commit since the process fabric landed has, so
the same file measures two trees — which is how the table in
``docs/process-fabric.md`` ("Why there is no shared-memory ring") was
made::

    git archive <commit> | tar -x -C /tmp/other
    PYTHONPATH=/tmp/other/src python benchmarks/proc_payload_sweep.py
    PYTHONPATH=src            python benchmarks/proc_payload_sweep.py

Alternate which tree runs first and compare medians over several runs;
one run on a small VM is not a measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import statistics
import time

from repro.idl.compiler import compile_idl
from repro.runtime.env import Environment
from repro.subcontracts.singleton import SingletonServer

SIZES = (4 << 10, 16 << 10, 128 << 10, 256 << 10, 450_000)

#: consecutive calls of one (op, size) before moving on: long enough that
#: the one call paying for the previous block's buffers cannot move a median
BLOCK = 50

MODULE = compile_idl(
    "interface blob { bytes echo(bytes data); void absorb(bytes data); }",
    module_name="proc_payload_sweep",
)


class BlobImpl:
    def echo(self, data: bytes) -> bytes:
        return data

    def absorb(self, data: bytes) -> None:
        return None


def _bootstrap(env: Environment, index: int) -> dict:
    domain = env.create_domain("worker-machine", "server")
    return {"blob": SingletonServer(domain).export(BlobImpl(), MODULE.binding("blob"))}


def sweep(calls: int, sizes: tuple[int, ...]) -> dict:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # the worker inherits it
    env = Environment(transport="proc")
    fabric = env.install_procfabric(_bootstrap, workers=1)
    try:
        client = env.create_domain("supervisor", "client")
        blob = fabric.bind(client, "blob", MODULE.binding("blob"))
        payloads = [bytes(size) for size in sizes]
        samples = {(op, size): [] for op in ("absorb", "echo") for size in sizes}
        clock = time.perf_counter
        for round_no in range(-1, calls // BLOCK):  # round -1 is warm-up
            for size, payload in zip(sizes, payloads):
                for op, call in (("absorb", blob.absorb), ("echo", blob.echo)):
                    for _ in range(BLOCK):
                        started = clock()
                        call(payload)
                        elapsed = clock() - started
                        if round_no >= 0:
                            samples[op, size].append(elapsed)
        sndbuf = fabric._handles[0].sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
    finally:
        env.uninstall_procfabric()
    return {
        "calls_per_size": calls // BLOCK * BLOCK,
        "so_sndbuf": sndbuf,
        "p50_us": {
            f"{op}_{size}": round(statistics.median(values) * 1e6, 1)
            for (op, size), values in samples.items()
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=1500, help="timed calls per size")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    args = parser.parse_args()
    print(json.dumps(sweep(args.calls, tuple(args.sizes))))


if __name__ == "__main__":
    main()
