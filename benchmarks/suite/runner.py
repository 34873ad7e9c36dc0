"""One workload in one fresh process: set-up, warm-up, timed blocks,
then (on request) the traced and counted passes.

The parent stamps ``spawned_ns`` (``time.monotonic_ns``, system-wide on
Linux) just before it starts this process; ``setup_s`` runs from that
stamp to the first timed op, so it covers interpreter start, imports,
IDL compilation, world build, preload, op generation and warm-up.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from time import perf_counter_ns

from benchmarks.suite import spec
from benchmarks.suite.layers import PY_CALL_LAYERS, Recorder, count_py_calls
from benchmarks.suite.workloads import make_workload, pin_to_first_cpu

__all__ = ["run_child", "host_calibration_us"]

_RAISED = object()


def run_block(calls, expected, lat) -> tuple[int, int]:
    """The closed loop: one synchronous caller, every op timed.

    The reply is compared with the reference model's value right after
    the op's clock stops, so a 64 KiB reply is checked and dropped
    instead of being kept for the whole block.  Returns the number of
    ops that raised or disagreed with the model, and the wall time of
    the whole loop in ns.
    """
    now = perf_counter_ns
    bad = 0
    i = 0
    start = now()
    for fn, args in calls:
        t0 = now()
        try:
            result = fn(*args)
        except Exception:
            result = _RAISED
        lat[i] = now() - t0
        if result != expected[i]:
            bad += 1
        i += 1
    return bad, now() - start


def host_calibration_us() -> float:
    """A fixed pure-Python loop, so rows from different boxes can be put
    in ratio; the median of five."""

    def loop() -> float:
        t0 = perf_counter_ns()
        x = 0
        for i in range(200_000):
            x += i * i % 7
        return (perf_counter_ns() - t0) / 1e3

    return statistics.median(loop() for _ in range(5))


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _block_stats(lat, count: int, head: int, wall_ns: int) -> dict:
    ordered = sorted(lat[:count])
    head_sorted = sorted(lat[:head])
    return {
        "p50_us": ordered[count // 2] / 1e3,
        "p99_us": ordered[min(count - 1, int(count * 0.99))] / 1e3,
        # the loop's own timing and reply check (~0.3 us an op) included
        "calls_per_s": count / (wall_ns / 1e9),
        "head_p50_us": head_sorted[head // 2] / 1e3,
        "head_mean_us": sum(head_sorted) / head / 1e3,
    }


def measure_blocks(workload, ops, calls, lat):
    """Replay the op list ``spec.BLOCKS`` times; returns (per-block
    statistics, failed ops, mismatches)."""
    count = len(ops)
    head = min(count, spec.TRACED_OPS)
    clock = workload.clock
    blocks, problems = [], []
    failed = 0
    for _ in range(spec.BLOCKS):
        expected = workload.expect(ops)
        gc.collect()
        sim0 = clock.now_us
        bad, wall_ns = run_block(calls, expected, lat)
        sim_us = clock.now_us - sim0
        failed += bad
        stats = _block_stats(lat, count, head, wall_ns)
        stats["sim_us"] = sim_us
        blocks.append(stats)
        problems += workload.after_block(count)
    return blocks, failed, problems


def run_child(cfg: dict) -> dict:
    """Run one workload as configured by the parent; returns the result
    document (also what ``--child`` prints as its last line)."""
    cpu = pin_to_first_cpu()
    workload = make_workload(cfg["workload"], cfg["seed"])
    workload.build()
    count = cfg["ops_per_block"]
    ops = workload.gen_ops(count)
    digest = workload.digest(ops)
    calls = workload.bind(ops)
    # distinct ints from the start: every store then frees one, in the
    # first block as in the last
    lat = list(range(1 << 40, (1 << 40) + max(count, cfg["warmup_ops"])))
    problems: list[str] = []
    try:
        warm = [j % count for j in range(cfg["warmup_ops"])]
        failed, _ = run_block(
            [calls[j] for j in warm], workload.expect([ops[j] for j in warm]), lat
        )
        workload.begin_measure()
        setup_s = (time.monotonic_ns() - cfg["spawned_ns"]) / 1e9
        result = {
            "workload": workload.name,
            "seed": cfg["seed"],
            "digest": digest,
            "ops_per_block": count,
            "pinned_cpu": cpu,
            "setup_s": setup_s,
        }
        if not cfg["measure"]:
            return result

        blocks, bad, problems = measure_blocks(workload, ops, calls, lat)
        failed += bad
        attempted = cfg["warmup_ops"] + count * len(blocks)
        result["blocks"] = blocks
        result["sim_us_per_call"] = sum(b["sim_us"] for b in blocks) / (count * len(blocks))
        rss = _rss_mb(resource.RUSAGE_SELF)

        if cfg["traced"]:
            layers, extras, extra_ops, extra_failed = _layer_passes(
                workload, ops, lat, blocks, problems, cfg.get("spans_path")
            )
            result["layers"] = layers
            result.update(extras)
            attempted += extra_ops
            failed += extra_failed
        problems += workload.final_check()
    finally:
        workload.close()
    # the worker process is reaped by close(): its peak joins ours
    result["peak_rss_mb"] = rss + _rss_mb(resource.RUSAGE_CHILDREN)
    result["attempted"] = attempted
    result["failed"] = failed + len(problems)
    result["problems"] = problems
    return result


def _layer_passes(workload, ops, lat, blocks, problems, spans_path):
    """The traced pass, then the counted pass; returns the per-layer
    metrics, the passes' sizes and wrapper calibration, and how many ops
    they attempted / failed."""
    count = min(len(ops), spec.TRACED_OPS)
    head = ops[:count]
    clock = workload.clock
    recorder = Recorder()

    expected = workload.expect(head)
    before = workload.layer_counters()
    bytes_before = clock.tally().get("marshal_byte", 0.0)
    recorder.install(workload)
    try:
        # bound after the wrappers are in, so the stub methods are the
        # wrapped ones
        calls = workload.bind(head)
        gc.collect()
        # Hundreds of thousands of retained span tuples make every full
        # collection slower as the pass goes on; keep the collector out.
        gc.disable()
        failed, _ = run_block(calls, expected, lat)
    finally:
        gc.enable()
        recorder.restore()
    traced_p50_us = sorted(lat[:count])[count // 2] / 1e3
    traced_ns = sum(lat[:count])
    after = workload.layer_counters()
    bytes_after = clock.tally().get("marshal_byte", 0.0)
    problems += workload.after_block(count)
    if spans_path:
        recorder.write_jsonl(spans_path)

    untraced_p50 = statistics.median(b["head_p50_us"] for b in blocks)
    untraced_mean = statistics.median(b["head_mean_us"] for b in blocks)
    delta = {key: after[key] - before[key] for key in after}
    agg = recorder.aggregate(untraced_mean * 1e3 * count)
    layers, functions = agg["layers"], agg["functions"]

    def self_us(layer: str) -> float:
        return layers.get(layer, {}).get("self_ns", 0.0) / count / 1e3

    def calls_of(*names: str) -> float:
        return sum(functions.get(n, {}).get("calls", 0) for n in names) / count

    def layer_calls(layer: str) -> float:
        return layers.get(layer, {}).get("calls", 0) / count

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    acquires = calls_of("Domain.acquire_buffer")
    pool_misses = len(
        recorder.calls_under("MarshalBuffer.__init__", "Domain.acquire_buffer")
    ) / count
    # door calls a client invoke made beyond its first: what the
    # subcontract re-sent (failover, reconnect)
    retries = sum(
        n - 1 for n in recorder.calls_under("Kernel.door_call", ".invoke")
    ) / count
    invokes = sum(
        f["calls"] for name, f in functions.items()
        if f["layer"] == "subcontracts" and name.endswith(".invoke")
    ) / count
    roundtrips = calls_of("ProcFabric.call_raw")
    tracer_spans = calls_of("Span.end")
    lookups = delta.get("idem.hits", 0) + delta.get("idem.misses", 0)
    cache_lookups = delta.get("cachemgr.hits", 0) + delta.get("cachemgr.misses", 0)

    m = {
        "core.stubs.self_us_per_op": self_us("core.stubs"),
        "core.stubs.calls_per_op": layer_calls("core.stubs"),
        "marshal.buffer.self_us_per_op": self_us("marshal.buffer"),
        "marshal.buffer.calls_per_op": layer_calls("marshal.buffer"),
        "marshal.buffer.bytes_per_op": (bytes_after - bytes_before)
        / clock.model.marshal_byte_us / count,
        "marshal.buffer.constructed_per_op": calls_of("MarshalBuffer.__init__"),
        "marshal.buffer.pool_hit_share": share(acquires - pool_misses, acquires),
        "marshal.envelope.self_us_per_op": self_us("marshal.envelope"),
        "marshal.envelope.frames_per_op": layer_calls("marshal.envelope"),
        "subcontracts.self_us_per_op": self_us("subcontracts"),
        "subcontracts.invokes_per_op": invokes,
        "subcontracts.retries_per_op": retries,
        "kernel.nucleus.self_us_per_op": self_us("kernel.nucleus"),
        "kernel.nucleus.door_calls_per_op": layer_calls("kernel.nucleus"),
        "kernel.clock.self_us_per_op": self_us("kernel.clock"),
        "kernel.clock.charges_per_op": layer_calls("kernel.clock"),
        "idl.skeleton.self_us_per_op": self_us("idl.skeleton"),
        "handler.self_us_per_op": self_us("handler"),
        "net.fabric.self_us_per_op": self_us("net.fabric"),
        "net.fabric.carries_per_op": layer_calls("net.fabric"),
        "net.netserver.self_us_per_op": self_us("net.netserver"),
        "net.netserver.calls_per_op": layer_calls("net.netserver"),
        "net.procfabric.roundtrip_us_per_op": sum(
            functions.get(n, {}).get("self_ns", 0.0)
            for n in ("ProcFabric.call_raw", "procfabric.send_envelope")
        ) / count / 1e3,
        "net.procfabric.roundtrips_per_op": roundtrips,
        "net.procfabric.ring_share": share(
            delta.get("procfabric.ring_payloads", 0), delta.get("procfabric.calls", 0)
        ),
        "services.cachemgr.hit_share": share(delta.get("cachemgr.hits", 0), cache_lookups),
        "services.cachemgr.self_us_per_op": self_us("services.cachemgr"),
        "services.stable.commits_per_op": delta.get("stable.commits", 0) / count,
        "services.stable.self_us_per_op": self_us("services.stable"),
        "runtime.saga.self_us_per_op": self_us("runtime.saga"),
        "runtime.saga.journal_writes_per_op": delta.get("saga.journal_writes", 0) / count,
        "runtime.idem.lookups_per_op": lookups / count,
        "runtime.idem.hit_share": share(delta.get("idem.hits", 0), lookups),
        "obs.tracer.self_us_per_op": self_us("obs.tracer"),
        "obs.tracer.spans_per_op": tracer_spans,
        "obs.tracer.dropped_share": share(
            delta.get("tracer.dropped", 0), tracer_spans * count
        ),
        "obs.windows.self_us_per_op": self_us("obs.windows"),
        "obs.windows.inserts_per_op": delta.get("windows.recorded", 0) / count,
        "trace.overhead_share": traced_p50_us / untraced_p50 - 1.0,
        "trace.coverage_share": agg["recorded_ns"] / traced_ns,
        "host.calibration_us": host_calibration_us(),
    }

    counted = min(len(ops), spec.COUNTED_OPS)
    head = ops[:counted]
    expected = workload.expect(head)
    calls = workload.bind(head)
    bad = []
    py_calls = count_py_calls(lambda: bad.append(run_block(calls, expected, lat)[0]))
    problems += workload.after_block(counted)
    for layer in PY_CALL_LAYERS + ("total",):
        m[f"{layer}.py_calls_per_op"] = py_calls[layer] / counted
    extras = {"traced_ops": count, "counted_ops": counted, "wrapper_ns": agg["wrapper_ns"]}
    return m, extras, count + counted, failed + bad[0]


def child_main(cfg_json: str) -> int:
    result = run_child(json.loads(cfg_json))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0
