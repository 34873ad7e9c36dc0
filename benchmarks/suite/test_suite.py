"""Checks on the benchmark itself.  Not collected by tier-1; run with

    PYTHONPATH=src python -m pytest --noconftest benchmarks/suite/test_suite.py -q

(``--noconftest`` keeps the old benches' ``benchmarks/conftest.py`` out:
loading it resets ``benchmarks/results.txt``.)
"""

from __future__ import annotations

import pytest

from benchmarks.suite import cli, spec
from benchmarks.suite.layers import _MISSING, Recorder
from benchmarks.suite.runner import run_block
from benchmarks.suite.workloads import WORKLOADS, make_workload

MINIATURE_OPS = 500


def _miniature(name: str, seed: int) -> dict:
    return cli.spawn_child(
        {
            "workload": name,
            "seed": seed,
            "ops_per_block": MINIATURE_OPS,
            "warmup_ops": MINIATURE_OPS,
            "measure": True,
            "traced": True,
        }
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_ops_and_no_failures(name):
    first, again, other = _miniature(name, 7), _miniature(name, 7), _miniature(name, 8)
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]
    for run in (first, again, other):
        assert run["failed"] == 0, run["problems"]
        assert run["attempted"] >= 3 * MINIATURE_OPS
    # what must repeat exactly for a seed does
    assert first["sim_us_per_call"] == again["sim_us_per_call"]
    # BENCHMARK.json lists the unbounded call_p99_us with the layers
    assert set(spec.PER_LAYER) == set(first["layers"]) | {"call_p99_us"}
    for metric in first["layers"]:
        if metric.endswith(".py_calls_per_op"):
            assert first["layers"][metric] == again["layers"][metric], metric


def test_traced_twin_shares_the_op_list():
    assert _miniature("local_call", 7)["digest"] == _miniature("local_call_traced", 7)["digest"]


def test_bypass_and_exercise_pairs():
    local = _miniature("local_call", 7)["layers"]
    for metric in (
        "net.fabric.carries_per_op",
        "net.netserver.calls_per_op",
        "net.procfabric.roundtrips_per_op",
        "marshal.envelope.frames_per_op",
        "runtime.saga.journal_writes_per_op",
        "services.stable.commits_per_op",
        "services.cachemgr.hit_share",
        "obs.tracer.spans_per_op",
    ):
        assert local[metric] == 0, metric
    assert local["core.stubs.calls_per_op"] == 1
    assert _miniature("remote_kv", 7)["layers"]["net.fabric.carries_per_op"] > 0
    assert _miniature("local_call_traced", 7)["layers"]["obs.tracer.spans_per_op"] > 0
    assert _miniature("proc_call", 7)["layers"]["net.procfabric.roundtrips_per_op"] == 1


@pytest.mark.parametrize("name", ["local_call", "remote_kv", "saga_transfer"])
def test_wrappers_are_removed_by_identity(name):
    workload = make_workload(name, 7)
    workload.build()
    try:
        ops = workload.gen_ops(50)
        recorder = Recorder()
        recorder.install(workload)
        installed = list(recorder._undo)
        assert installed
        for owner, attr, original in installed:
            assert vars(owner)[attr] is not original
        failed, _ = run_block(workload.bind(ops), workload.expect(ops), [0] * len(ops))
        recorder.restore()
        assert failed == 0 and recorder.spans
        for owner, attr, original in installed:
            assert vars(owner).get(attr, _MISSING) is original, (owner, attr)
    finally:
        workload.close()


def test_benchmark_json_names_the_workloads():
    assert list(spec.WHY) == list(WORKLOADS)
