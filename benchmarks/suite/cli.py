"""Command line of the benchmark suite.

Three ways in, one measurement path:

* ``python -m benchmarks.suite --seed N --out DIR`` — every workload,
  untraced blocks then traced and counted passes, ``DIR/result.json``
  plus ``DIR/<workload>.spans.jsonl``, and the table rendered from that
  file;
* ``... --workload W --seed N --seconds S --trace 0|1`` — the driver's
  contract: one workload, the last stdout line is one JSON object;
* ``... --selfcheck --out DIR`` — the suite against itself: two
  same-seed sets must agree within the benchmark's own bounds.

Each workload runs in its own fresh subprocess, stamped at spawn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from benchmarks.suite import spec
from benchmarks.suite.workloads import WORKLOADS

ROOT = spec.ROOT
CHILD_TIMEOUT_S = 170


# ----------------------------------------------------------------------
# running one workload
# ----------------------------------------------------------------------


def spawn_child(cfg: dict) -> dict:
    """Run one fresh workload process; returns its result document."""
    env = dict(os.environ)
    # A fixed hash seed keeps str-keyed dict layout identical run to run.
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cfg = dict(cfg, spawned_ns=time.monotonic_ns())
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "--child", json.dumps(cfg)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"workload {cfg['workload']!r} child exited {done.returncode}")
    return json.loads(done.stdout.strip().rsplit("\n", 1)[-1])


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, spans_path: str | None = None
) -> dict:
    """Set the workload up ``spec.SETUPS`` times in fresh processes (one
    of them goes on to measure) and assemble its metrics."""
    scale = seconds / spec.FULL_SCALE_SECONDS
    ops_per_block = max(1, round(WORKLOADS[name].block_ops * scale))
    cfg = {
        "workload": name,
        "seed": seed,
        "ops_per_block": ops_per_block,
        # A quarter of a block on the fast workloads: interpreter start and
        # imports are the part of set-up a noisy host inflates most (+50 %
        # for minutes), and a longer warm-up keeps them under half of setup_s.
        "warmup_ops": max(spec.WARMUP_OPS, ops_per_block // 4),
        "measure": False,
        "traced": False,
    }
    # Half of the set-up-only processes run before the measuring one and
    # half after it: one slow phase of the host then cannot cover them all.
    before = (spec.SETUPS - 1) // 2
    setups = [spawn_child(cfg)["setup_s"] for _ in range(before)]
    result = spawn_child(dict(cfg, measure=True, traced=traced, spans_path=spans_path))
    setups.append(result["setup_s"])
    setups += [spawn_child(cfg)["setup_s"] for _ in range(spec.SETUPS - 1 - before)]
    return assemble(result, setups)


def _metric(name: str, values, samples: int, value=None) -> dict:
    values = list(values)
    return {
        "value": statistics.median(values) if value is None else value,
        "unit": spec.UNITS[name],
        "min": min(values),
        "max": max(values),
        "samples": samples,
    }


def assemble(result: dict, setups: list[float]) -> dict:
    """Turn a child's raw blocks into named ``{value, unit, min, max,
    samples}`` metrics: the value is the median over the blocks."""
    blocks = result["blocks"]
    per_block = result["ops_per_block"]
    timed = per_block * len(blocks)
    sims = [b["sim_us"] / per_block for b in blocks]
    end_to_end = {
        "call_p50_us": _metric("call_p50_us", (b["p50_us"] for b in blocks), timed),
        "call_p99_us": _metric("call_p99_us", (b["p99_us"] for b in blocks), timed),
        "calls_per_s": _metric("calls_per_s", (b["calls_per_s"] for b in blocks), timed),
        "sim_us_per_call": _metric(
            "sim_us_per_call", sims, timed,
            value=result["sim_us_per_call"],
        ),
        "fail_share": _metric(
            "fail_share", [result["failed"] / result["attempted"]], result["attempted"]
        ),
        "setup_s": _metric("setup_s", setups, len(setups)),
        "peak_rss_mb": _metric("peak_rss_mb", [result["peak_rss_mb"]], 1),
    }
    per_layer = {
        name: _metric(
            name,
            [value],
            result["counted_ops" if name.endswith(".py_calls_per_op") else "traced_ops"],
        )
        for name, value in result.get("layers", {}).items()
    }
    return {
        "workload": result["workload"],
        "why": spec.WHY[result["workload"]],
        "seed": result["seed"],
        "digest": result["digest"],
        "ops_per_block": per_block,
        "blocks": len(blocks),
        "pinned_cpu": result["pinned_cpu"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        # every block run, in run order
        "per_block": blocks,
        # empty-function wrapper cost (ns) and the factor that made the
        # layer self times sum to the untraced time
        "trace_calibration": result.get("wrapper_ns"),
    }


# ----------------------------------------------------------------------
# the whole suite
# ----------------------------------------------------------------------


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_suite(seed: int, seconds: float, out_dir: str) -> str:
    """Run every workload; writes and returns ``out_dir/result.json``."""
    os.makedirs(out_dir, exist_ok=True)
    workloads = {}
    for name in WORKLOADS:
        spans = os.path.join(out_dir, f"{name}.spans.jsonl")
        record = run_workload(name, seed, seconds, True, spans)
        record["spans"] = spans
        workloads[name] = record
    first = next(iter(workloads.values()))
    document = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": first["pinned_cpu"],
        "seed": seed,
        "host.calibration_us": first["per_layer"]["host.calibration_us"]["value"],
        "workloads": workloads,
    }
    path = os.path.join(out_dir, "result.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=1)
    return path


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def render(doc: dict) -> str:
    """The printed table, from a loaded result file — never from the
    run's own memory, so the two cannot disagree."""
    lines = [
        f"commit {doc['commit']}  python {doc['python']}  nproc {doc['nproc']}  "
        f"pinned_cpu {doc['pinned_cpu']}  seed {doc['seed']}  "
        f"host.calibration_us {doc['host.calibration_us']:.1f}"
    ]
    for name, record in doc["workloads"].items():
        lines.append("")
        lines.append(
            f"== {name}  ({record['blocks']} blocks x {record['ops_per_block']} ops, "
            f"op list sha256 {record['digest']})"
        )
        for section in ("end_to_end", "per_layer"):
            for metric, m in record[section].items():
                lines.append(
                    f"  {metric:<38} {m['value']:>14.4f} {m['unit']:<6}"
                    f" min {m['min']:.4f} max {m['max']:.4f} n={m['samples']}"
                )
        for problem in record["problems"]:
            lines.append(f"  MISMATCH: {problem}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# selfcheck
# ----------------------------------------------------------------------


def selfcheck(seed: int, seconds: float, out_dir: str) -> int:
    """Two same-seed sets and one other-seed set of the same code."""
    a, b, c = (
        load(run_suite(run_seed, seconds, os.path.join(out_dir, f"set_{label}")))[
            "workloads"
        ]
        for label, run_seed in (("a", seed), ("b", seed), ("c", seed + 1))
    )
    bad = 0
    print(f"{'workload':<18} {'metric':<24} {'set a':>12} {'set b':>12} {'spread':>9} {'bound':>9}")
    for name in WORKLOADS:
        for metric in a[name]["end_to_end"]:
            va = a[name]["end_to_end"][metric]["value"]
            vb = b[name]["end_to_end"][metric]["value"]
            if metric == "fail_share":  # 0 at baseline; counted as failed below
                continue
            spread = abs(va - vb) / va
            # call_p99_us carries no bound (BENCHMARK.json lists it with
            # the layers): its spread is printed, never failed on
            bound = spec.END_TO_END.get(metric, {}).get("bound", float("inf"))
            ok = spread <= bound
            bad += not ok
            print(
                f"{name:<18} {metric:<24} {va:>12.4f} {vb:>12.4f} {spread:>9.4f} {bound:>9.4f}"
                + ("" if ok else "  OVER BOUND")
            )
        exact = [("end_to_end", "sim_us_per_call")] + [
            ("per_layer", m) for m in spec.PER_LAYER if m.endswith(".py_calls_per_op")
        ]
        for section, metric in exact:
            va, vb = a[name][section][metric]["value"], b[name][section][metric]["value"]
            if va != vb:
                bad += 1
                print(f"{name:<18} {metric:<24} {va!r} != {vb!r}  MUST REPEAT EXACTLY")
        if a[name]["digest"] != b[name]["digest"] or a[name]["digest"] == c[name]["digest"]:
            bad += 1
            print(f"{name:<18} op-list digest does not follow the seed")
        for label, doc in zip("abc", (a, b, c)):
            coverage = doc[name]["per_layer"]["trace.coverage_share"]["value"]
            failed = doc[name]["failed"]
            if not 0.9 <= coverage <= 1.1:
                bad += 1
                print(f"{name:<18} set {label}: trace.coverage_share {coverage:.3f} outside 0.9-1.1")
            if failed:
                bad += 1
                print(f"{name:<18} set {label}: {failed} failed ops/checks")
    print("selfcheck " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


# ----------------------------------------------------------------------
# entry
# ----------------------------------------------------------------------


def contract_run(name: str, seed: int, seconds: float, trace: bool) -> int:
    """The driver's contract: one workload, one JSON object last."""
    record = run_workload(name, seed, seconds, trace)
    section = record["end_to_end"] | record["per_layer"]
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    for problem in record["problems"]:
        print(f"MISMATCH: {problem}")
    print(f"{name}: op list sha256 {record['digest']}, {record['ops_per_block']} ops/block")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    metric: {"value": section[metric]["value"], "unit": section[metric]["unit"]}
                    for metric in wanted
                },
            }
        )
    )
    return 0 if record["failed"] == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.FULL_SCALE_SECONDS,
                        help="timed seconds per workload the block sizes are scaled to")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and print the driver's JSON line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--out", help="directory for result.json and span files")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        from benchmarks.suite.runner import child_main

        return child_main(args.child)
    if args.workload:
        return contract_run(args.workload, args.seed, args.seconds, bool(args.trace))
    if not args.out:
        parser.error("--out DIR is required (results are never written inside the repo)")
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds, args.out)
    doc = load(run_suite(args.seed, args.seconds, args.out))
    print(render(doc))
    failed = sum(record["failed"] for record in doc["workloads"].values())
    if failed:
        print(f"{failed} failed ops/checks")
    return 1 if failed else 0
