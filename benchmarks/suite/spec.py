"""The benchmark's names and sizes.

Workload rationales and every metric's name, unit, direction and bound
are stated once, in ``BENCHMARK.json`` at the repo root, and read from
there; the sizes of a run are the constants below.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    _CONTRACT = json.load(_handle)

#: workload name -> why it is in the suite
WHY = {w["name"]: w["why"] for w in _CONTRACT["workloads"]}
#: metric name -> {"unit", "better", "bound"}: what a user of the system
#: sees; the bound is the share of the parent's median a later PR may lose
END_TO_END = {m["name"]: m for m in _CONTRACT["end_to_end"]}
#: metric name -> {"unit", "better"}: single layers, no bound
PER_LAYER = {m["name"]: m for m in _CONTRACT["per_layer"]}

#: ``fail_share`` is reported by the suite's own command only: it is 0 at
#: baseline, the driver's contract takes no metric that can be 0 and reads
#: ``failed`` / ``attempted`` instead.
UNITS = {name: m["unit"] for name, m in (END_TO_END | PER_LAYER).items()} | {
    "fail_share": "share"
}

#: timed blocks in one run; a metric's value is the median over them
BLOCKS = 7
#: fewest ops replayed before the first timed block
WARMUP_OPS = 5_000
#: the workloads' block sizes are for this many timed seconds per run
FULL_SCALE_SECONDS = 10
#: ops in the traced pass (one short block: every span is kept in memory)
TRACED_OPS = 2_000
#: ops in the counted pass (sys.setprofile)
COUNTED_OPS = 1_000
#: fresh-process set-ups per run; setup_s is their median
SETUPS = 5
