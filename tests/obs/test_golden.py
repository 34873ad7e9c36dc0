"""Golden output of one fixed traced world.

The tracer's record path is performance-tuned; this test pins what it
records.  One world makes a local call (general and fused stubs), a
two-machine sim-fabric call, a call whose handler raises, and a
subcontract event with a ``*_us`` detail, enough times to roll the
windowed series over its retention, then crashes a server mid-call.
The metrics snapshot, the windows snapshot and a projection of every
span must equal ``fixtures/golden_trace.json`` exactly.

Door uids are process-global, so the projection renumbers them (in
attrs, event details, names and error messages) in order of first
appearance.  To regenerate the fixture (only when the
recorded output is meant to change)::

    PYTHONPATH=src python -m tests.obs.test_golden --write
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from repro.idl.compiler import compile_idl
from repro.idl.specialize import specialize
from repro.runtime.env import Environment
from repro.subcontracts.singleton import SingletonServer
from tests.obs.conftest import ship

FIXTURE = Path(__file__).parent / "fixtures" / "golden_trace.json"

GOLDEN_IDL = """
interface gauge {
    int32 add(int32 n);
    int32 total();
}
"""


class GaugeImpl:
    """Raises on a negative step; emits a subcontract event on every add."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.value = 0

    def add(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"negative step {n}")
        self.tracer.event("gauge.step", subcontract="singleton", wait_us=2.5 * n, step=n)
        self.value += n
        return self.value

    def total(self) -> int:
        return self.value


def golden_world() -> dict:
    """Run the fixed world; returns its metrics, windows and spans."""
    env = Environment()
    plain = compile_idl(GOLDEN_IDL, module_name="tests.golden.plain").binding("gauge")
    fused_module = compile_idl(GOLDEN_IDL, module_name="tests.golden.fused")
    specialize(fused_module, "gauge", "singleton")
    fused = fused_module.binding("gauge")

    server = env.create_domain("server-m", "server")
    client = env.create_domain("client-m", "client")
    neighbour = env.create_domain("server-m", "neighbour")
    doomed = env.create_domain("server-m", "doomed")
    tracer = env.install_tracer()
    impl = GaugeImpl(tracer)
    exported = SingletonServer(server).export(impl, plain)
    remote = ship(env, server, client, exported, plain)
    local = ship(env, server, neighbour, SingletonServer(server).export(impl, plain), plain)
    local_fused = ship(
        env, server, neighbour, SingletonServer(server).export(impl, fused), fused
    )
    gone = ship(env, doomed, neighbour, SingletonServer(doomed).export(impl, plain), plain)
    env.install_windows(window_us=400.0, retention=3)

    for step in range(1, 7):
        local.add(step)
        local_fused.total()
        remote.add(step)
        remote.total()
        try:
            (local if step % 2 else remote).add(-step)
        except Exception as exc:  # the handler's ValueError, re-raised client-side
            assert "negative step" in str(exc)
    env.install_chaos(seed=1).crash_mid_call_next(doomed)
    try:
        gone.total()
    except Exception as exc:  # the server died inside the door span
        assert "crash" in str(exc)
    return {
        "metrics": tracer.metrics.snapshot(),
        "windows": tracer.windows.snapshot(),
        "spans": _project(tracer.spans()),
        "now_us": env.kernel.clock.now_us,
    }


def _project(spans) -> list[dict]:
    """Every recorded field but wall time, with door uids renumbered."""
    doors: dict[int, int] = {}

    def door(uid: int) -> int:
        return doors.setdefault(uid, len(doors) + 1)

    def renumbered(fields: dict) -> dict:
        return {k: door(v) if k == "door" else v for k, v in fields.items()}

    def text(value: str | None) -> str | None:
        if value is None:
            return None
        return re.sub(r"(door ?#)(\d+)", lambda m: m[1] + str(door(int(m[2]))), value)

    out = []
    for span in spans:
        out.append(
            {
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": text(span.name),
                "category": span.category,
                "subcontract": span.subcontract,
                "domain": span.domain_name,
                "machine": span.machine_name,
                "start_sim_us": span.start_sim_us,
                "end_sim_us": span.end_sim_us,
                "status": span.status,
                "error_type": span.error_type,
                "error_message": text(span.error_message),
                "attrs": renumbered(span.attrs),
                "events": [renumbered(event) for event in span.events],
            }
        )
    return out


def _as_json(value) -> str:
    return json.dumps(value, indent=1, sort_keys=True)


def test_traced_world_records_the_golden_output():
    got = json.loads(_as_json(golden_world()))
    want = json.loads(FIXTURE.read_text())
    assert got["now_us"] == want["now_us"]
    assert got["metrics"] == want["metrics"]
    assert got["windows"] == want["windows"]
    assert len(got["spans"]) == len(want["spans"])
    for got_span, want_span in zip(got["spans"], want["spans"]):
        assert got_span == want_span


def test_golden_world_covers_what_it_claims():
    want = json.loads(FIXTURE.read_text())
    categories = {span["category"] for span in want["spans"]}
    assert {"invoke", "door", "handler", "skeleton", "fabric", "netserver"} <= categories
    failed = {span["category"] for span in want["spans"] if span["status"] == "error"}
    assert {"invoke", "door"} <= failed
    assert any(span["attrs"].get("fused") for span in want["spans"])
    assert any(
        key.endswith("_us") for span in want["spans"] for event in span["events"] for key in event
        if key != "ts_us"
    )
    assert want["windows"]["dropped_windows"] > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.obs.test_golden --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(_as_json(golden_world()) + "\n")
    print(f"wrote {FIXTURE}")
