"""Shape gates on the base call path that are not quiet-feature parity.

Paper §9.3 asks what the subcontract layer adds to a call and what
fused stubs save; ``test_quiet_features.py`` states that an idle feature
charges nothing.  The tests here keep the remaining deterministic
gates: the subcontract tax, the fused stub's saving, an uninstalled
feature leaving a fresh world's charges as they were, the default null
tracer charging nothing, the four race classes, a clean whole-program
springlint pass, and the SLO plane's building blocks producing output.
Only simulated time and structure are asserted, never wall time.
"""

from __future__ import annotations

from repro.kernel.nucleus import Kernel
from repro.obs.sketch import Sketch
from repro.obs.slo import SloEngine, SloPolicy
from repro.obs.tracer import NULL_TRACER
from repro.obs.windows import WindowedSeries
from repro.runtime import tsan
import tests.chaos.test_tsan_soak as tsan_soak
from tests.analysis.test_self_clean import src_findings
from tests.integration.test_quiet_features import World


def _installed_then_uninstalled(feature: str) -> None:
    """A fresh world that installed ``feature`` and took it out again
    before any call charges what a fresh world without it charges."""
    bare = World().sims()
    world = World()
    try:
        getattr(world.env, "install_" + feature)()
        getattr(world.env, "uninstall_" + feature)()
        assert world.sims() == bare
    finally:
        if tsan.active() is not None:
            tsan.uninstall_tsan()


def test_e1_smoke_subcontract_tax_is_small():
    sims = World().sims()
    general, raw = min(sims["general"]), min(sims["raw"])
    assert 0 < general - raw < 0.10 * raw


def test_e11_smoke_specialization_saves_indirect_calls():
    world = World()
    sims = world.sims()
    general, fused = min(sims["general"]), min(sims["fused"])
    assert fused < general
    assert general - fused >= 2 * world.kernel.clock.model.indirect_call_us - 1e-9


def test_p3_smoke_disabled_tracing_charges_zero_sim_time():
    # Every kernel boots with the null tracer: no path charges a span,
    # a trace event or a window probe.
    world = World()
    assert world.kernel.tracer is NULL_TRACER
    world.sims()
    clock = world.kernel.clock
    for path in world.paths.values():
        clock.reset_tally()
        path()
        charged = clock.tally()
        assert charged and not {"trace_span", "trace_event", "window_probe"} & set(charged)


def test_p4_smoke_uninstalled_chaos_charges_zero_sim_time():
    _installed_then_uninstalled("chaos")


def test_p5_smoke_uninstalled_admission_charges_zero_sim_time():
    _installed_then_uninstalled("admission")


def test_p7_smoke_uninstalled_tsan_charges_zero_sim_time():
    _installed_then_uninstalled("tsan")


def test_p7_smoke_race_classes_classify_deterministically():
    # The four canonical classes of ``TestRaceClasses``, each on a fresh
    # kernel, twice over: detection never depends on the schedule.
    classes = tsan_soak.TestRaceClasses()
    try:
        for _ in range(2):
            for name in (
                "test_unlocked_write_write",
                "test_lock_protected_but_disjoint_locksets",
                "test_missed_join_edge",
                "test_door_handoff_is_not_a_race",
            ):
                getattr(classes, name)(Kernel(), None)
    finally:
        if tsan.active() is not None:
            tsan.uninstall_tsan()


def test_p7_smoke_whole_program_springlint_is_clean():
    assert src_findings() == []


def test_p8_smoke_sketch_and_slo_micro_legs_ran():
    sketch = Sketch()
    seed = 0x9E3779B9
    for _ in range(1_000):
        seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF
        sketch.insert(1.0 + (seed % 1_000_000) / 100.0)
    assert sketch.snapshot()["buckets"]

    series = WindowedSeries(window_us=1_000.0, retention=8)
    for index in range(8):
        now = index * 1_000.0 + 1.0
        for call in range(10):
            series.count("svc", "invocations", now_us=now)
            series.observe("svc", "invoke_sim_us", 50.0 + call, now_us=now)
    engine = SloEngine(
        [
            SloPolicy(name="svc-latency", scope="svc", latency_p_us=80.0,
                      fast_windows=2, slow_windows=8),
            SloPolicy(name="svc-errors", scope="svc", max_error_rate=0.01,
                      fast_windows=2, slow_windows=8),
        ]
    )
    states = engine.evaluate(series)
    assert sorted(state["policy"] for state in states) == ["svc-errors", "svc-latency"]
    assert all(state["windows_evaluated"] == 8 for state in states)
    assert {state["state"] for state in states} <= {"ok", "warn", "page"}
