"""An idle feature costs nothing: installed but quiet ≡ uninstalled.

Distribution policy applied from outside unmodified code must charge
nothing while it is idle (RAFDA's property, stated for cost).  Each row
builds a fresh world, installs one feature and leaves it quiet, and
drives the same calls as a fresh world without it: the simulated time
of every call on all three paths (a general stub, a fused stub and a
raw door call) must be equal, not close.  Worlds are only ever compared
fresh, never before and after an uninstall in one world, because the
clock's position changes float rounding.  ``test_call_budget.py`` pins
the uninstalled charges themselves, and that uninstalling a feature
empties every kernel seam.
"""

from __future__ import annotations

import pytest

from repro.idl.compiler import compile_idl
from repro.idl.specialize import specialize
from repro.kernel.clock import ClockWindow
from repro.marshal.buffer import MarshalBuffer
from repro.runtime import tsan
from repro.runtime.env import Environment
from repro.runtime.idem import DedupMemo, wrap_idempotent
from repro.runtime.transfer import transfer
from repro.subcontracts.singleton import SingletonServer
from tests.conftest import COUNTER_IDL, CounterImpl

GENERAL = compile_idl(COUNTER_IDL, "quiet.general")
FUSED = compile_idl(COUNTER_IDL, "quiet.fused")
specialize(FUSED, "counter", "singleton")

#: spans one general call opens: invoke, door, handler, skeleton
SPANS_PER_GENERAL_CALL = 4


class World:
    """One kernel, a server and a client domain on one machine, and a
    counter reached three ways: general stub, fused stub, raw door."""

    def __init__(self, traced: bool = False) -> None:
        self.env = env = Environment(latency_us=0.0, with_naming=False)
        if tsan.active() is not None:  # REPRO_TSAN=1 attaches every kernel
            tsan.uninstall_tsan()
        if traced:
            env.install_tracer()
        kernel = self.kernel = env.kernel
        server = self.server = env.create_domain("m", "server")
        client = env.create_domain("m", "client")
        general, fused = (
            transfer(
                SingletonServer(server).export(CounterImpl(), module.binding("counter")),
                client,
            )
            for module in (GENERAL, FUSED)
        )
        impl = CounterImpl()

        def raw_handler(request):
            reply = server.acquire_buffer()
            reply.put_int32(impl.add(request.get_int32()))
            return reply

        raw_id = kernel.create_door(server, raw_handler)
        raw_door = kernel.attach_door_id(client, kernel.detach_door_id(server, raw_id))

        def raw_call():
            request = client.acquire_buffer()
            kernel.clock.charge("memory_copy_byte", 5)
            request.put_int32(1)
            reply = kernel.door_call(client, raw_door, request)
            reply.get_int32()
            request.recycle()
            reply.recycle()

        self.doors = (general._rep.door.door, fused._rep.door.door, raw_door.door)
        self.paths = {"general": general.total, "fused": fused.total, "raw": raw_call}

    def sims(self, calls: int = 3) -> dict:
        """Warm every path, then the sim µs of each of ``calls`` calls."""
        for path in self.paths.values():
            path()
        out = {}
        for name, path in self.paths.items():
            out[name] = []
            for _ in range(calls):
                with ClockWindow(self.kernel.clock) as window:
                    path()
                out[name].append(window.elapsed_us)
        return out


def _unkeyed_dedup(world: World) -> None:
    for door in world.doors:
        door.handler = wrap_idempotent(world.server, door.handler, DedupMemo())


#: feature -> (is the world traced, install the feature and leave it quiet)
QUIET = {
    "chaos_zero_rates": (False, lambda w: w.env.install_chaos(seed=0)),
    "admission_ungoverned": (False, lambda w: w.env.install_admission(seed=0)),
    "tsan_enabled": (False, lambda w: w.env.install_tsan(report_mode="collect")),
    "dedup_unkeyed": (False, _unkeyed_dedup),
    "membership": (False, lambda w: w.env.install_membership()),
    "windows_uninstalled": (
        True,
        lambda w: (w.env.install_windows(), w.env.uninstall_windows()),
    ),
}


@pytest.fixture
def no_detector():
    yield
    if tsan.active() is not None:
        tsan.uninstall_tsan()


@pytest.mark.parametrize("row", QUIET)
def test_quiet_feature_charges_nothing(row, no_detector):
    traced, install = QUIET[row]
    bare = World(traced).sims()
    quiet = World(traced)
    install(quiet)
    assert quiet.sims() == bare


def test_fresh_uninstalled_worlds_are_identical():
    assert World().sims() == World().sims()


def test_enabled_tracer_charges_exactly_its_spans():
    bare = World().sims()
    world = World(traced=True)
    traced = world.sims()
    span_us = world.kernel.clock.model.trace_span_us
    for off, on in zip(bare["general"], traced["general"]):
        assert on - off == pytest.approx(SPANS_PER_GENERAL_CALL * span_us)
    assert world.kernel.tracer.spans()


def test_windows_charge_a_positive_tariff_identical_across_worlds():
    def windowed():
        world = World()
        series = world.env.install_windows(window_us=50_000.0, retention=256)
        sims = world.sims()
        assert series.recorded > 0
        return sims

    first = windowed()
    assert first == windowed()
    assert all(on > off for on, off in zip(first["general"], World().sims()["general"]))


def test_enabled_detector_sees_a_race_free_hot_path(no_detector):
    world = World()
    runtime = world.env.install_tsan(report_mode="collect")
    world.sims()
    assert runtime.races == []
    assert runtime.stats["edges"] > 0


def test_warm_general_call_constructs_almost_no_buffers(monkeypatch):
    world = World()
    world.sims()
    constructed = 0
    original = MarshalBuffer.__init__

    def counting(self, *args, **kwargs):
        nonlocal constructed
        constructed += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(MarshalBuffer, "__init__", counting)
    for _ in range(200):
        world.paths["general"]()
    assert constructed / 200 < 0.5

