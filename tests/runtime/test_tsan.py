"""springtsan unit behaviour: the declaration API, the detector state
machine, and installation mechanics.

The four canonical race classes (unlocked write/write, disjoint
locksets, missed join edge, door-handoff suppression) live with the
concurrent soak in ``tests/chaos/test_tsan_soak.py``; this file covers
the pieces those scenarios are built from.
"""

from __future__ import annotations

import threading

import pytest

from repro.runtime import tsan
from repro.runtime.threads import run_concurrently
from repro.runtime.tsan import (
    TrackedDict,
    TrackedList,
    TsanLock,
    install_tsan,
    uninstall_tsan,
)
from tests.conftest import make_domain


@pytest.fixture
def installer():
    """Install a detector with options; always uninstall afterwards.

    Uninstalls any pre-existing process-wide detector first (the suite
    may run under REPRO_TSAN=1, where every kernel auto-installs one).
    """
    def _install(kernel, **options):
        if tsan.active() is not None:
            uninstall_tsan()
        return install_tsan(kernel, **options)

    yield _install
    if tsan.active() is not None:
        uninstall_tsan()


class TestDeclarationApiUninstalled:
    def test_track_returns_object_unchanged(self):
        if tsan.active() is not None:
            uninstall_tsan()
        memo: dict = {}
        items: list = []
        assert tsan.track(memo, "memo") is memo
        assert tsan.track(items, "items") is items

    def test_instrument_lock_returns_lock_unchanged(self):
        if tsan.active() is not None:
            uninstall_tsan()
        lock = threading.Lock()
        assert tsan.instrument_lock(lock, "x") is lock

    def test_shared_state_classes_untouched(self):
        if tsan.active() is not None:
            uninstall_tsan()

        @tsan.shared_state
        class Box:
            pass

        assert getattr(Box, "_tsan_orig_setattr", None) is None
        box = Box()
        box.value = 1  # plain setattr, no detector in the path
        assert box.value == 1


class TestDeclarationApiInstalled:
    def test_track_wraps_dict_and_list(self, kernel, installer):
        runtime = installer(kernel)
        memo = tsan.track({}, "memo")
        items = tsan.track([], "items")
        assert isinstance(memo, TrackedDict)
        assert isinstance(items, TrackedList)
        memo["k"] = 1
        items.append(2)
        assert runtime.stats["writes"] >= 2

    def test_track_rejects_unsupported_types(self, kernel, installer):
        installer(kernel)
        with pytest.raises(TypeError):
            tsan.track(object(), "nope")

    def test_instrument_lock_wraps_and_reports_edges(self, kernel, installer):
        runtime = installer(kernel)
        lock = tsan.instrument_lock(threading.Lock(), "test.lock")
        assert isinstance(lock, TsanLock)
        before = runtime.stats["edges"]
        with lock:
            pass
        assert runtime.stats["edges"] > before

    def test_reentrant_lock_folds_to_one_critical_section(
        self, kernel, installer
    ):
        runtime = installer(kernel)
        lock = tsan.instrument_lock(threading.RLock(), "test.rlock")
        with lock:
            with lock:
                pass
            # inner release must not publish: the lock is still held
            assert "test.rlock" in runtime._state().locks

    def test_shared_state_registered_before_install_is_patched(
        self, kernel, installer
    ):
        @tsan.shared_state
        class Box:
            pass

        runtime = installer(kernel)
        box = Box()
        before = runtime.stats["writes"]
        box.value = 1
        assert runtime.stats["writes"] == before + 1
        uninstall_tsan()
        assert getattr(Box, "_tsan_orig_setattr", None) is None
        box.value = 2  # back to plain setattr


class TestInstallUninstall:
    def test_install_wraps_kernel_tables_and_domain_locals(
        self, kernel, installer
    ):
        domain = make_domain(kernel, "alpha")
        runtime = installer(kernel)
        assert kernel.tsan is runtime
        assert isinstance(kernel.domains, TrackedDict)
        assert isinstance(kernel.doors, TrackedDict)
        assert isinstance(domain.locals, TrackedDict)
        later = make_domain(kernel, "beta")
        assert isinstance(later.locals, TrackedDict)

    def test_uninstall_restores_plain_containers(self, kernel, installer):
        domain = make_domain(kernel, "alpha")
        domain.locals["x"] = 1
        installer(kernel)
        uninstall_tsan()
        assert kernel.tsan is None
        assert type(kernel.domains) is dict
        assert type(kernel.doors) is dict
        assert type(domain.locals) is dict
        assert domain.locals["x"] == 1
        assert tsan.active() is None

    def test_second_install_with_options_refused(self, kernel, installer):
        installer(kernel)
        with pytest.raises(ValueError):
            install_tsan(kernel, report_mode="collect")

    def test_env_install_helper_roundtrip(self, env):
        if tsan.active() is not None:
            uninstall_tsan()
        runtime = env.install_tsan()
        assert env.kernel.tsan is runtime
        env.uninstall_tsan()
        assert env.kernel.tsan is None


class TestDetectorCore:
    def test_collect_mode_reports_once_per_variable(self, kernel, installer):
        runtime = installer(kernel, report_mode="collect")
        shared = tsan.track({}, "core.shared")

        def writer():
            for _ in range(3):
                shared["k"] = 1

        run_concurrently([writer, writer])
        labels = [race.label for race in runtime.races]
        assert labels.count("core.shared['k']") == 1

    def test_race_report_names_both_sites(self, kernel, installer):
        runtime = installer(kernel, report_mode="collect")
        shared = tsan.track({}, "core.sites")

        def writer():
            shared["k"] = 1

        run_concurrently([writer, writer])
        assert len(runtime.races) == 1
        first, second = runtime.races[0].sites()
        assert "test_tsan.py" in first
        assert "test_tsan.py" in second
        text = str(runtime.races[0])
        assert "core.sites" in text and "unordered" in text

    def test_same_thread_accesses_never_race(self, kernel, installer):
        runtime = installer(kernel)
        shared = tsan.track({}, "core.same")
        for _ in range(5):
            shared["k"] = 1
            _ = shared.get("k")
        assert runtime.races == []

    def test_lock_edges_order_critical_sections(self, kernel, installer):
        runtime = installer(kernel, report_mode="collect")
        lock = tsan.instrument_lock(threading.Lock(), "core.lock")
        shared = tsan.track({}, "core.locked")

        def writer():
            with lock:
                shared["k"] = 1

        run_concurrently([writer, writer])
        assert runtime.races == []

    def test_detector_charges_no_simulated_time(self, kernel, installer):
        installer(kernel)
        before = kernel.clock.now_us
        shared = tsan.track({}, "core.clock")
        lock = tsan.instrument_lock(threading.Lock(), "core.clock.lock")
        with lock:
            shared["k"] = 1
        assert kernel.clock.now_us == before


class TestDoorHandoff:
    """The door edges live in the kernel's launch and handler seams.  A
    handler runs on its caller's thread unless a transport hands the
    request to another one; then the reply edge is all that orders the
    handler's writes before the caller's reads."""

    def test_reply_edge_orders_a_handler_on_another_thread(self, installer):
        from repro.runtime.env import Environment

        env = Environment(with_naming=False)
        kernel = env.kernel
        runtime = installer(kernel, report_mode="collect")
        shared = tsan.track({}, "handoff.shared")
        server = env.create_domain("south", "server")
        client = env.create_domain("north", "client")

        def handler(request):
            shared["answer"] = 42
            return server.acquire_buffer()

        served = kernel.create_door(server, handler)
        ident = kernel.attach_door_id(
            client, kernel.detach_door_id(server, kernel.copy_door_id(server, served))
        )
        carry = kernel.fabric

        def carry_on_a_delivery_thread(caller, door, buffer):
            done = {}
            delivery = threading.Thread(
                target=lambda: done.update(reply=carry(caller, door, buffer))
            )
            delivery.start()
            delivery.join(timeout=10.0)
            assert not delivery.is_alive()
            return done["reply"]

        kernel.fabric = carry_on_a_delivery_thread
        request = client.acquire_buffer()
        reply = kernel.door_call(client, ident, request)
        request.recycle()
        reply.recycle()
        assert shared["answer"] == 42
        assert runtime.races == []


class TestSimTotalParity:
    def test_sim_totals_identical_with_and_without_detector(
        self, counter_module
    ):
        from repro.runtime.env import Environment
        from repro.runtime.transfer import give
        from repro.subcontracts.simplex import SimplexServer
        from tests.conftest import CounterImpl

        def drive(with_tsan: bool) -> float:
            if tsan.active() is not None:
                uninstall_tsan()
            env = Environment()
            if with_tsan:
                env.install_tsan()
            try:
                server = env.create_domain("m1", "server")
                client = env.create_domain("m2", "client")
                exported = SimplexServer(server).export(
                    CounterImpl(), counter_module.binding("counter")
                )
                handle = give(exported, client)
                for i in range(40):
                    handle.add(i)
                return env.kernel.clock.now_us
            finally:
                if with_tsan:
                    env.uninstall_tsan()

        assert drive(False) == drive(True)
