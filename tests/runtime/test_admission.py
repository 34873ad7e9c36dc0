"""Admission control: concurrency limits, bounded queues, shedding.

Unit coverage for :mod:`repro.runtime.admission` — the policy knobs, the
virtual FIFO multi-server occupancy model, deadline-aware rejection, the
adaptive AIMD mode, the seeded burst generator, and the two things the
whole design promises: the uninstalled/ungoverned paths cost nothing
simulated, and identical seeds replay bit-for-bit.
"""

from __future__ import annotations

import random

import pytest

from repro.kernel.errors import DeadlineExceeded, ServerBusyError
from repro.marshal.buffer import MarshalBuffer
from repro.runtime import (
    AdmissionPolicy,
    Environment,
    deadline,
)
from repro.runtime.chaos import OpenLoopBurst
from repro.subcontracts.singleton import SingletonServer
from tests.conftest import CounterImpl

#: occupancy long enough to straddle every per-call overhead in a test
LONG_SERVICE_US = 500_000.0


def make_world(counter_module, seed: int = 1993):
    """Server and client domains on two machines, singleton counter."""
    env = Environment(seed=seed)
    server = env.create_domain("alpha", "server")
    client = env.create_domain("beta", "client")
    binding = counter_module.binding("counter")
    impl = CounterImpl()
    obj = SingletonServer(server).export(impl, binding)
    env.bind(server, "/svc/counter", obj)
    from repro.core.stubs import narrow

    proxy = narrow(env.resolve(client, "/svc/counter"), binding)
    return env, proxy, impl


class TestPolicyValidation:
    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="limit"):
            AdmissionPolicy(limit=0)

    def test_queue_limit_none_is_unbounded(self):
        policy = AdmissionPolicy(limit=1, queue_limit=None)
        assert policy.queue_limit is None
        with pytest.raises(ValueError, match="queue_limit"):
            AdmissionPolicy(limit=1, queue_limit=-1)

    def test_jitter_bounds(self):
        with pytest.raises(ValueError, match="retry_jitter"):
            AdmissionPolicy(limit=1, retry_jitter=1.0)

    def test_adaptive_knobs(self):
        with pytest.raises(ValueError, match="min_limit"):
            AdmissionPolicy(limit=4, adaptive=True, min_limit=8, max_limit=4)
        with pytest.raises(ValueError, match="decrease"):
            AdmissionPolicy(limit=4, adaptive=True, decrease=1.5)
        with pytest.raises(ValueError, match="increase"):
            AdmissionPolicy(limit=4, adaptive=True, increase=0)

    def test_service_estimate_positive(self):
        with pytest.raises(ValueError, match="service_estimate_us"):
            AdmissionPolicy(limit=1, service_estimate_us=0.0)


class TestInstallation:
    def test_install_returns_and_attaches(self, counter_module):
        env, _, _ = make_world(counter_module)
        assert env.kernel.admission is None
        controller = env.install_admission()
        assert env.kernel.admission is controller
        env.uninstall_admission()
        assert env.kernel.admission is None

    def test_uninstalled_totals_are_bit_for_bit_identical(self, counter_module):
        """Installed-but-ungoverned must not change a single charge."""

        def drive(with_controller: bool):
            env, proxy, _ = make_world(counter_module)
            if with_controller:
                env.install_admission()
            for i in range(10):
                proxy.add(1)
            return env.clock.now_us, dict(env.clock.tally())

        assert drive(False) == drive(True)

    def test_ungoverned_doors_resolve_to_cached_none(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        proxy.add(1)
        door = proxy._rep.door.door
        assert controller._states[door.uid] is None  # cached miss
        assert controller.stats["admitted"] == 0
        assert "admission_wait" not in env.clock.tally()


class TestOccupancy:
    def test_idle_door_admits_without_wait(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        controller.govern(proxy._rep.door, AdmissionPolicy(limit=2))
        assert proxy.add(1) == 1
        snap = controller.door_snapshot(proxy._rep.door)
        assert snap["admitted"] == 1
        assert snap["queued"] == snap["shed"] == snap["rejected"] == 0
        assert "admission_wait" not in env.clock.tally()

    def test_back_to_back_calls_queue_and_charge_wait(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        controller.govern(
            proxy._rep.door,
            AdmissionPolicy(limit=1, service_estimate_us=LONG_SERVICE_US),
        )
        proxy.add(1)  # books the single virtual server for ~LONG_SERVICE_US
        proxy.add(1)  # must wait its turn
        snap = controller.door_snapshot(proxy._rep.door)
        assert snap["queued"] == 1
        wait = env.clock.tally()["admission_wait"]
        assert 0.0 < wait <= LONG_SERVICE_US

    def test_fifo_queue_depth_is_tracked(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        controller.govern(
            proxy._rep.door,
            AdmissionPolicy(
                limit=1, queue_limit=None, deadline_aware=False,
                service_estimate_us=LONG_SERVICE_US,
            ),
        )
        proxy.add(1)
        # Sequential callers drain their own slot: each call waits until
        # its own start time, so the standing depth stays zero while the
        # projected wait stays positive (the server is still booked).
        assert controller.queue_depth(proxy._rep.door) == 0
        assert controller.projected_wait_us(proxy._rep.door) > 0.0
        proxy.add(1)
        assert controller.queue_depth(proxy._rep.door) == 0
        assert controller.projected_wait_us(proxy._rep.door) > 0.0
        assert controller.door_snapshot(proxy._rep.door)["queued"] == 1

    def test_queue_limit_sheds_with_busy(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        controller.govern(
            proxy._rep.door,
            AdmissionPolicy(
                limit=1, queue_limit=0, service_estimate_us=LONG_SERVICE_US
            ),
        )
        proxy.add(1)
        with pytest.raises(ServerBusyError) as excinfo:
            proxy.add(1)
        assert excinfo.value.retry_after_us > 0.0
        snap = controller.door_snapshot(proxy._rep.door)
        assert snap["shed"] == 1
        assert "queue full" in str(excinfo.value)

    def test_unbounded_non_deadline_policy_never_sheds(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        controller.govern(
            proxy._rep.door,
            AdmissionPolicy(
                limit=1, queue_limit=None, deadline_aware=False,
                service_estimate_us=LONG_SERVICE_US,
            ),
        )
        for i in range(8):  # every call queues, none shed
            proxy.add(1)
        snap = controller.door_snapshot(proxy._rep.door)
        assert snap["admitted"] == 8
        assert snap["shed"] == snap["rejected"] == 0

    def test_occupancy_expires_with_simulated_time(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        controller.govern(
            proxy._rep.door,
            AdmissionPolicy(limit=1, service_estimate_us=LONG_SERVICE_US),
        )
        proxy.add(1)
        env.clock.advance(2 * LONG_SERVICE_US, "think")
        assert controller.projected_wait_us(proxy._rep.door) == 0.0
        proxy.add(1)
        assert controller.door_snapshot(proxy._rep.door)["queued"] == 0

    def test_complete_feeds_the_service_ewma(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        controller.govern(
            proxy._rep.door, AdmissionPolicy(limit=4, service_estimate_us=1e6)
        )
        proxy.add(1)
        door = proxy._rep.door.door
        state = controller._states[door.uid]
        # the measured service (marshal + dispatch) is far below the 1 s
        # estimate, so the EWMA moved down
        assert state.ewma_service_us < 1e6


class TestDeadlineAwareness:
    def test_doomed_call_rejected_at_the_gate(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        controller.govern(
            proxy._rep.door,
            AdmissionPolicy(
                limit=1, queue_limit=8, service_estimate_us=LONG_SERVICE_US
            ),
        )
        proxy.add(1)  # occupy the server for ~0.5 s of sim time
        handled_before = proxy._rep.door.door.calls_handled
        with pytest.raises(ServerBusyError, match="deadline would be spent"):
            with deadline(env.kernel, 10_000.0):
                proxy.add(1)
        snap = controller.door_snapshot(proxy._rep.door)
        assert snap["rejected"] == 1
        # the rejection happened before dispatch: the handler never ran
        assert proxy._rep.door.door.calls_handled == handled_before

    def test_deadline_blind_policy_queues_the_doomed_call(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        controller.govern(
            proxy._rep.door,
            AdmissionPolicy(
                limit=1, queue_limit=8, deadline_aware=False,
                service_estimate_us=LONG_SERVICE_US,
            ),
        )
        proxy.add(1)
        # Without the gate the call waits in queue, burns its whole
        # budget, and dies downstream — the waste deadline_aware removes.
        with pytest.raises(DeadlineExceeded):
            with deadline(env.kernel, 10_000.0):
                proxy.add(1)
        assert controller.door_snapshot(proxy._rep.door)["rejected"] == 0


class TestRetryAfter:
    def test_hint_tracks_projected_free_time(self, counter_module):
        # Drive the gate directly so no simulated time elapses between
        # the occupancy read and the shed: the unjittered hint must be
        # exactly the earliest virtual server's remaining busy time.
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        controller.govern(
            proxy._rep.door,
            AdmissionPolicy(
                limit=1, queue_limit=0, retry_jitter=0.0,
                service_estimate_us=LONG_SERVICE_US,
            ),
        )
        door = proxy._rep.door.door
        request = MarshalBuffer(env.kernel)
        permit = controller.admit(door, request)
        assert permit is not None
        controller.complete(permit)
        state = controller._states[door.uid]
        expected = state.server_free[0] - env.clock.now_us
        with pytest.raises(ServerBusyError) as excinfo:
            controller.admit(door, request)
        assert excinfo.value.retry_after_us == pytest.approx(expected, rel=1e-9)

    def test_jitter_is_seeded_and_deterministic(self, counter_module):
        def shed_hints(seed):
            env, proxy, _ = make_world(counter_module)
            controller = env.install_admission(seed=seed)
            controller.govern(
                proxy._rep.door,
                AdmissionPolicy(
                    limit=1, queue_limit=0, retry_jitter=0.5,
                    service_estimate_us=LONG_SERVICE_US,
                ),
            )
            proxy.add(1)
            hints = []
            for i in range(4):
                with pytest.raises(ServerBusyError) as excinfo:
                    proxy.add(1)
                hints.append(excinfo.value.retry_after_us)
            return hints

        assert shed_hints(7) == shed_hints(7)
        assert shed_hints(7) != shed_hints(8)


class TestAdaptive:
    def adaptive_policy(self, **kwargs):
        defaults = dict(
            limit=4,
            queue_limit=None,
            deadline_aware=False,
            adaptive=True,
            target_delay_us=1_000.0,
            interval_us=5_000.0,
            min_limit=1,
            max_limit=8,
            service_estimate_us=LONG_SERVICE_US,
        )
        defaults.update(kwargs)
        return AdmissionPolicy(**defaults)

    def test_limit_grows_additively_under_light_load(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        controller.govern(proxy._rep.door, self.adaptive_policy())
        for i in range(6):  # spaced calls: zero queue delay every window
            proxy.add(1)
            env.clock.advance(6_000.0, "think")
        state = controller._states[proxy._rep.door.door.uid]
        assert state.limit > 4

    def test_limit_cut_multiplicatively_under_overload(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        controller.govern(
            proxy._rep.door,
            self.adaptive_policy(limit=4, target_delay_us=10.0),
        )
        # Saturate the door with phantom load far beyond any limit: every
        # window's minimum queue delay stays over target, so AIMD cuts.
        plane = env.install_chaos()
        plane.burst(proxy._rep.door, interarrival_us=50.0, service_us=5_000.0)
        for i in range(8):  # probe calls pump the burst and the windows
            env.clock.advance(6_000.0, "think")
            proxy.add(1)
        state = controller._states[proxy._rep.door.door.uid]
        assert state.limit < 4
        assert state.limit >= 1  # never below min_limit
        assert len(state.server_free) <= state.limit  # cut retired servers


class TestBursts:
    def test_burst_requires_an_installed_controller(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        plane = env.install_chaos()
        with pytest.raises(RuntimeError, match="install an AdmissionController"):
            plane.burst(proxy._rep.door, interarrival_us=100.0, service_us=200.0)

    def test_burst_requires_a_governed_door(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        env.install_admission()
        plane = env.install_chaos()
        with pytest.raises(ValueError, match="no admission policy"):
            plane.burst(proxy._rep.door, interarrival_us=100.0, service_us=200.0)

    def test_generator_is_seed_deterministic(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        door = proxy._rep.door.door
        a = OpenLoopBurst(door, 100.0, 250.0, seed=5)
        b = OpenLoopBurst(door, 100.0, 250.0, seed=5)
        draws_a = [a.take() for _ in range(32)]
        draws_b = [b.take() for _ in range(32)]
        assert draws_a == draws_b
        arrivals = [at for at, _ in draws_a]
        assert arrivals == sorted(arrivals)  # arrival times are monotone

    def test_call_budget_exhausts(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        burst = OpenLoopBurst(proxy._rep.door.door, 100.0, 250.0, seed=5, calls=3)
        for _ in range(3):
            assert burst.next_at_us is not None
            burst.take()
        assert burst.next_at_us is None

    def test_phantom_load_causes_real_queueing_and_shedding(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        controller.govern(
            proxy._rep.door, AdmissionPolicy(limit=1, queue_limit=2)
        )
        plane = env.install_chaos()
        plane.burst(proxy._rep.door, interarrival_us=50.0, service_us=400.0)
        busy = ok = 0
        for i in range(120):
            env.clock.advance(100.0, "think")
            try:
                proxy.add(1)
                ok += 1
            except ServerBusyError:
                busy += 1
        assert busy > 0 and ok > 0
        stats = controller.stats
        assert stats["phantom_admitted"] > 0
        assert stats["shed"] == busy
        assert stats["admitted"] == ok

    def test_identical_seed_replays_bit_for_bit(self, counter_module):
        def run(seed):
            env, proxy, _ = make_world(counter_module, seed=seed)
            controller = env.install_admission()
            controller.govern(
                proxy._rep.door, AdmissionPolicy(limit=1, queue_limit=2)
            )
            plane = env.install_chaos(seed=seed)
            plane.burst(proxy._rep.door, interarrival_us=50.0, service_us=400.0)
            outcomes = []
            for i in range(100):
                env.clock.advance(100.0, "think")
                try:
                    proxy.add(1)
                    outcomes.append("ok")
                except ServerBusyError as busy:
                    outcomes.append(round(busy.retry_after_us, 6))
            return outcomes, dict(controller.stats), env.clock.now_us

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestGoodput:
    """A limit-1 door under a seeded burst at 1x, 2x and 5x its capacity,
    with shedding (bounded queue, deadline aware) and without (unbounded
    queue, deadline blind)."""

    SERVICE_US = 400.0
    CALLS = 120

    def leg(self, counter_module, factor, shedding):
        """(ok, busy, goodput per sim µs over the storm, think time in)."""
        env, proxy, _ = make_world(counter_module, seed=7)
        door = proxy._rep.door
        env.install_admission(seed=7).govern(
            door,
            AdmissionPolicy(
                limit=1, queue_limit=8 if shedding else None,
                deadline_aware=shedding, service_estimate_us=self.SERVICE_US,
            ),
        )
        env.install_chaos(seed=7).burst(
            door, interarrival_us=self.SERVICE_US / factor, service_us=self.SERVICE_US
        )
        rng = random.Random(7)
        ok = busy = 0
        start = env.clock.now_us
        for _ in range(self.CALLS):
            env.clock.advance(50.0 + 150.0 * rng.random(), "think_time")
            try:
                proxy.add(1)
                ok += 1
            except ServerBusyError:
                busy += 1
        return ok, busy, ok / (env.clock.now_us - start)

    def test_shedding_doubles_goodput_at_five_times_capacity(self, counter_module):
        ok, busy, shed_goodput = self.leg(counter_module, 5, shedding=True)
        assert ok > 0 and busy > 0
        assert shed_goodput >= 2.0 * self.leg(counter_module, 5, shedding=False)[2]

    def test_unprotected_door_never_refuses(self, counter_module):
        legs = [self.leg(counter_module, factor, shedding=False) for factor in (1, 2, 5)]
        assert [(ok, busy) for ok, busy, _ in legs] == [(self.CALLS, 0)] * 3
        goodput = [g for _, _, g in legs]
        assert goodput == sorted(goodput, reverse=True)


class TestDomainGovernance:
    def test_domain_policy_covers_every_door(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        server_domain = proxy._rep.door.door.server
        controller.govern_domain(
            server_domain,
            AdmissionPolicy(limit=1, queue_limit=0, service_estimate_us=1e6),
        )
        proxy.add(1)
        with pytest.raises(ServerBusyError):
            proxy.add(1)

    def test_door_policy_wins_over_domain_policy(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        server_domain = proxy._rep.door.door.server
        controller.govern_domain(
            server_domain,
            AdmissionPolicy(limit=1, queue_limit=0, service_estimate_us=1e6),
        )
        controller.govern(
            proxy._rep.door, AdmissionPolicy(limit=64, queue_limit=None)
        )
        for i in range(4):  # the generous door policy applies
            proxy.add(1)
        assert controller.stats["shed"] == 0


class TestObservability:
    def test_events_and_histograms_under_tracing(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        tracer = env.install_tracer()
        controller = env.install_admission()
        controller.govern(
            proxy._rep.door,
            AdmissionPolicy(
                limit=1, queue_limit=None, deadline_aware=False,
                service_estimate_us=LONG_SERVICE_US,
            ),
        )
        proxy.add(1)  # admitted clean
        proxy.add(1)  # queued
        # Re-govern with a zero-length queue (fresh occupancy): prime it,
        # then the next call is shed.
        controller.govern(
            proxy._rep.door,
            AdmissionPolicy(
                limit=1, queue_limit=0, service_estimate_us=LONG_SERVICE_US
            ),
        )
        proxy.add(1)
        with pytest.raises(ServerBusyError):
            proxy.add(1)  # shed
        metrics = tracer.metrics
        assert metrics.counter("admission", "events:admission.queued").value == 1
        assert metrics.counter("admission", "events:admission.shed").value == 1
        depth = tracer.metrics.histogram("admission", "queue_depth").snapshot()
        wait = tracer.metrics.histogram("admission", "queue_wait_us").snapshot()
        assert depth["count"] == 3  # one observation per admitted call
        assert wait["count"] == 3

    def test_snapshot_is_none_for_ungoverned(self, counter_module):
        env, proxy, _ = make_world(counter_module)
        controller = env.install_admission()
        proxy.add(1)
        assert controller.door_snapshot(proxy._rep.door) is None
        assert controller.projected_wait_us(proxy._rep.door) == 0.0
        assert controller.queue_depth(proxy._rep.door) == 0
