"""The membership soak: region partition, failover, heal — seed-swept.

The ISSUE's end-to-end scenario, once per seed: a leader serving a
reconnectable counter from a two-machine "east" region, a three-machine
"west" majority, region-scaled link latency, and background datagram
loss.  The fault plane cuts east off at a scheduled time; gossip must
detect and evict, the west side must elect a new term (the minority
side must not), the new leader re-exports the service, clients re-reach
it through the reconnectable subcontract's eviction fast-path, and the
scheduled heal must converge back to one leader with every member
re-admitted — no split-brain at any point.

Each seed's run is replayed from scratch and must reproduce the
membership event log *byte-for-byte* and the span projection exactly;
failover time is asserted against the computable detection + election
bound.  On failure, the seed's trace and membership event log are
written for offline replay when ``CHAOS_TRACE_DIR`` is set.
"""

from __future__ import annotations

import contextlib
import os

import pytest

from repro.kernel.errors import CommunicationError
from repro.runtime.env import Environment
from repro.runtime.retry import RetryPolicy
from repro.subcontracts.reconnectable import ReconnectableServer
from tests.chaos.conftest import StableCounter, chaos_seeds, ship, span_projection

EAST = ("e1", "e2")
WEST = ("w1", "w2", "w3")

#: scenario timeline (sim us): cut after the world settles, heal later
CUT_AT_US = 6_000_000.0
HEAL_AT_US = 30_000_000.0
RUN_UNTIL_US = 55_000_000.0
STEP_US = 250_000.0


def failover_bound_us(election, membership) -> float:
    """Cut-to-new-term bound: detection (lease lapse or gossip eviction,
    whichever is slower), then scheduling, backoff, and a vote round."""
    cfg = election.config
    mcfg = membership.config
    n = len(membership.nodes)
    detect = max(
        cfg.lease_us,
        (n - 1) * (mcfg.probe_interval_us + mcfg.probe_jitter_us)
        + 2 * mcfg.ack_timeout_us
        + mcfg.suspicion_timeout_us,
    )
    return (
        detect
        + cfg.check_interval_us
        + 2 * cfg.backoff_base_us
        + 2 * cfg.vote_timeout_us
        + 2_000_000.0
    )


def build_region_world(seed: int, counter_module) -> dict:
    """East leader + west majority, chaos, membership, election, and a
    leader-owned reconnectable counter that follows election wins."""
    env = Environment(seed=seed)
    tracer = env.install_tracer(ring_capacity=1 << 16)
    binding = counter_module.binding("counter")

    members = [env.machine(name, region="east") for name in EAST]
    members += [env.machine(name, region="west") for name in WEST]
    client_machine = env.machine("clients", region="west")
    env.fabric.set_region_latency()

    env.name_service.domain.locals["chaos_immune"] = True
    plane = env.install_chaos(seed=seed)
    plane.default_link.drop = 0.01

    mem = env.install_membership(machines=members)
    # A lease longer than the suspicion window makes gossip eviction the
    # failover trigger (the fast-candidacy path), and leaves a window
    # where clients consult the view and skip doomed calls — the
    # scenario the reconnectable eviction fast-path exists for.
    election = env.install_election(lease_us=4_000_000.0)

    stable: dict = {}
    incarnations = {"n": 0}

    def export_on(machine_name: str) -> None:
        incarnations["n"] += 1
        server = env.create_domain(machine_name, f"ctr-{incarnations['n']}")
        ReconnectableServer(server).export(
            StableCounter(stable), binding, name="/services/counter"
        )

    # Every member re-exports the service when it wins a term — after a
    # stand-up delay (a real replacement replays state before serving).
    # The delay opens a window where the service name still points at
    # the evicted machine: exactly the regime the reconnectable eviction
    # fast-path exists for, so the soak exercises it every seed.  The
    # first (east) incumbent is exported once a leader exists, below.
    def re_export_later(machine_name: str) -> None:
        mem.schedule(
            mem.now() + 1_500_000.0,
            lambda: export_on(machine_name),
            f"re-export:{machine_name}",
        )

    for name in election.electorate:
        election.on_win(name, lambda term, name=name: re_export_later(name))

    client = env.create_domain(client_machine, "client")
    mem.plant(client, node=WEST[0])

    world = {
        "env": env,
        "tracer": tracer,
        "binding": binding,
        "mem": mem,
        "election": election,
        "plane": plane,
        "client": client,
        "stable": stable,
    }
    return world


def run_scenario(seed: int, counter_module) -> dict:
    world = build_region_world(seed, counter_module)
    env, mem, election = world["env"], world["mem"], world["election"]

    # settle: first leader, then hand it the service
    mem.run_for(4_000_000)
    leaders = election.current_leaders()
    assert leaders, f"seed {seed}: no initial leader"
    first_leader, first_term = leaders[0]
    assert first_leader in EAST, (
        f"seed {seed}: staggered checks were expected to elect east first"
    )

    # export the incumbent's service and hand the client its proxy
    incumbent = env.create_domain(first_leader, "ctr-0")
    obj = ReconnectableServer(incumbent).export(
        StableCounter(world["stable"]), world["binding"], name="/services/counter"
    )
    counter = ship(env.kernel, incumbent, world["client"], obj, world["binding"])
    # A snappy client retry policy: a failed call gives up in ~0.4s of
    # sim time instead of ~4s, so the call loop keeps interleaving with
    # the gossip pump (a stalled pump would delay detection artificially)
    vector = counter._subcontract
    vector.retry_policy = RetryPolicy(
        base_us=50_000.0, multiplier=2.0, max_backoff_us=200_000.0, max_attempts=3
    )

    world["plane"].schedule_partition_region(
        "east", at_us=CUT_AT_US, heal_at_us=HEAL_AT_US
    )

    ok = failed = 0
    first_ok_after_cut = None
    while mem.now() < RUN_UNTIL_US:
        mem.run_for(STEP_US)
        try:
            counter.add(1)
        except CommunicationError:
            failed += 1
        else:
            ok += 1
            if first_ok_after_cut is None and mem.now() > CUT_AT_US:
                first_ok_after_cut = mem.now()

    won = [e for e in mem.events if e[2] == "election.won"]
    failover_terms = [e for e in won if e[4] > first_term and e[0] > CUT_AT_US]
    return {
        "world": world,
        "first_leader": first_leader,
        "first_term": first_term,
        "ok": ok,
        "failed": failed,
        "first_ok_after_cut": first_ok_after_cut,
        "failover_won": failover_terms,
        "event_log": mem.event_log_bytes(),
        "spans": span_projection(world["tracer"]),
    }


def check_invariants(world) -> None:
    env = world["env"]
    for domain in env.kernel.domains.values():
        assert domain.buffer_acquires == domain.buffer_releases, (
            f"domain {domain.name!r} leaked pooled buffer(s)"
        )
    tally_sum = sum(env.clock.tally().values())
    # relative tolerance: ~220k protocol advances accumulate float dust
    assert abs(env.clock.now_us - tally_sum) < 1e-9 * env.clock.now_us + 1e-6
    assert world["tracer"].dropped() == 0


@contextlib.contextmanager
def membership_artifacts_on_failure(world, seed: int):
    """On assertion failure, dump the seed's trace AND membership event
    log for offline replay (CI uploads CHAOS_TRACE_DIR)."""
    try:
        yield
    except BaseException:
        out_dir = os.environ.get("CHAOS_TRACE_DIR")
        if out_dir:
            from repro.obs.export import write_jsonl

            os.makedirs(out_dir, exist_ok=True)
            write_jsonl(
                world["tracer"].spans(),
                os.path.join(out_dir, f"membership-seed-{seed}.jsonl"),
            )
            with open(
                os.path.join(out_dir, f"membership-seed-{seed}-events.jsonl"), "wb"
            ) as fh:
                fh.write(world["mem"].event_log_bytes())
        raise


@pytest.mark.parametrize("seed", chaos_seeds())
def test_region_partition_failover_heal(seed, counter_module):
    result = run_scenario(seed, counter_module)
    world = result["world"]
    with membership_artifacts_on_failure(world, seed):
        mem, election = world["mem"], world["election"]

        # 1. safety: no term ever had two winners, ever
        election.assert_single_leader_per_term()

        # 2. gossip detected the cut: west evicted both east machines
        evicted_by_west = {
            e[3] for e in mem.events
            if e[2] == "evict" and e[1] in WEST and CUT_AT_US <= e[0] <= HEAL_AT_US
        }
        assert evicted_by_west >= set(EAST), (
            f"seed {seed}: west never evicted east ({evicted_by_west})"
        )

        # 3. a new term was won after the cut, inside the failover bound,
        #    by a west member (the minority side must not elect)
        assert result["failover_won"], f"seed {seed}: no failover election"
        won_at, winner, _, _, term = result["failover_won"][0]
        assert winner in WEST
        bound = failover_bound_us(election, mem)
        assert won_at - CUT_AT_US <= bound, (
            f"seed {seed}: failover took {won_at - CUT_AT_US:.0f}us > {bound:.0f}us"
        )
        minority_wins = [
            e for e in mem.events
            if e[2] == "election.won" and e[1] in EAST
            and CUT_AT_US < e[0] < HEAL_AT_US
        ]
        assert minority_wins == [], f"seed {seed}: minority side elected"

        # 4. clients re-reached the service through the reconnectable
        #    eviction fast-path after the new leader re-exported it
        assert result["first_ok_after_cut"] is not None, (
            f"seed {seed}: clients never re-reached the service"
        )
        assert result["ok"] > 0
        reconnect_events = [
            evt
            for span in world["tracer"].spans()
            for evt in span.events
            if evt["name"] == "reconnect.evicted"
        ]
        assert reconnect_events, (
            f"seed {seed}: the eviction fast-path never fired"
        )
        assert all("incarnation" in evt for evt in reconnect_events)

        # 5. heal: everyone re-admitted, exactly one leader at the end
        for name, node in mem.nodes.items():
            others = sorted(m for m in mem.nodes if m != name)
            assert node.alive_members() == others, (
                f"seed {seed}: {name} still excludes someone after heal"
            )
        rejoins = {e[1] for e in mem.events if e[2] == "rejoin" and e[0] > HEAL_AT_US}
        assert rejoins, f"seed {seed}: no rejoin transitions after heal"
        assert len(election.current_leaders()) == 1

        # 6. world-level conservation invariants
        check_invariants(world)


@pytest.mark.parametrize("seed", chaos_seeds())
def test_replay_is_byte_identical(seed, counter_module):
    """Same seed, fresh world: the membership event log must replay
    byte-for-byte and the span projection must match exactly."""
    first = run_scenario(seed, counter_module)
    second = run_scenario(seed, counter_module)
    assert first["event_log"] == second["event_log"], (
        f"seed {seed}: membership event log diverged between replays"
    )
    assert first["spans"] == second["spans"], (
        f"seed {seed}: span projection diverged between replays"
    )
    assert first["ok"] == second["ok"] and first["failed"] == second["failed"]
