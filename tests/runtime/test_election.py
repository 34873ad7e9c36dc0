"""Lease-based leader election: safety, failover, and saga handoff.

Safety first — at most one leader per term, and a minority partition
can never elect because majority is counted against the *fixed*
electorate.  Then liveness: a fresh group elects, an evicted leader is
replaced within the failover bound, and a healed group converges back
to exactly one leader.  Finally the integration the tentpole exists
for: :class:`ElectedCoordinator` stands up a replacement saga
coordinator on every win and journal-recovers what its predecessor left
half-done.
"""

from __future__ import annotations

import pytest

from repro.runtime.election import ElectedCoordinator, LEADER
from repro.runtime.env import Environment
from repro.runtime.saga import SagaAborted

SEEDS = range(6)


def build_world(seed: int = 0, n: int = 5):
    env = Environment(seed=seed)
    machines = [env.machine(f"m{i}") for i in range(n)]
    mem = env.install_membership()
    election = env.install_election()
    return env, mem, election, machines


def failover_bound_us(election, membership) -> float:
    """Crash-to-new-leader bound: the lease must lapse (or gossip must
    evict, whichever is slower), then one backoff plus a vote round."""
    cfg = election.config
    mcfg = membership.config
    detect = max(
        cfg.lease_us,
        (len(membership.nodes) - 1)
        * (mcfg.probe_interval_us + mcfg.probe_jitter_us)
        + 2 * mcfg.ack_timeout_us
        + mcfg.suspicion_timeout_us,
    )
    return detect + cfg.check_interval_us + 2 * cfg.backoff_base_us + 2 * cfg.vote_timeout_us + 1_000_000.0


def wait_for_leader(mem, election, exclude=(), budget_us=15_000_000.0):
    """Run the world until some member outside ``exclude`` holds office;
    returns (leader, elapsed_us)."""
    start = mem.now()
    while mem.now() - start < budget_us:
        mem.run_for(100_000)
        leaders = [l for l in election.current_leaders() if l[0] not in exclude]
        if leaders:
            return leaders[0], mem.now() - start
    raise AssertionError(f"no leader within {budget_us} us")


def failover_times(seed: int) -> tuple:
    """Crash the sitting leader and run one bound: (crash to its first
    eviction, crash to a higher term won, the bound)."""
    env, mem, election, machines = build_world(seed=seed)
    (leader, term), _ = wait_for_leader(mem, election)
    crashed_at = mem.now()
    machines[int(leader[1:])].crash()
    bound = failover_bound_us(election, mem)
    mem.run_for(bound)
    election.assert_single_leader_per_term()
    after = [e for e in mem.events if e[0] > crashed_at]
    evicted = min(e[0] for e in after if e[2] == "evict" and e[3] == leader)
    won = min(e[0] for e in after if e[2] == "election.won" and e[4] > term)
    return evicted - crashed_at, won - crashed_at, bound


class TestElects:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fresh_group_elects_exactly_one_leader(self, seed):
        env, mem, election, _ = build_world(seed=seed)
        (leader, term), _ = wait_for_leader(mem, election)
        mem.run_for(3_000_000)
        assert election.current_leaders() == [(leader, term)]
        election.assert_single_leader_per_term()
        # every member converged on following the winner
        for name in election.electorate:
            assert election.leader_of(name) == (leader, term)

    def test_single_member_electorate_self_elects(self):
        env = Environment(seed=0)
        env.machine("solo")
        mem = env.install_membership()
        election = env.install_election()
        mem.run_for(2_000_000)
        assert len(election.current_leaders()) == 1
        election.assert_single_leader_per_term()

    def test_won_terms_are_logged_into_the_membership_event_log(self):
        env, mem, election, _ = build_world(seed=1)
        wait_for_leader(mem, election)
        kinds = {e[2] for e in mem.events}
        assert "election.campaign" in kinds
        assert "election.won" in kinds


class TestFailover:
    @pytest.mark.parametrize("seed", range(12))
    def test_crashed_leader_replaced_within_bound(self, seed):
        """Gossip evicts the crashed leader and a higher term is won, each
        within the bound, and the seed replays both times exactly."""
        detected, won, bound = failover_times(seed)
        assert 0 < detected <= bound and 0 < won <= bound
        assert failover_times(seed) == (detected, won, bound)

    def test_eviction_triggers_candidacy_before_the_lease_fully_lapses(self):
        # With a lease much longer than the suspicion window, failover
        # must ride the membership eviction (the fast path), not the
        # lease expiry.
        env = Environment(seed=2)
        machines = [env.machine(f"m{i}") for i in range(5)]
        mem = env.install_membership()
        election = env.install_election(lease_us=60_000_000.0, renew_interval_us=400_000.0)
        (leader, _), _ = wait_for_leader(mem, election)
        machines[int(leader[1:])].crash()
        _, elapsed = wait_for_leader(
            mem, election, exclude=(leader,), budget_us=30_000_000.0
        )
        assert elapsed < 60_000_000.0 / 2, "failover waited for the lease"
        election.assert_single_leader_per_term()

    def test_leader_without_majority_steps_down(self):
        env, mem, election, _ = build_world(seed=3)
        (leader, term), _ = wait_for_leader(mem, election)
        # cut the leader off from everyone
        for name in election.electorate:
            if name != leader:
                env.fabric.partition(leader, name)
        mem.run_for(
            election.config.lease_us + 4 * election.config.renew_interval_us
        )
        node = election.member(leader)
        assert not node.is_leader(), "isolated leader kept its lease"
        assert any(
            e[2] == "election.stepdown" and e[1] == leader for e in mem.events
        )


class TestPartitionSafety:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_minority_side_never_elects(self, seed):
        env, mem, election, _ = build_world(seed=seed, n=5)
        (leader, _), _ = wait_for_leader(mem, election)
        # isolate a 2-member minority that includes the leader
        other = next(n for n in election.electorate if n != leader)
        minority = {leader, other}
        majority = [n for n in election.electorate if n not in minority]
        for a in minority:
            for b in majority:
                env.fabric.partition(a, b)
        mem.run_for(25_000_000)
        for name, _term in election.current_leaders():
            assert name not in minority, "minority side elected a leader"
        election.assert_single_leader_per_term()
        # the majority side moved on to a new leader
        assert any(l[0] in majority for l in election.current_leaders())

    @pytest.mark.parametrize("seed", SEEDS)
    def test_heal_converges_to_one_leader_without_split_brain(self, seed):
        env, mem, election, _ = build_world(seed=seed, n=5)
        (leader, _), _ = wait_for_leader(mem, election)
        other = next(n for n in election.electorate if n != leader)
        minority = {leader, other}
        for a in minority:
            for b in election.electorate:
                if b not in minority:
                    env.fabric.partition(a, b)
        mem.run_for(20_000_000)
        env.fabric.heal_all()
        mem.run_for(20_000_000)
        election.assert_single_leader_per_term()
        leaders = election.current_leaders()
        assert len(leaders) == 1
        # everyone follows the one leader again
        final_leader, final_term = leaders[0]
        for name in election.electorate:
            assert election.leader_of(name) == (final_leader, final_term)


class TestDeterminism:
    def run_scenario(self, seed: int):
        env, mem, election, machines = build_world(seed=seed)
        (leader, _), _ = wait_for_leader(mem, election)
        machines[int(leader[1:])].crash()
        mem.run_for(15_000_000)
        return mem.event_log_bytes(), sorted(
            (t, tuple(sorted(w))) for t, w in election.winners.items()
        )

    def test_same_seed_same_campaigns_same_winners(self):
        assert self.run_scenario(4) == self.run_scenario(4)


class TestElectedCoordinator:
    def test_winner_recovers_the_predecessors_open_saga(self):
        from repro.services.stable import DurableKVService

        env, mem, election, machines = build_world(seed=5, n=3)
        service = DurableKVService(env, "bank", "/services/acct")
        client = env.create_domain(env.machine("clients"), "teller")
        acct = service.client_for(client)
        acct.put("a", "100")
        acct.put("b", "100")

        compensators = {
            "debit-a": lambda token: acct.adjust("a", int(token)),
            "credit-b": lambda token: acct.adjust("b", -int(token)),
        }
        store = None
        slots = {}
        for name in election.electorate:
            domain = env.create_domain(name, f"coord-{name}")
            slot = ElectedCoordinator(
                election, name, domain, "transfer", compensators, store=None
            )
            slots[name] = slot

        (leader, term), _ = wait_for_leader(mem, election)
        first = slots[leader]
        assert first.coordinator is not None and first.term == term
        # share one journal store across all slots (one logical service)
        for slot in slots.values():
            slot.store = first.store

        # the incumbent journals a step, then dies mid-saga
        saga = first.coordinator.begin("transfer-30")
        saga.run(
            "debit-a",
            lambda: acct.adjust("a", -30),
            compensation=compensators["debit-a"],
            comp_token="30",
        )
        machines[int(leader[1:])].crash()

        (successor, new_term), _ = wait_for_leader(
            mem, election, exclude=(leader,), budget_us=30_000_000.0
        )
        replacement = slots[successor]
        assert replacement.coordinator is not None
        assert replacement.term == new_term
        assert replacement.recoveries >= 1
        # the half-done transfer was compensated from the journal alone
        assert acct.get("a") == "100"
        assert acct.get("b") == "100"
        assert any(e[2] == "election.recovered" for e in mem.events)
        election.assert_single_leader_per_term()
